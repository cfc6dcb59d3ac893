"""One NTT table set per modulus chain: every basis of it runs on views.

CKKS parameters register their ``Q_L·P`` chain with the plan cache; every
level basis ``Q_l`` (rows ``[:l]``) and extended basis ``Q_l·P`` (rows
``[:l]`` and ``[L:L+alpha]``) is then a view of the chain's tables.  This
suite pins the contract:

* on every rung, transforms over a level below the top -- the level basis,
  the split extended basis, limb subsets across the split, stacked
  operands -- are bit-identical to the ``ntt_reference`` oracle;
* the views own no tables: one table-owning entry per ``(chain, N)``, every
  level's rows of those tables share memory with them, and a basis stays a
  view however the plan cache evicts;
* a mixed-width chain serves each view on the rung the view's own moduli
  resolve to, and a chain whose four-step split is exact for only some
  limbs keeps one table set per basis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks.params import CkksParameters
from repro.diagnostics import BoundedLruCache
from repro.numtheory.crt import RnsBasis
from repro.numtheory.primes import generate_ntt_prime
from repro.poly import ntt_engine
from repro.poly.ntt_engine import (
    BACKEND_AUTO,
    BACKENDS,
    NttPlanStack,
    plan_stack_for,
    set_default_backend,
)
from repro.poly.ntt_reference import ntt_forward_negacyclic, ntt_inverse_negacyclic
from repro.poly.rns_poly import stacked_ntt_forward, stacked_ntt_inverse


@pytest.fixture(autouse=True)
def clean_dispatch(monkeypatch):
    monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
    previous = set_default_backend(BACKEND_AUTO)
    ntt_engine.clear_quarantine()
    yield
    set_default_backend(previous)
    ntt_engine.clear_quarantine()


def _random(rng, moduli, degree, lead=()):
    """A reduced ``(*lead, len(moduli), degree)`` residue tensor."""
    return np.stack(
        [rng.integers(0, q, (*lead, degree), dtype=np.uint64) for q in moduli],
        axis=-2,
    )


def _oracle(matrix, moduli, psis, forward):
    transform = ntt_forward_negacyclic if forward else ntt_inverse_negacyclic
    out = np.empty_like(matrix)
    for index in np.ndindex(*matrix.shape[:-2]):
        for limb, (q, psi) in enumerate(zip(moduli, psis)):
            out[(*index, limb)] = transform(matrix[(*index, limb)], q, psi)
    return out


def _params(degree, limbs, special_limbs):
    """A chain of 26-bit limbs, which no other suite registers."""
    return CkksParameters.create(
        degree=degree, limbs=limbs, log_q=26, dnum=2, special_limbs=special_limbs
    )


class TestViewsAreBitExact:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("degree", [64, 4096])
    def test_split_extended_basis_below_the_top(self, backend, degree):
        """Level 2 of 4: ``Q_2`` is one row range of the chain, ``Q_2·P``
        two.  Whole bases, stacked operands and limb subsets crossing the
        split all match the oracle, forward and inverse."""
        set_default_backend(backend)
        rng = np.random.default_rng(degree)
        params = _params(degree, limbs=4, special_limbs=2)
        lead = (2,) if degree == 64 else ()
        for basis in (params.basis_at_level(2), params.extended_basis(2)):
            stack = plan_stack_for(basis.moduli, degree)
            assert stack.resolve_backend() == backend
            x = _random(rng, basis.moduli, degree, lead)
            for forward, transform in (
                (True, stacked_ntt_forward),
                (False, stacked_ntt_inverse),
            ):
                expected = _oracle(x, basis.moduli, stack.psis, forward)
                assert np.array_equal(transform(basis, x), expected)
                subset = slice(1, basis.size)
                assert np.array_equal(
                    transform(basis, x[..., subset, :], subset),
                    expected[..., subset, :],
                )

    @pytest.mark.parametrize("degree", [64, 4096])
    def test_split_extended_basis_is_two_row_ranges(self, degree):
        params = _params(degree, limbs=4, special_limbs=2)
        chain = params.plan_stack()
        level = plan_stack_for(params.basis_at_level(2).moduli, degree)
        split = plan_stack_for(params.extended_basis(2).moduli, degree)
        assert level.chain is chain and split.chain is chain
        assert [rows for _, rows in level.ranges] == [slice(0, 2)]
        assert [rows for _, rows in split.ranges] == [slice(0, 2), slice(4, 6)]


class TestOneTableSetPerChain:
    def test_lookup_is_memoised(self):
        params = _params(64, limbs=3, special_limbs=2)
        for level in range(1, params.limbs + 1):
            for basis in (params.basis_at_level(level), params.extended_basis(level)):
                assert plan_stack_for(basis.moduli, 64) is plan_stack_for(
                    basis.moduli, 64
                )
        assert params.plan_stack() is plan_stack_for(
            params.extended_basis(params.limbs).moduli, 64
        )

    @pytest.mark.parametrize("backend", ["four_step", "butterfly"])
    def test_every_level_views_the_chain_tables(self, backend, monkeypatch):
        """Transforms at every level build each rung's tables once, on the
        chain, and every view's rows of them are views of the same memory."""
        set_default_backend(backend)
        builds = []
        psi_powers = ntt_engine._psi_powers

        def counted(*args):
            builds.append(len(args[0]))
            return psi_powers(*args)

        monkeypatch.setattr(ntt_engine, "_psi_powers", counted)
        # Five limbs at log_q=27: a chain no other test registers first.
        params = CkksParameters.create(degree=4096, limbs=5, log_q=27, dnum=2)
        chain = params.plan_stack()
        rng = np.random.default_rng(3)
        stacks = []
        for level in range(1, params.limbs + 1):
            for basis in (params.basis_at_level(level), params.extended_basis(level)):
                stacks.append(plan_stack_for(basis.moduli, 4096))
                stacked_ntt_forward(basis, _random(rng, basis.moduli, 4096))
        assert builds == [chain.limb_count]
        owning = [
            stack
            for _, stack in ntt_engine._STACK_CACHE.items()
            if set(stack.moduli) <= set(chain.moduli)
            and stack.chain is stack
            and (stack._four_step is not None or stack._butterfly is not None)
        ]
        assert owning == [chain]
        if backend == "four_step":
            table = chain.four_step_stack()._fwd_pack[0]
        else:
            table = chain.butterfly_tables().twist_br
        for stack in stacks:
            assert stack.chain is chain
            for _, rows in stack.ranges:
                assert np.shares_memory(table[rows], table)

    def test_views_survive_cache_eviction(self, monkeypatch):
        """Registered chains outlive the plan cache's entries: once it has
        evicted every stack, each basis looked up again is still a view of
        the same chain tables, not a table set of its own."""
        params = _params(64, limbs=3, special_limbs=1)
        bases = [
            basis.moduli
            for level in range(1, params.limbs + 1)
            for basis in (params.basis_at_level(level), params.extended_basis(level))
        ]
        chains = [plan_stack_for(moduli, 64).chain for moduli in bases]
        monkeypatch.setattr(
            ntt_engine, "_STACK_CACHE", BoundedLruCache(name="tiny", capacity=2)
        )
        for moduli in bases + [(generate_ntt_prime(22 - i, 64),) for i in range(2)]:
            plan_stack_for(moduli, 64)
        for moduli, chain in zip(bases, chains):
            again = plan_stack_for(moduli, 64)
            assert again.chain is chain and chain.chain is chain


class TestMixedWidthChains:
    @staticmethod
    def _chain(degree, special_bits):
        """Three 25-bit ciphertext limbs under two wider special primes."""
        modulus_basis = RnsBasis.generate(3, 25, degree)
        special = [generate_ntt_prime(special_bits, degree)]
        special.append(generate_ntt_prime(special_bits, degree, below=special[0]))
        return CkksParameters(
            degree=degree,
            modulus_basis=modulus_basis,
            special_basis=RnsBasis(moduli=tuple(special), degree=degree),
            scale=2.0**20,
            dnum=2,
        )

    @pytest.mark.parametrize("backend", (BACKEND_AUTO,) + BACKENDS)
    @pytest.mark.parametrize("degree, special_bits", [(64, 31), (4096, 30)])
    def test_views_keep_their_own_rung_and_stay_exact(
        self, degree, special_bits, backend
    ):
        """Special primes wider than ``Q``: at N = 64, 31 bits are four-step
        exact but past the butterfly bound; at N = 4096 the 30-bit limbs set
        the split shift every view of the chain runs at.  Each view
        dispatches the rung a stack of its own would, bit for bit."""
        set_default_backend(backend)
        params = self._chain(degree, special_bits)
        chain = params.plan_stack()
        rng = np.random.default_rng(5)
        for level in (1, 2, 3):
            for basis in (params.basis_at_level(level), params.extended_basis(level)):
                view = plan_stack_for(basis.moduli, degree)
                own = NttPlanStack(basis.moduli, degree)
                assert view.chain is chain
                assert view._executing_backend() == own._executing_backend()
                x = _random(rng, basis.moduli, degree, (2,))
                assert np.array_equal(view.forward(x), own.forward(x))
                assert np.array_equal(view.inverse(x), own.inverse(x))

    def test_partly_four_step_exact_chain_is_not_shared(self):
        """30-bit special primes at N = 8192 are butterfly-exact but not
        four-step exact: one split shift cannot serve the chain, so each
        basis keeps its own table set and its own rung."""
        params = self._chain(8192, 30)
        level = plan_stack_for(params.basis_at_level(3).moduli, 8192)
        assert level.chain is level
        assert params.plan_stack().chain is params.plan_stack()
        assert level.resolve_backend() == "four_step"
        assert params.plan_stack().resolve_backend() == "butterfly"
