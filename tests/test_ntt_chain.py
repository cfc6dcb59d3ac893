"""One NTT table set per modulus chain, owned by the chain.

CKKS parameters intern their ``Q_L·P`` chain and hold it; every basis they
hand out names the chain, and every level basis ``Q_l`` (rows ``[:l]``) and
extended basis ``Q_l·P`` (rows ``[:l]`` and ``[L:L+alpha]``) dispatches on a
view of the chain's tables (`repro.poly.rns_poly.basis_plan`).  This suite
pins the contract:

* on every rung, transforms over a level below the top -- the level basis,
  the split extended basis, limb subsets across the split, stacked
  operands -- are bit-identical to the ``ntt_reference`` oracle;
* the views own no tables: one table build per ``(chain, N)``, every
  level's rows of those tables share memory with them, and the plan cache
  plays no part;
* every basis of a parameter set runs on that set's own chain, whichever
  overlapping set was built first, and a pickled basis re-binds to it;
* a dropped parameter set frees its chain, tables and constants;
* a mixed-width chain serves each view on the rung the view's own moduli
  resolve to, and a chain whose widest limbs need a three-chunk split
  still keeps one table set, which every basis views.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.ckks import CkksEncoder, CkksEvaluator, Encryptor, KeyGenerator
from repro.ckks.params import CkksParameters
from repro.diagnostics import BoundedLruCache
from repro.numtheory.crt import RnsBasis
from repro.numtheory.primes import generate_ntt_prime
from repro.poly import ntt_engine
from repro.poly.basis_conversion import conversion_for
from repro.poly.ntt_engine import BACKENDS, NttPlanStack, plan_stack_for
from repro.poly.ntt_reference import ntt_forward_negacyclic, ntt_inverse_negacyclic
from repro.poly.rns_poly import basis_plan, stacked_ntt_forward, stacked_ntt_inverse


@pytest.fixture(autouse=True)
def clean_dispatch(monkeypatch):
    monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
    ntt_engine.clear_quarantine()
    yield
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
    def test_split_extended_basis_below_the_top(self, backend, degree, monkeypatch):
        """Level 2 of 4: ``Q_2`` is one row range of the chain, ``Q_2·P``
        two.  Whole bases, stacked operands and limb subsets crossing the
        split all match the oracle, forward and inverse."""
        monkeypatch.setenv("REPRO_NTT_BACKEND", backend)
        rng = np.random.default_rng(degree)
        params = _params(degree, limbs=4, special_limbs=2)
        lead = (2,) if degree == 64 else ()
        for basis in (params.basis_at_level(2), params.extended_basis(2)):
            stack = basis_plan(basis)
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
        level = basis_plan(params.basis_at_level(2))
        split = basis_plan(params.extended_basis(2))
        assert level.chain is chain and split.chain is chain
        assert [rows for _, rows in level.ranges] == [slice(0, 2)]
        assert [rows for _, rows in split.ranges] == [slice(0, 2), slice(4, 6)]


class TestOneTableSetPerChain:
    def test_lookup_is_memoised(self):
        """Basis dispatch reads the chain's memoised views; the top extended
        basis runs on the chain itself."""
        params = _params(64, limbs=3, special_limbs=2)
        for level in range(1, params.limbs + 1):
            for basis in (params.basis_at_level(level), params.extended_basis(level)):
                assert basis_plan(basis) is basis_plan(basis)
        assert params.plan_stack() is basis_plan(params.extended_basis(params.limbs))

    def test_every_level_views_the_chain_tables(self, monkeypatch):
        """Transforms at every level build the four-step tables once, on the
        chain, and every view's rows of them are views of the same memory;
        the plan cache gains nothing."""
        monkeypatch.setenv("REPRO_NTT_BACKEND", "four_step")
        builds = []
        psi_powers = ntt_engine._psi_powers

        def counted(*args):
            builds.append(len(args[0]))
            return psi_powers(*args)

        monkeypatch.setattr(ntt_engine, "_psi_powers", counted)
        params = CkksParameters.create(degree=4096, limbs=5, log_q=27, dnum=2)
        chain = params.plan_stack()
        cached = len(ntt_engine._STACK_CACHE)
        rng = np.random.default_rng(3)
        stacks = []
        for level in range(1, params.limbs + 1):
            for basis in (params.basis_at_level(level), params.extended_basis(level)):
                stacks.append(basis_plan(basis))
                stacked_ntt_forward(basis, _random(rng, basis.moduli, 4096))
        assert builds == [chain.limb_count]
        assert len(ntt_engine._STACK_CACHE) == cached
        table = chain.four_step_stack()._fwd_pack[0]
        for stack in stacks:
            assert stack.chain is chain
            for _, rows in stack.ranges:
                assert np.shares_memory(table[rows], table)

    def test_views_do_not_depend_on_the_plan_cache(self, monkeypatch):
        """Views live on the chain: once the plan cache has evicted every
        entry, each basis still dispatches on the same view of its chain."""
        params = _params(64, limbs=3, special_limbs=1)
        bases = [
            basis
            for level in range(1, params.limbs + 1)
            for basis in (params.basis_at_level(level), params.extended_basis(level))
        ]
        views = [basis_plan(basis) for basis in bases]
        monkeypatch.setattr(
            ntt_engine, "_STACK_CACHE", BoundedLruCache(name="tiny", capacity=2)
        )
        for moduli in [(generate_ntt_prime(22 - i, 64),) for i in range(3)]:
            plan_stack_for(moduli, 64)
        for basis, view in zip(bases, views):
            assert basis_plan(basis) is view
            assert view.chain is params.plan_stack()


def _runs_on(basis, monkeypatch) -> list:
    """The stacks whose tables a forward transform over ``basis`` runs on."""
    owners = []
    run_rows = NttPlanStack._run_rows

    def spy(self, *args, **kwargs):
        owners.append(self)
        return run_rows(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(NttPlanStack, "_run_rows", spy)
        stacked_ntt_forward(basis, np.zeros((basis.size, basis.degree), np.uint64))
    return owners


class TestOwnership:
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_every_set_runs_on_its_own_chain(self, order, monkeypatch):
        """A grid of overlapping sets (prime generation shares prefixes, and
        one set's special primes are another's ciphertext primes), all alive
        at once: every level and extended basis of each runs on that set's
        own ``plan_stack()``, whichever set was built first."""
        grid = [
            (degree, limbs, dnum)
            for degree in (64, 1024)
            for limbs in range(3, 7)
            for dnum in (2, 3)
        ]
        if order == "descending":
            grid.reverse()
        gc.collect()  # no chain of an earlier test stands in for a set's own
        sets = [
            CkksParameters.create(degree=degree, limbs=limbs, dnum=dnum)
            for degree, limbs, dnum in grid
        ]
        for params in sets:
            own = params.plan_stack()
            for level in range(1, params.limbs + 1):
                for basis in (params.basis_at_level(level), params.extended_basis(level)):
                    owners = _runs_on(basis, monkeypatch)
                    assert owners and all(owner is own for owner in owners), (
                        params.degree, params.limbs, params.dnum, level, basis.size
                    )

    def test_pickled_bases_rebind_by_key(self, monkeypatch):
        """A basis pickles its chain as plain ints; unpickled in a process
        that holds the chain, it -- and an unpickled copy of the parameters --
        dispatches on the same table set."""
        params = _params(64, limbs=4, special_limbs=2)
        own = params.plan_stack()
        for level in range(1, params.limbs + 1):
            for basis in (params.basis_at_level(level), params.extended_basis(level)):
                copy = pickle.loads(pickle.dumps(basis))
                assert copy == basis and copy.chain == basis.chain
                assert basis_plan(copy) is basis_plan(basis)
                assert all(owner is own for owner in _runs_on(copy, monkeypatch))
        clone = pickle.loads(pickle.dumps(params))
        assert clone.plan_stack() is own
        assert basis_plan(clone.extended_basis(2)) is basis_plan(params.extended_basis(2))

    def test_derived_bases_keep_the_chain(self):
        params = _params(64, limbs=4, special_limbs=2)
        top = params.basis_at_level(4)
        derived = [
            top.drop_last(),
            top.sub_basis(1, 3),
            top.extend(params.special_basis),
            params.modulus_basis,
            params.special_basis,
        ]
        for basis in derived:
            assert basis.chain == params.plan_stack().moduli
            assert basis_plan(basis).chain is params.plan_stack()
        assert top.extend(RnsBasis.generate(1, 20, 64)).chain is None

    def test_constants_are_memoised_on_the_chain(self):
        """BConv tables of bases drawn from one chain are one memo entry of
        that chain, shared by an equal parameter set; bare bases build
        afresh."""
        params = _params(64, limbs=4, special_limbs=2)
        twin = _params(64, limbs=4, special_limbs=2)
        assert twin.plan_stack() is params.plan_stack()
        source, target = params.special_basis, params.basis_at_level(3)
        conversion = conversion_for(source, target)
        assert conversion_for(twin.special_basis, twin.basis_at_level(3)) is conversion
        assert conversion in params.plan_stack()._constants.values()
        bare = RnsBasis(moduli=source.moduli, degree=64)
        assert conversion_for(bare, target) is not conversion_for(bare, target)


def _use(params) -> None:
    """Square, rescale and rotate one ciphertext under ``params``."""
    keygen = KeyGenerator(params)
    encoder = CkksEncoder(params)
    evaluator = CkksEvaluator(
        params,
        relin_key=keygen.relinearization_key(),
        galois_keys=keygen.galois_keys([5]),
    )
    values = np.random.default_rng(params.limbs).uniform(-1, 1, params.slot_count)
    ciphertext = Encryptor(params, keygen.public_key(), keygen).encrypt(
        encoder.encode_real(values)
    )
    squared = evaluator.rescale(evaluator.multiply(ciphertext, ciphertext))
    evaluator.rotate(squared, 1)


class TestChurn:
    def test_dropped_sets_free_their_tables(self):
        """K parameter sets created, used and dropped leave no chain alive and
        no NTT table of theirs reachable: no stack over their moduli
        survives, in the plan or ring caches or anywhere else."""
        gc.collect()
        before = [obj for obj in gc.get_objects() if isinstance(obj, NttPlanStack)]
        alive_before = {id(obj) for obj in before}
        cached = len(ntt_engine._STACK_CACHE)
        chains, moduli = [], set()
        for index in range(6):
            params = CkksParameters.create(
                degree=64, limbs=3 + index % 4, log_q=23, dnum=2 + index % 2
            )
            _use(params)
            chains.append(weakref.ref(params.plan_stack()))
            moduli |= set(params.plan_stack().moduli)
            del params
        gc.collect()
        assert all(ref() is None for ref in chains)
        assert len(ntt_engine._STACK_CACHE) == cached
        leaked = [
            obj
            for obj in gc.get_objects()
            if isinstance(obj, NttPlanStack)
            and id(obj) not in alive_before
            and moduli & set(obj.moduli)
        ]
        assert leaked == []


    def test_refcounting_frees_a_dropped_chain(self):
        """No reference cycle holds a chain (a chain holds no reference to
        itself and its views weakly): with the cyclic collector off, a used
        parameter set's chain dies at its ``del``."""
        gc.collect()
        gc.disable()
        try:
            params = CkksParameters.create(degree=64, limbs=3, log_q=23, dnum=2)
            _use(params)
            chain = weakref.ref(params.plan_stack())
            del params
            assert chain() is None
        finally:
            gc.enable()


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

    @pytest.mark.parametrize(
        "backend", [pytest.param(None, id="unpinned"), *BACKENDS]
    )
    @pytest.mark.parametrize("degree, special_bits", [(64, 31), (4096, 30)])
    def test_views_keep_their_own_rung_and_stay_exact(
        self, degree, special_bits, backend, monkeypatch
    ):
        """Special primes wider than ``Q``: at N = 64 the 31-bit limbs take
        the float twist; at N = 4096 the 30-bit limbs set the split shift
        every view of the chain runs at.  Each view dispatches the rung a
        stack of its own would, bit for bit."""
        if backend is not None:
            monkeypatch.setenv("REPRO_NTT_BACKEND", backend)
        params = self._chain(degree, special_bits)
        chain = params.plan_stack()
        rng = np.random.default_rng(5)
        for level in (1, 2, 3):
            for basis in (params.basis_at_level(level), params.extended_basis(level)):
                view = basis_plan(basis)
                own = NttPlanStack(basis.moduli, degree)
                assert view.chain is chain
                assert view._executing_backend() == own._executing_backend()
                x = _random(rng, basis.moduli, degree, (2,))
                assert np.array_equal(view.forward(x), own.forward(x))
                assert np.array_equal(view.inverse(x), own.inverse(x))

    def test_three_chunk_chain_is_shared(self):
        """30-bit special primes at N = 8192 need a three-chunk column split:
        the whole chain, its 25-bit levels included, keeps one table set at
        that split, every basis views it, and each view is bit-exact."""
        params = self._chain(8192, 30)
        chain = params.plan_stack()
        assert chain.warm() == "four_step"
        assert [k for _, k in ntt_engine._split_shifts(8192, chain.moduli)] == [3, 2]
        rng = np.random.default_rng(7)
        for basis in (params.basis_at_level(3), params.extended_basis(1)):
            view = basis_plan(basis)
            assert view.chain is chain
            x = _random(rng, basis.moduli, 8192)
            expected = NttPlanStack(basis.moduli, 8192, backend="reference")
            assert np.array_equal(view.forward(x), expected.forward(x))
            assert np.array_equal(view.inverse(x), expected.inverse(x))
