"""Backend-dispatch and four-step GEMM tests for the NTT engine.

The engine fronts three bit-exact backends (butterfly, four_step, reference)
behind one dispatch layer.  This suite pins down

* cross-backend bit-exactness against the `ntt_reference` oracle over random
  rings across the full supported degree sweep (including hypothesis
  round-trips),
* the wide-modulus story: ``q >= 2**30`` rides four_step where its split is
  exact and falls back to reference where it is not -- dispatch never
  selects an inexact backend,
* the env/default override surface,
* lazily built rung tables: a stack holds only the tables of the rungs it
  has dispatched to, each built once, and
* the normalized transform accounting (passes *and* limb passes), which is
  what makes the fused key switch's "1 fwd + 1 inv" claim assertable.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.numtheory.crt import RnsBasis
from repro.numtheory.primes import generate_ntt_prime
from repro.poly import ntt_engine
from repro.poly.fused_kernels import MODE_ENV
from repro.poly.ntt_engine import (
    BACKEND_AUTO,
    BACKEND_BUTTERFLY,
    BACKEND_FOUR_STEP,
    BACKEND_REFERENCE,
    BACKENDS,
    MAX_PLAN_MODULUS,
    NttPlanStack,
    four_step_split,
    four_step_supported,
    plan_stack_for,
    quarantine_backend,
    requested_backend,
    reset_transform_counts,
    resolve_backend,
    set_default_backend,
    supports,
    transform_counts,
)
from repro.poly.ntt_reference import (
    ntt_forward_negacyclic,
    ntt_inverse_negacyclic,
)
from repro.poly.ring import PolyRing

SWEEP_DEGREES = [2**4, 2**5, 2**6, 2**7, 2**8, 2**10, 2**12, 2**13]


def _random_matrix(rng, moduli, degree, lead=()):
    return np.stack(
        [rng.integers(0, q, lead + (degree,), dtype=np.uint64) for q in moduli],
        axis=-2,
    )


class TestFourStepSplit:
    def test_near_square_factorisation(self):
        for degree in SWEEP_DEGREES:
            rows, cols = four_step_split(degree)
            assert rows * cols == degree
            assert rows in (cols, 2 * cols)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            four_step_split(48)


class TestCrossBackendBitExactness:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("degree", SWEEP_DEGREES)
    def test_word_sized_ring_all_backends_agree(self, degree, backend, rng):
        basis = RnsBasis.generate(1, 28, degree)
        q = basis.moduli[0]
        x = _random_matrix(rng, (q,), degree)
        plan = NttPlanStack((q,), degree, backend=backend)
        psi = plan.psis[0]
        assert plan.resolve_backend() == backend
        assert np.array_equal(plan.forward(x)[0], ntt_forward_negacyclic(x[0], q, psi))
        assert np.array_equal(plan.inverse(x)[0], ntt_inverse_negacyclic(x[0], q, psi))
        assert np.array_equal(plan.inverse(plan.forward(x)), x)

    @pytest.mark.parametrize("degree", [2**4, 2**6, 2**8, 2**12])
    def test_stacked_ring_cross_backend(self, degree, rng):
        basis = RnsBasis.generate(3, 28, degree)
        matrix = _random_matrix(rng, basis.moduli, degree)
        outputs = {}
        for backend in BACKENDS:
            stack = NttPlanStack(basis.moduli, degree, backend=backend)
            assert stack.resolve_backend() == backend
            outputs[backend] = stack.forward(matrix)
            assert np.array_equal(stack.inverse(outputs[backend]), matrix)
        assert np.array_equal(outputs[BACKEND_BUTTERFLY], outputs[BACKEND_FOUR_STEP])
        assert np.array_equal(outputs[BACKEND_BUTTERFLY], outputs[BACKEND_REFERENCE])

    @given(
        log_degree=st.integers(4, 13),
        bits=st.integers(14, 29),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_roundtrip_and_oracle(self, log_degree, bits, seed):
        degree = 1 << log_degree
        bits = max(bits, log_degree + 2)
        rng = np.random.default_rng(seed)
        try:
            q = generate_ntt_prime(bits, degree)
        except ValueError:
            return  # no NTT-friendly prime at this (bits, degree) cell
        stack = NttPlanStack((q,), degree)
        if not four_step_supported(degree, (q,)):
            with pytest.raises(ParameterError):
                stack.four_step_stack()
            return
        tables = stack.four_step_stack()
        x = _random_matrix(rng, (q,), degree)
        fwd = tables.transform(x, True)
        assert np.array_equal(fwd[0], ntt_forward_negacyclic(x[0], q, stack.psis[0]))
        assert np.array_equal(tables.transform(fwd, False), x)

    def test_mixed_width_stack_bit_exact(self, rng):
        """Regression: a stack mixing modulus widths must re-split every
        limb's matrices at the stack-wide (widest) shift — splitting a wide
        limb with a narrow limb's shift silently overflows the GEMM budget."""
        degree = 2**12
        narrow = generate_ntt_prime(17, degree)
        wide = generate_ntt_prime(30, degree)
        stack = NttPlanStack((narrow, wide), degree, backend=BACKEND_FOUR_STEP)
        assert four_step_supported(degree, (narrow, wide))
        matrix = _random_matrix(rng, (narrow, wide), degree)
        got = stack.forward(matrix)
        for i, q in enumerate((narrow, wide)):
            assert np.array_equal(
                got[i], ntt_forward_negacyclic(matrix[i], q, stack.psis[i])
            ), q
        assert np.array_equal(stack.inverse(got), matrix)

    def test_unsupported_stack_refuses_four_step_tables(self):
        degree = 2**13
        prime = generate_ntt_prime(30, degree)
        assert not four_step_supported(degree, (prime,))
        stack = NttPlanStack((prime,), degree)
        with pytest.raises(ParameterError):
            stack.four_step_stack()

    @given(
        log_degree=st.integers(4, 12),
        bits=st.integers(14, 29),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_stacked_four_step_oracle(self, log_degree, bits, seed):
        """Stacked four-step tables agree with the oracle on every limb."""
        degree = 1 << log_degree
        bits = max(bits, log_degree + 2)
        try:
            basis = RnsBasis.generate(2, bits, degree)
        except ValueError:
            return
        if not four_step_supported(degree, basis.moduli):
            return
        stack = NttPlanStack(basis.moduli, degree)
        tables = stack.four_step_stack()
        matrix = _random_matrix(np.random.default_rng(seed), basis.moduli, degree)
        fwd = tables.transform(matrix, True)
        for i, q in enumerate(basis.moduli):
            assert np.array_equal(
                fwd[i], ntt_forward_negacyclic(matrix[i], q, stack.psis[i])
            )
        assert np.array_equal(tables.transform(fwd, False), matrix)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stacked_operands_bit_exact(self, rng, backend):
        basis = RnsBasis.generate(4, 28, 256)
        stack = NttPlanStack(basis.moduli, 256, backend=backend)
        tensor = _random_matrix(rng, basis.moduli, 256, (3,))
        expected = NttPlanStack(
            basis.moduli, 256, backend=BACKEND_REFERENCE
        ).forward(tensor)
        assert stack.resolve_backend() == backend
        assert np.array_equal(stack.forward(tensor), expected)
        assert np.array_equal(stack.inverse(expected), tensor)

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("degree", [64, 4096])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_limb_subset_matches_oracle(self, rng, backend, degree, lead):
        """A limb subset runs on slices of the stack's own tables, bit-exact
        with the oracle on every row, forward and inverse, on every rung."""
        basis = RnsBasis.generate(4, 28, degree)
        stack = NttPlanStack(basis.moduli, degree, backend=backend)
        for limbs in [slice(0, 1), slice(1, 3), slice(2, None)]:
            moduli, psis = basis.moduli[limbs], stack.psis[limbs]
            x = _random_matrix(rng, moduli, degree, lead)
            fwd = stack.forward(x, limbs)
            inv = stack.inverse(x, limbs)
            for i, (q, psi) in enumerate(zip(moduli, psis)):
                rows = x[..., i, :].reshape(-1, degree)
                assert np.array_equal(
                    fwd[..., i, :].reshape(-1, degree),
                    [ntt_forward_negacyclic(row, q, psi) for row in rows],
                ), (limbs, q)
                assert np.array_equal(
                    inv[..., i, :].reshape(-1, degree),
                    [ntt_inverse_negacyclic(row, q, psi) for row in rows],
                ), (limbs, q)


class TestLazyRungTables:
    def test_four_step_stack_builds_no_butterfly_tables(self, rng, monkeypatch):
        """A stack resolved to four_step never builds the butterfly tables;
        pinned to butterfly, eight concurrent first calls build them once
        and every output is bit-exact."""
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        basis = RnsBasis.generate(3, 28, 256)
        matrix = _random_matrix(rng, basis.moduli, 256, (2,))
        expected = NttPlanStack(
            basis.moduli, 256, backend=BACKEND_REFERENCE
        ).forward(matrix)

        auto = NttPlanStack(basis.moduli, 256)
        assert auto.resolve_backend() == BACKEND_FOUR_STEP
        assert np.array_equal(auto.forward(matrix), expected)
        assert np.array_equal(auto.inverse(expected), matrix)
        assert auto._four_step is not None
        assert auto._butterfly is None

        pinned = NttPlanStack(basis.moduli, 256, backend=BACKEND_BUTTERFLY)
        original = ntt_engine._butterfly_tables
        built = []

        def counted_build(*args):
            built.append(1)
            return original(*args)

        monkeypatch.setattr(ntt_engine, "_butterfly_tables", counted_build)
        barrier = threading.Barrier(8)
        outputs, errors = [], []

        def worker():
            try:
                barrier.wait(timeout=10.0)
                outputs.append(pinned.forward(matrix))
            except BaseException as exc:  # noqa: BLE001 - surfaced to the test
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(built) == 1
        assert len(outputs) == 8
        assert all(np.array_equal(got, expected) for got in outputs)
        assert pinned._four_step is None


class TestWideModulusDispatch:
    def test_wide_modulus_small_degree_uses_four_step(self, rng):
        prime = generate_ntt_prime(31, 64)
        assert prime >= MAX_PLAN_MODULUS
        assert four_step_supported(64, (prime,))
        assert resolve_backend(64, (prime,), requested=BACKEND_AUTO) == BACKEND_FOUR_STEP
        plan = plan_stack_for((prime,), 64)
        assert not plan.butterfly_ok
        x = _random_matrix(rng, (prime,), 64)
        assert np.array_equal(
            plan.forward(x)[0], ntt_forward_negacyclic(x[0], prime, plan.psis[0])
        )
        assert np.array_equal(plan.inverse(plan.forward(x)), x)

    def test_wide_modulus_large_degree_falls_back_to_reference(self):
        prime = generate_ntt_prime(31, 1 << 13)
        assert not four_step_supported(1 << 13, (prime,))
        assert not supports((prime,), 1 << 13)
        # An explicit four_step request must not produce an inexact backend.
        assert (
            resolve_backend(1 << 13, (prime,), requested=BACKEND_FOUR_STEP)
            == BACKEND_REFERENCE
        )

    def test_explicit_butterfly_on_wide_modulus_degrades_safely(self):
        prime = generate_ntt_prime(31, 64)
        choice = resolve_backend(64, (prime,), requested=BACKEND_BUTTERFLY)
        assert choice == BACKEND_REFERENCE

    @pytest.mark.parametrize("log_degree", range(2, 14))
    @pytest.mark.parametrize("bits", [20, 28, 30, 31, 32])
    def test_dispatch_never_selects_inexact_backend(self, log_degree, bits):
        """For every (degree, width) cell the resolved backend is exact."""
        degree = 1 << log_degree
        modulus = (1 << bits) - 1  # width witness; exactness is width-based
        for requested in (BACKEND_AUTO,) + BACKENDS:
            choice = resolve_backend(degree, (modulus,), requested=requested)
            if choice == BACKEND_BUTTERFLY:
                assert modulus < MAX_PLAN_MODULUS
            elif choice == BACKEND_FOUR_STEP:
                assert four_step_supported(degree, (modulus,))
            else:
                assert choice == BACKEND_REFERENCE

    def test_inexact_tables_refuse(self):
        """No backend is exact for a 31-bit prime at N=2^13: typed refusal."""
        prime = generate_ntt_prime(31, 1 << 13)
        with pytest.raises(ParameterError):
            NttPlanStack((prime,), 1 << 13)


class TestDispatchOverrides:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NTT_BACKEND", "butterfly")
        assert requested_backend() == BACKEND_BUTTERFLY
        assert resolve_backend(64, (7681,)) == BACKEND_BUTTERFLY

    @pytest.mark.parametrize("value", ["warp-drive", "fused"])
    def test_env_override_invalid_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NTT_BACKEND", value)
        with pytest.raises(ParameterError):
            requested_backend()

    def test_set_default_backend_roundtrip(self, monkeypatch):
        # The env pin outranks the process default; clear any matrix-leg pin.
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        previous = set_default_backend(BACKEND_BUTTERFLY)
        try:
            assert requested_backend() == BACKEND_BUTTERFLY
        finally:
            set_default_backend(previous)

    @pytest.mark.parametrize("name", ["nonsense", "fused"])
    def test_set_default_backend_validates(self, name):
        with pytest.raises(ParameterError):
            set_default_backend(name)

    @pytest.mark.parametrize("name", ["nonsense", "fused"])
    def test_quarantine_rejects_unknown_backend(self, name):
        with pytest.raises(ParameterError):
            quarantine_backend(name, reason="drill")

    @pytest.mark.parametrize("bogus", ["bogus", "fused"])
    def test_plan_backend_attribute_pins(self, rng, bogus):
        basis = RnsBasis.generate(1, 24, 64)
        plan = NttPlanStack(basis.moduli, 64, backend=BACKEND_BUTTERFLY)
        assert plan.resolve_backend() == BACKEND_BUTTERFLY
        with pytest.raises(ParameterError):
            NttPlanStack(basis.moduli, 64, backend=bogus)

    @pytest.mark.parametrize("mode", ["numpy", "numexpr", "numba"])
    def test_kernel_mode_does_not_steer_dispatch(self, monkeypatch, mode):
        """The element-wise kernel mode is not a dispatch input: the resolved
        backend is the same under every mode."""
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        basis = RnsBasis.generate(2, 24, 64)
        monkeypatch.setenv(MODE_ENV, "numpy")
        baseline = NttPlanStack(basis.moduli, 64).resolve_backend()
        monkeypatch.setenv(MODE_ENV, mode)
        assert NttPlanStack(basis.moduli, 64).resolve_backend() == baseline


class TestNormalizedAccounting:
    def test_stack_counts_passes_and_limb_rows(self, rng):
        basis = RnsBasis.generate(3, 24, 32)
        stack = plan_stack_for(basis.moduli, 32)
        matrix = np.stack(
            [rng.integers(0, q, 32, dtype=np.uint64) for q in basis.moduli]
        )
        reset_transform_counts()
        stack.forward(matrix)
        counts = transform_counts()
        assert counts["forward"] == 1
        assert counts["forward_limbs"] == 3

    def test_stacked_operand_books_per_limb_rows(self, rng):
        """Regression: a stacked (B, L, N) call is one pass but B*L limb rows."""
        basis = RnsBasis.generate(3, 24, 32)
        stack = plan_stack_for(basis.moduli, 32)
        tensor = np.stack(
            [
                np.stack(
                    [rng.integers(0, q, 32, dtype=np.uint64) for q in basis.moduli]
                )
                for _ in range(5)
            ]
        )
        reset_transform_counts()
        stack.inverse(tensor)
        counts = transform_counts()
        assert counts["inverse"] == 1
        assert counts["inverse_limbs"] == 5 * 3

    def test_plan_counts_rows(self, rng):
        basis = RnsBasis.generate(1, 24, 32)
        ring = PolyRing(degree=32, modulus=basis.moduli[0])
        batch = rng.integers(0, basis.moduli[0], (4, 32), dtype=np.uint64)
        reset_transform_counts()
        ring.ntt(batch)
        ring.ntt(batch[0])
        counts = transform_counts()
        assert counts["forward"] == 2
        assert counts["forward_limbs"] == 4 + 1

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_rung_books_one_pass_and_limb_rows(self, rng, backend, direction):
        """A stacked ``(B, L, N)`` pass books 1 pass + B*L rows on any rung."""
        basis = RnsBasis.generate(3, 24, 32)
        stack = NttPlanStack(basis.moduli, 32, backend=backend)
        tensor = np.stack(
            [
                np.stack(
                    [rng.integers(0, q, 32, dtype=np.uint64) for q in basis.moduli]
                )
                for _ in range(4)
            ]
        )
        getattr(stack, direction)(tensor)  # vet the rung outside the count
        reset_transform_counts()
        getattr(stack, direction)(tensor)
        counts = transform_counts()
        assert counts[direction] == 1
        assert counts[f"{direction}_limbs"] == 4 * 3
        other = "inverse" if direction == "forward" else "forward"
        assert counts[other] == counts[f"{other}_limbs"] == 0

    def test_reset_clears_all_keys(self):
        reset_transform_counts()
        counts = transform_counts()
        assert set(counts) == {
            "forward",
            "inverse",
            "forward_limbs",
            "inverse_limbs",
        }
        assert all(value == 0 for value in counts.values())
