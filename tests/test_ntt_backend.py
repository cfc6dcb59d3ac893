"""Backend-dispatch and four-step GEMM tests for the NTT engine.

The engine fronts two bit-exact rungs (four_step, reference) behind one
dispatch layer.  This suite pins down

* cross-backend bit-exactness against the `ntt_reference` oracle over random
  rings across the full supported degree sweep (including hypothesis
  round-trips),
* the wide-modulus story: every ``q < 2**32`` rides four_step, on a
  three-chunk split where two chunks are not exact, and anything wider falls
  back to reference -- dispatch never selects an inexact backend,
* the env override surface,
* lazily built tables: concurrent first calls build them once, and
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
from repro.numtheory.modular import primitive_nth_root_of_unity
from repro.numtheory.primes import generate_ntt_prime
from repro.poly import ntt_engine
from repro.poly.fused_kernels import MODE_ENV
from repro.poly.gemm_mod import set_strict
from repro.poly.ntt_engine import (
    BACKEND_FOUR_STEP,
    BACKEND_REFERENCE,
    BACKENDS,
    MAX_PLAN_MODULUS,
    NttPlanStack,
    four_step_split,
    plan_stack_for,
    quarantine_backend,
    requested_backend,
    reset_transform_counts,
    supports,
    transform_counts,
)
from repro.poly.modmat import modmatmul
from repro.poly.ntt_reference import (
    negacyclic_evaluate_direct,
    ntt_forward_negacyclic,
    ntt_inverse_negacyclic,
)
from repro.poly.ring import PolyRing
from repro.poly.rns_poly import basis_plan

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

    def test_large_degree_shapes(self):
        assert four_step_split(2**16) == (256, 256)
        assert four_step_split(2**13) == (128, 64)
        assert four_step_split(2**12) == (64, 64)

    def test_small_degree_shapes(self):
        assert four_step_split(64) == (8, 8)
        assert four_step_split(128) == (16, 8)


#: (n1, n2) tiles, square and skewed both ways; ``four_step_matrices`` takes
#: any factorisation of ``N``, not only the one ``four_step_split`` picks.
FOUR_STEP_TILES = [(4, 8), (8, 4), (16, 16), (2, 32)]


def _four_step_setup(rows, cols):
    degree = rows * cols
    q = generate_ntt_prime(28, degree)
    psi = primitive_nth_root_of_unity(2 * degree, q)
    mats = ntt_engine.four_step_matrices((q,), (psi,), degree, rows, cols)
    return q, psi, [m[0] for m in mats]


class TestFourStepMatrices:
    """The six matrices, run as column GEMM -> transpose -> twist -> row GEMM
    with plain modular products, are the negacyclic NTT and its inverse."""

    @pytest.mark.parametrize("rows,cols", FOUR_STEP_TILES)
    def test_transpose_factorisation_matches_direct(self, rows, cols, rng):
        q, psi, (m1, tw, m4, _, _, _) = _four_step_setup(rows, cols)
        a = rng.integers(0, q, size=rows * cols, dtype=np.uint64)
        columns = modmatmul(m1, a.reshape(rows, cols), q)
        twisted = (columns.T * tw) % np.uint64(q)
        out = modmatmul(m4, twisted, q).reshape(-1)
        assert np.array_equal(out, negacyclic_evaluate_direct(a, q, psi))

    @pytest.mark.parametrize("rows,cols", FOUR_STEP_TILES)
    def test_inverse_matrices_undo_forward(self, rows, cols, rng):
        q, psi, (_, _, _, m4_inv, tw_inv, m1_inv) = _four_step_setup(rows, cols)
        a = rng.integers(0, q, size=rows * cols, dtype=np.uint64)
        evaluations = negacyclic_evaluate_direct(a, q, psi).reshape(cols, rows)
        rows_back = modmatmul(m4_inv, evaluations, q)
        untwisted = (rows_back * tw_inv) % np.uint64(q)
        back = modmatmul(m1_inv, untwisted.T, q).reshape(-1)
        assert np.array_equal(back, a)


#: Every dense-tile degree and the near-square ones up to twice the cap.
DENSE_DEGREES = [
    1 << k for k in range(2, (2 * ntt_engine.DENSE_MAX_DEGREE).bit_length())
]


def _chain_of(bits, degree, count):
    """``count`` distinct ``bits``-bit NTT primes for ``degree``."""
    moduli, below = [], None
    for _ in range(count):
        below = generate_ntt_prime(bits, degree, below=below)
        moduli.append(below)
    return tuple(moduli)


def _oracle(matrix, moduli, psis, forward):
    """The reference transform of every ``(..., L, N)`` row."""
    transform = ntt_forward_negacyclic if forward else ntt_inverse_negacyclic
    out = np.empty_like(matrix)
    for index in np.ndindex(*matrix.shape[:-2]):
        for limb, (q, psi) in enumerate(zip(moduli, psis)):
            out[(*index, limb)] = transform(matrix[(*index, limb)], q, psi)
    return out


def _assert_matches_oracle(stack, matrix):
    forward = stack.forward(matrix)
    assert np.array_equal(forward, _oracle(matrix, stack.moduli, stack.psis, True))
    inverse = stack.inverse(matrix)
    assert np.array_equal(inverse, _oracle(matrix, stack.moduli, stack.psis, False))
    assert np.array_equal(stack.inverse(forward), matrix)


class TestDenseTile:
    """Up to ``DENSE_MAX_DEGREE`` the GEMM rung runs the ``(N, 1)`` tile, one
    split ``(N, N)`` GEMM; above it the near-square tile.  Both sides of the
    cap agree with the reference oracle on every path an operand takes.
    The stacks pin ``four_step``, so a ``reference``-pinned run tests it too."""

    def test_tile_switches_at_the_cap(self):
        for degree in DENSE_DEGREES:
            dense = degree <= ntt_engine.DENSE_MAX_DEGREE
            expected = (degree, 1) if dense else four_step_split(degree)
            assert ntt_engine._tile(degree) == expected

    @pytest.mark.parametrize("bits", [28, 30, 31, 32])
    @pytest.mark.parametrize("degree", DENSE_DEGREES)
    def test_folded_stacked_operands(self, rng, degree, bits):
        moduli = _chain_of(bits, degree, 3)
        stack = NttPlanStack(moduli, degree, BACKEND_FOUR_STEP)
        assert stack.resolve_backend() == BACKEND_FOUR_STEP
        _assert_matches_oracle(stack, _random_matrix(rng, moduli, degree, (2, 3)))

    @pytest.mark.parametrize("bits", [28, 30, 31, 32])
    @pytest.mark.parametrize("degree", DENSE_DEGREES)
    def test_limb_subset_with_a_gap(self, rng, degree, bits):
        """Chain rows 0, 1 and 3: one cascade spans the gap row."""
        moduli = _chain_of(bits, degree, 4)
        chain = NttPlanStack(moduli, degree)
        view = NttPlanStack(
            moduli[:2] + moduli[3:], degree, BACKEND_FOUR_STEP, chain=chain
        )
        assert len(view.ranges) == 2
        assert degree <= ntt_engine._SPAN_GAP_COEFFS
        _assert_matches_oracle(view, _random_matrix(rng, view.moduli, degree, (2,)))

    @pytest.mark.parametrize("bits", [28, 30, 31, 32])
    @pytest.mark.parametrize("degree", DENSE_DEGREES)
    def test_strict_mode(self, rng, degree, bits, monkeypatch):
        """Strict GEMM operands and a spot check on every pass."""
        monkeypatch.setenv("REPRO_NTT_SPOT_STRIDE", "1")
        moduli = _chain_of(bits, degree, 2)
        stack = NttPlanStack(moduli, degree, BACKEND_FOUR_STEP)
        previous = set_strict(True)
        try:
            _assert_matches_oracle(stack, _random_matrix(rng, moduli, degree, (3,)))
            _assert_matches_oracle(stack, _random_matrix(rng, moduli, degree))
        finally:
            set_strict(previous)
        assert not ntt_engine.quarantined_backends()


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

    @pytest.mark.parametrize(
        "bits, degree",
        [
            (bits, degree)
            for bits in (28, 29, 30, 31, 32)
            for degree in (64, 1024, 4096, 2**13, 2**14)
        ]
        + [(29, 2**15)],
    )
    def test_exactness_grid(self, rng, bits, degree):
        """Every limb width up to 32 bits at every degree: four_step is what
        ``warm()`` settles on, bit-exact forward and inverse on a stacked
        operand (two chunks or three, whichever the cell needs)."""
        q = generate_ntt_prime(bits, degree)
        stack = NttPlanStack((q,), degree, backend=BACKEND_FOUR_STEP)
        assert stack.warm() == BACKEND_FOUR_STEP
        x = _random_matrix(rng, (q,), degree, (2,))
        x[1, 0] = q - 1  # the all-max row drives every dot product to its edge
        fwd, inv = stack.forward(x), stack.inverse(x)
        for row in range(2):
            assert np.array_equal(
                fwd[row, 0], ntt_forward_negacyclic(x[row, 0], q, stack.psis[0])
            )
            assert np.array_equal(
                inv[row, 0], ntt_inverse_negacyclic(x[row, 0], q, stack.psis[0])
            )

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
        assert np.array_equal(outputs[BACKEND_FOUR_STEP], outputs[BACKEND_REFERENCE])

    @given(
        log_degree=st.integers(4, 13),
        bits=st.integers(14, 32),
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
        assert supports((q,), degree)
        stack = NttPlanStack((q,), degree)
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
        assert supports((narrow, wide), degree)
        matrix = _random_matrix(rng, (narrow, wide), degree)
        got = stack.forward(matrix)
        for i, q in enumerate((narrow, wide)):
            assert np.array_equal(
                got[i], ntt_forward_negacyclic(matrix[i], q, stack.psis[i])
            ), q
        assert np.array_equal(stack.inverse(got), matrix)

    @pytest.mark.parametrize("degree", [2**13, 2**14])
    def test_mixed_width_three_chunk_stack_bit_exact(self, rng, degree):
        """A chain whose widest limb needs three chunks splits its narrow
        limbs into three as well, bit-exact on every row."""
        moduli = (generate_ntt_prime(28, degree), generate_ntt_prime(32, degree))
        stack = NttPlanStack(moduli, degree, backend=BACKEND_FOUR_STEP)
        assert stack.warm() == BACKEND_FOUR_STEP
        matrix = _random_matrix(rng, moduli, degree, (2,))
        expected = NttPlanStack(moduli, degree, backend=BACKEND_REFERENCE)
        assert np.array_equal(stack.forward(matrix), expected.forward(matrix))
        assert np.array_equal(stack.inverse(matrix), expected.inverse(matrix))

    def test_unsupported_ring_refuses(self):
        """Beyond ``N = 2**16`` no split of a 32-bit limb is exact: the stack
        and the four-step tables both refuse, typed."""
        modulus = (1 << 32) - 5
        assert not supports((modulus,), 2**17)
        with pytest.raises(ParameterError):
            NttPlanStack((modulus,), 2**17)
        with pytest.raises(ParameterError):
            ntt_engine._FourStepStack((modulus,), (1,), 2**17)

    @given(
        log_degree=st.integers(4, 12),
        bits=st.integers(14, 32),
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


class TestLazyTables:
    def test_concurrent_first_calls_build_the_tables_once(self, rng, monkeypatch):
        """Eight concurrent first calls on a fresh stack build its four-step
        tables once, and every output is bit-exact."""
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        basis = RnsBasis.generate(3, 28, 256)
        matrix = _random_matrix(rng, basis.moduli, 256, (2,))
        expected = NttPlanStack(
            basis.moduli, 256, backend=BACKEND_REFERENCE
        ).forward(matrix)
        stack = NttPlanStack(basis.moduli, 256)
        assert stack._four_step is None
        original = ntt_engine._FourStepStack
        built = []

        def counted_build(*args):
            built.append(1)
            return original(*args)

        monkeypatch.setattr(ntt_engine, "_FourStepStack", counted_build)
        barrier = threading.Barrier(8)
        outputs, errors = [], []

        def worker():
            try:
                barrier.wait(timeout=10.0)
                outputs.append(stack.forward(matrix))
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
        assert np.array_equal(stack.inverse(expected), matrix)


class TestWideModulusDispatch:
    def test_wide_modulus_small_degree_uses_four_step(self, rng, monkeypatch):
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        prime = generate_ntt_prime(31, 64)
        assert prime >= 1 << 30
        assert supports((prime,), 64)
        plan = plan_stack_for((prime,), 64)
        assert plan.resolve_backend() == BACKEND_FOUR_STEP
        x = _random_matrix(rng, (prime,), 64)
        assert np.array_equal(
            plan.forward(x)[0], ntt_forward_negacyclic(x[0], prime, plan.psis[0])
        )
        assert np.array_equal(plan.inverse(plan.forward(x)), x)

    @pytest.mark.parametrize(
        "bits, degree, below",
        [
            (29, 2**15, [2, 2]),
            (30, 2**13, [2, 2]),
            (31, 2**9, [2, 2]),
            # N = 64 runs the dense (64, 1) tile: a 64-long GEMM at 32 bits
            # needs three chunks, its unit second GEMM two.
            (32, 2**7, [3, 2]),
        ],
    )
    def test_three_chunks_where_two_are_inexact(self, bits, degree, below):
        """The first near-square ``(bits, N)`` cell where a 2-way split is
        inexact takes three chunks (column GEMM first, row GEMM second); the
        cell below keeps two unless its tile's GEMM is longer."""
        modulus = (1 << bits) - 1
        splits = ntt_engine._split_shifts(degree, (modulus,))
        assert [count for _, count in splits] == [3, 2]
        below_splits = ntt_engine._split_shifts(degree // 2, (modulus,))
        assert [count for _, count in below_splits] == below

    def test_twenty_eight_bit_chains_keep_two_chunks(self):
        for degree in SWEEP_DEGREES + [2**14, 2**16]:
            splits = ntt_engine._split_shifts(degree, ((1 << 28) - 57,))
            assert [chunks for _, chunks in splits] == [2, 2], degree

    def test_modulus_past_the_word_falls_back_to_reference(self):
        """A modulus past the word gets no stack, even pinned to four_step:
        its basis runs the caller-side reference path."""
        wide = MAX_PLAN_MODULUS + 15
        assert not supports((wide,), 64)
        with pytest.raises(ParameterError):
            NttPlanStack((wide,), 64, backend=BACKEND_FOUR_STEP)
        assert basis_plan(RnsBasis(moduli=(wide,), degree=64)) is None

    @pytest.mark.parametrize("log_degree", range(2, 14))
    @pytest.mark.parametrize("bits", [20, 28, 30, 31, 32, 33])
    def test_dispatch_never_selects_inexact_backend(self, log_degree, bits):
        """Every (degree, width) cell where four_step is inexact refuses a
        stack on any pin, so dispatch never meets an inexact rung."""
        degree = 1 << log_degree
        modulus = (1 << bits) - 1  # width witness; exactness is width-based
        if supports((modulus,), degree):
            return  # stacks here are four_step-exact (test_exactness_grid)
        for backend in (None,) + BACKENDS:
            with pytest.raises(ParameterError):
                NttPlanStack((modulus,), degree, backend=backend)


class TestDispatchOverrides:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_NTT_BACKEND", "reference")
        assert requested_backend() == BACKEND_REFERENCE
        assert plan_stack_for((7681,), 64).resolve_backend() == BACKEND_REFERENCE

    def test_unpinned_means_four_step(self, monkeypatch):
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        assert requested_backend() == BACKEND_FOUR_STEP
        assert plan_stack_for((7681,), 64).resolve_backend() == BACKEND_FOUR_STEP

    @pytest.mark.parametrize("value", ["warp-drive", "fused", "butterfly", "auto"])
    def test_env_override_invalid_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NTT_BACKEND", value)
        with pytest.raises(ParameterError):
            requested_backend()
        with pytest.raises(ParameterError):
            plan_stack_for((7681,), 64).resolve_backend()

    @pytest.mark.parametrize("name", ["nonsense", "fused"])
    def test_quarantine_rejects_unknown_backend(self, name):
        with pytest.raises(ParameterError):
            quarantine_backend(name, reason="drill")

    @pytest.mark.parametrize("bogus", ["bogus", "fused", "butterfly", "auto"])
    def test_plan_backend_attribute_pins(self, rng, bogus):
        basis = RnsBasis.generate(1, 24, 64)
        plan = NttPlanStack(basis.moduli, 64, backend=BACKEND_REFERENCE)
        assert plan.resolve_backend() == BACKEND_REFERENCE
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
