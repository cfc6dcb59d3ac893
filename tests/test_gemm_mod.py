"""Exactness property tests for the shared split-float64 GEMM kernel.

`repro.poly.gemm_mod` is the one implementation behind BConv's block matmuls
and the NTT engine's four-step backend, so its exactness contract is tested
directly here: random word-sized moduli, adversarial all-max operands that
drive every dot product to the edge of the float64 budget (and the uint64
recombination toward 2**63), and the division-free reduction algebra.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly.gemm_mod import (
    FLOAT64_EXACT_BITS,
    as_blas_operand,
    canonical_from_lazy,
    is_strict,
    lazy_mod_reduce,
    modular_matmul,
    set_strict,
    split_halves,
    split_matmul,
    split_matrix,
    split_shift,
)
from repro.poly.modmat import modmatmul


def _object_matmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Python-int matmul oracle (no overflow by construction)."""
    result = a.astype(object) @ b.astype(object)
    return (result % modulus).astype(np.uint64)


class TestSplitShift:
    def test_budget_respected(self):
        # 28-bit operands/matrix over 64 terms: 28 + 14 + 6 = 48 <= 52.
        assert split_shift(28, 28, 64) == 14
        # 30-bit over 128 terms: 30 + 15 + 7 = 52, exactly at the budget.
        assert split_shift(30, 30, 128) == 15

    def test_over_budget_returns_none(self):
        assert split_shift(31, 31, 128) is None
        assert split_shift(53, 1, 1) is None

    def test_inner_length_one(self):
        assert split_shift(20, 20, 1) is not None

    def test_invalid_inner_length(self):
        with pytest.raises(ValueError):
            split_shift(10, 10, 0)

    @given(
        operand_bits=st.integers(1, 40),
        matrix_bits=st.integers(1, 40),
        inner=st.integers(1, 4096),
        chunks=st.integers(2, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_implies_exactness_bound(self, operand_bits, matrix_bits, inner, chunks):
        shift = split_shift(operand_bits, matrix_bits, inner, chunks)
        if shift is None:
            return
        assert shift * chunks >= matrix_bits  # every chunk is at most shift bits
        length_bits = max(1, inner - 1).bit_length()
        assert operand_bits + shift + length_bits <= FLOAT64_EXACT_BITS

    @pytest.mark.parametrize("chunks", [2, 3])
    def test_chunks_recombine_to_the_matrix(self, rng, chunks):
        matrix = rng.integers(0, (1 << 32) - 5, (4, 6), dtype=np.uint64)
        shift = split_shift(33, 32, 128, chunks)
        assert (shift is None) == (chunks == 2)  # two 16-bit chunks overflow
        shift = shift or 16
        parts = split_halves(matrix, shift, chunks)
        assert len(parts) == chunks
        total = sum(
            part.astype(np.uint64) << np.uint64(shift * (chunks - 1 - k))
            for k, part in enumerate(parts)
        )
        assert np.array_equal(total, matrix)


class TestSplitMatmulExactness:
    @given(
        bits=st.integers(8, 30),
        rows=st.integers(1, 12),
        inner=st.integers(1, 24),
        cols=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_word_sized_moduli(self, bits, rows, inner, cols, seed):
        rng = np.random.default_rng(seed)
        modulus = int(rng.integers(1 << (bits - 1), 1 << bits)) | 1
        if modulus <= 2:
            modulus = 3
        shift = split_shift(bits, bits, inner)
        if shift is None:
            return
        matrix = rng.integers(0, modulus, (rows, inner), dtype=np.uint64)
        operand = rng.integers(0, modulus, (inner, cols), dtype=np.uint64)
        hi, lo = split_halves(matrix, shift)
        got = split_matmul(shift, hi, lo, operand, np.uint64(modulus))
        assert np.array_equal(got, _object_matmul(matrix, operand, modulus))

    @pytest.mark.parametrize("bits,inner", [(26, 1), (28, 64), (30, 128), (32, 16)])
    def test_adversarial_all_max_operands(self, bits, inner):
        """Every entry at q-1 drives the dot products to the budget edge and
        the uint64 recombination ``(hi % q) << shift + lo`` toward 2**63."""
        modulus = (1 << bits) - 5
        shift = split_shift(bits, bits, inner)
        assert shift is not None, "shape must be admissible for this test"
        matrix = np.full((4, inner), modulus - 1, dtype=np.uint64)
        operand = np.full((inner, 3), modulus - 1, dtype=np.uint64)
        hi, lo = split_halves(matrix, shift)
        got = split_matmul(shift, hi, lo, operand, np.uint64(modulus))
        assert np.array_equal(got, _object_matmul(matrix, operand, modulus))

    def test_batched_operand_broadcasting(self, rng):
        modulus = (1 << 28) - 57
        matrix = rng.integers(0, modulus, (5, 8), dtype=np.uint64)
        operand = rng.integers(0, modulus, (3, 8, 7), dtype=np.uint64)
        shift = split_shift(28, 28, 8)
        hi, lo = split_halves(matrix, shift)
        got = split_matmul(shift, hi, lo, operand, np.uint64(modulus))
        assert got.shape == (3, 5, 7)
        for batch in range(3):
            assert np.array_equal(
                got[batch], _object_matmul(matrix, operand[batch], modulus)
            )

    def test_split_matrix_bconv_contract(self, rng):
        """The BConv-facing wrapper derives its budget from the two bases."""
        source = (268369921, 268361729)
        target = (268271617, 268238849, 268217345)
        matrix = rng.integers(0, min(target), (3, 2), dtype=np.uint64)
        shift, hi, lo = split_matrix(matrix, source, target)
        assert shift is not None
        operand = np.stack(
            [rng.integers(0, q, 16, dtype=np.uint64) for q in source]
        )
        got = split_matmul(
            shift, hi, lo, operand, np.array(target, dtype=np.uint64)[:, None]
        )
        for j, p in enumerate(target):
            assert np.array_equal(got[j], _object_matmul(matrix, operand, p)[j])

    def test_asymmetric_widths_rejected_by_recombination_bound(self):
        """Regression: narrow operands against a much wider target modulus
        satisfy the dot-product bound but overflow the float recombination
        ``hi_reduced * 2**shift + lo``; split_shift must refuse the split so
        callers keep their exact integer paths."""
        assert split_shift(18, 36, 4) is None
        source = ((1 << 18) - 5, (1 << 18) - 11)
        target = ((1 << 36) - 5,)
        shift, hi, lo = split_matrix(
            np.ones((1, 2), dtype=np.uint64), source, target
        )
        assert shift is None

    def test_split_matrix_rejects_oversized(self):
        wide = ((1 << 40) + 1,)
        shift, hi, lo = split_matrix(
            np.ones((1, 1), dtype=np.uint64), wide, wide
        )
        assert shift is None and hi is None and lo is None


class TestLazyReduction:
    @given(
        bits=st.integers(4, 31),
        value_bits=st.integers(4, 52),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_lazy_window_and_congruence(self, bits, value_bits, seed):
        rng = np.random.default_rng(seed)
        modulus = int(rng.integers(1 << (bits - 1), 1 << bits)) | 1
        values = rng.integers(0, 1 << value_bits, 64, dtype=np.uint64)
        floats = values.astype(np.float64)
        q_f = np.float64(modulus)
        lazy_mod_reduce(floats, q_f, np.float64(1.0) / q_f)
        assert np.all(floats > -modulus)
        assert np.all(floats < 2 * modulus)
        reduced = np.mod(floats.astype(np.int64), modulus).astype(np.uint64)
        assert np.array_equal(reduced, values % np.uint64(modulus))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_canonical_from_lazy(self, seed):
        rng = np.random.default_rng(seed)
        modulus = int(rng.integers(1 << 27, 1 << 28)) | 1
        values = rng.integers(0, 1 << 50, 128, dtype=np.uint64)
        got = canonical_from_lazy(
            values.astype(np.float64),
            np.float64(modulus),
            np.uint64(modulus),
            np.float64(1.0) / np.float64(modulus),
        )
        assert got.dtype == np.uint64
        assert np.all(got < modulus)
        assert np.array_equal(got, values % np.uint64(modulus))

    def test_exact_multiples_reduce_to_zero(self):
        modulus = (1 << 28) - 57
        values = (np.arange(1, 64, dtype=np.uint64) * np.uint64(modulus)).astype(
            np.float64
        )
        got = canonical_from_lazy(
            values,
            np.float64(modulus),
            np.uint64(modulus),
            np.float64(1.0) / np.float64(modulus),
        )
        assert np.all(got == 0)


class TestModularMatmulConvenience:
    def test_matches_chunked_kernel(self, rng):
        modulus = (1 << 28) - 57
        a = rng.integers(0, modulus, (9, 17), dtype=np.uint64)
        b = rng.integers(0, modulus, (17, 5), dtype=np.uint64)
        assert np.array_equal(
            modular_matmul(a, b, modulus), modmatmul(a, b, modulus)
        )

    def test_wide_modulus_falls_back_exactly(self, rng):
        # 31-bit modulus with a long inner dimension: no exact split exists,
        # so the chunked-integer fallback must carry the result.
        modulus = (1 << 31) - 1
        a = rng.integers(0, modulus, (4, 200), dtype=np.uint64)
        b = rng.integers(0, modulus, (200, 4), dtype=np.uint64)
        assert np.array_equal(
            modular_matmul(a, b, modulus), _object_matmul(a, b, modulus)
        )


class TestBlasStaging:
    def test_passthrough_when_staged(self, rng):
        staged = np.ascontiguousarray(rng.uniform(size=(4, 4)))
        assert as_blas_operand(staged) is staged

    def test_dtype_conversion_copies(self, rng):
        ints = rng.integers(0, 100, (4, 4), dtype=np.uint64)
        out = as_blas_operand(ints)
        assert out.dtype == np.float64 and out.flags.c_contiguous

    def test_strict_mode_flags_layout_copies(self, rng):
        previous = set_strict(True)
        try:
            assert is_strict()
            strided = np.ascontiguousarray(rng.uniform(size=(8, 8))).T
            with pytest.raises(AssertionError, match="layout copy"):
                as_blas_operand(strided, name="test operand")
            # dtype conversions of contiguous operands stay allowed
            ints = rng.integers(0, 100, (4, 4), dtype=np.uint64)
            assert as_blas_operand(ints).dtype == np.float64
        finally:
            set_strict(previous)

    def test_lax_mode_copies_silently(self, rng):
        previous = set_strict(False)
        try:
            strided = np.ascontiguousarray(rng.uniform(size=(8, 8))).T
            out = as_blas_operand(strided)
            assert out.flags.c_contiguous
            assert np.array_equal(out, strided)
        finally:
            set_strict(previous)

    def test_keep_dtype_staging(self, rng):
        ints = rng.integers(0, 100, (4, 4), dtype=np.uint64)
        assert as_blas_operand(ints, dtype=None) is ints

    def test_hot_paths_are_layout_clean(self, rng, monkeypatch):
        """BConv and the four-step backend never trigger a layout copy, on
        a whole basis or on a split ``Q_l·P`` viewing two row ranges of its
        chain's tables (one spanning cascade at N = 64, one per range at
        N = 4096)."""
        from repro.ckks.params import CkksParameters
        from repro.numtheory.crt import RnsBasis
        from repro.poly.basis_conversion import conversion_for
        from repro.poly.ntt_engine import plan_stack_for
        from repro.poly.rns_poly import basis_plan

        def residues(moduli, degree, lead=()):
            return np.stack(
                [rng.integers(0, q, (*lead, degree), dtype=np.uint64) for q in moduli],
                axis=-2,
            )

        splits = [
            CkksParameters.create(degree=degree, limbs=3, dnum=3).extended_basis(1)
            for degree in (64, 4096)
        ]
        monkeypatch.setenv("REPRO_NTT_BACKEND", "four_step")
        previous = set_strict(True)
        try:
            basis = RnsBasis.generate(3, 28, 64)
            target = RnsBasis.generate(2, 28, 64)
            conv = conversion_for(basis, target)
            conv.convert_residues(residues(basis.moduli, 64))
            plan_stack_for(basis.moduli, 64).forward(residues(basis.moduli, 64))
            for split in splits:
                stack = basis_plan(split)
                assert len(stack.ranges) == 2
                out = stack.forward(residues(split.moduli, split.degree, (2,)))
                # The output feeds split GEMMs (BConv, key products) as is.
                assert out.flags.c_contiguous
                assert stack.inverse(out).flags.c_contiguous
        finally:
            set_strict(previous)
