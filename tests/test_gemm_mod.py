"""Exactness property tests for the shared split-float64 GEMM kernel.

`repro.poly.gemm_mod` is the one implementation behind BConv's block matmuls
and the NTT engine's four-step backend, so its exactness contract is tested
directly here: the fewest-chunks split choice, random word-sized moduli,
adversarial all-max operands that drive every dot product to the edge of the
float64 budget (and the Horner recombination toward 2**53), and the
division-free reduction algebra.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly.gemm_mod import (
    FLOAT64_EXACT_BITS,
    as_blas_operand,
    is_strict,
    lazy_reduce_into,
    modular_matmul,
    recombine,
    set_strict,
    split_gemm,
    split_halves,
    split_plan,
    split_shift,
    subtract_once,
    under_inverse,
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


class TestSplitPlan:
    """The shared fewest-chunks exactness choice (NTT tiles and BConv)."""

    def test_fewest_chunks_first(self):
        assert split_plan(28, 28, 64) == (14, 2)
        # 33-bit operands against 32-bit constants over 128 terms: two
        # 16-bit chunks overflow, three 11-bit chunks fit.
        assert split_plan(33, 32, 128) == (11, 3)
        assert split_plan(40, 40, 8) is None

    @pytest.mark.parametrize("modulus_bits", [20, 28, 30, 31, 32, 33, 36, 38, 39, 40])
    def test_never_returns_an_inexact_bconv_split(self, modulus_bits):
        """Over a grid of (operand bits, modulus bits, inner length), every
        split the chooser returns computes adversarial BConv products
        exactly: all-max operands against rows whose every chunk is at its
        maximum.  Where it returns ``None`` BConv takes its integer path."""
        modulus = (1 << modulus_bits) - 1  # width witness; exactness is width-based
        for operand_bits in (20, 28, 30, 31, 32, 33, 36, 40):
            for inner in (1, 2, 3, 8, 64, 1024):
                plan = split_plan(operand_bits, modulus_bits, inner)
                if plan is None:
                    ones = np.ones((1, inner), np.uint64)
                    assert split_gemm(ones, modulus, operand_bits) is None
                    continue
                shift, chunks = plan
                assert all(
                    split_shift(operand_bits, modulus_bits, inner, fewer) is None
                    for fewer in range(2, chunks)
                )
                low_chunks_max = (1 << (shift * (chunks - 1))) - 1
                matrix = np.array(
                    [[modulus - 1] * inner, [low_chunks_max % modulus] * inner],
                    dtype=np.uint64,
                )
                operand = np.full((inner, 2), (1 << operand_bits) - 1, dtype=np.uint64)
                column = np.full((2, 1), modulus, dtype=np.uint64)
                got = split_gemm(matrix, column, operand_bits)(operand)
                assert np.array_equal(got, _object_matmul(matrix, operand, modulus)), (
                    operand_bits, modulus_bits, inner, plan
                )


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
        matrix = rng.integers(0, modulus, (rows, inner), dtype=np.uint64)
        operand = rng.integers(0, modulus, (inner, cols), dtype=np.uint64)
        gemm = split_gemm(matrix, modulus, bits)
        if gemm is None:
            return
        assert np.array_equal(gemm(operand), _object_matmul(matrix, operand, modulus))

    @pytest.mark.parametrize("bits,inner", [(26, 1), (28, 64), (30, 128), (32, 16)])
    def test_adversarial_all_max_operands(self, bits, inner):
        """Every entry at q-1 drives the dot products to the budget edge and
        the Horner recombination toward ``2**53``."""
        modulus = (1 << bits) - 5
        matrix = np.full((4, inner), modulus - 1, dtype=np.uint64)
        gemm = split_gemm(matrix, modulus, bits)
        assert gemm is not None, "shape must be admissible for this test"
        operand = np.full((inner, 3), modulus - 1, dtype=np.uint64)
        assert np.array_equal(gemm(operand), _object_matmul(matrix, operand, modulus))

    def test_batched_operand_broadcasting(self, rng):
        modulus = (1 << 28) - 57
        matrix = rng.integers(0, modulus, (5, 8), dtype=np.uint64)
        operand = rng.integers(0, modulus, (3, 8, 7), dtype=np.uint64)
        got = split_gemm(matrix, modulus, 28)(operand)
        assert got.shape == (3, 5, 7)
        for batch in range(3):
            assert np.array_equal(
                got[batch], _object_matmul(matrix, operand[batch], modulus)
            )

    def test_row_blocks_stay_separate_gemm_slices(self, rng):
        """A ``(B, R', n)`` matrix runs as ``K B`` slices of ``R'`` rows, so no
        BLAS call grows with the chunk or block count; the product is the
        ``(B R', c)`` stack of the blocks' products."""
        modulus = (1 << 28) - 57
        blocks = rng.integers(0, modulus, (3, 11, 8), dtype=np.uint64)
        operand = rng.integers(0, modulus, (2, 8, 5), dtype=np.uint64)
        gemm = split_gemm(blocks, modulus, 28)
        assert gemm.cat.shape == (2 * 3, 11, 8)
        got = gemm(operand)
        assert got.shape == (2, 33, 5)
        for batch in range(2):
            expected = _object_matmul(blocks.reshape(33, 8), operand[batch], modulus)
            assert np.array_equal(got[batch], expected)

    def test_per_row_moduli_bconv_contract(self, rng):
        """BConv's form: operands are source residues, each output row
        reduces by its own target modulus."""
        source = (268369921, 268361729)
        target = (268271617, 268238849, 268217345)
        matrix = rng.integers(0, min(target), (3, 2), dtype=np.uint64)
        gemm = split_gemm(matrix, np.array(target, dtype=np.uint64)[:, None], 28)
        assert gemm is not None
        operand = np.stack(
            [rng.integers(0, q, 16, dtype=np.uint64) for q in source]
        )
        got = gemm(operand)
        for j, p in enumerate(target):
            assert np.array_equal(got[j], _object_matmul(matrix, operand, p)[j])

    def test_asymmetric_widths_take_three_chunks(self, rng):
        """Regression: narrow operands against a much wider target modulus
        satisfy the dot-product bound but overflow the float recombination
        of a two-way split; the chooser takes three chunks instead, and a
        target too wide for three refuses the split."""
        assert split_shift(18, 36, 4) is None
        assert split_plan(18, 36, 4) == (12, 3)
        modulus = (1 << 36) - 5
        matrix = np.full((2, 4), modulus - 1, dtype=np.uint64)
        operand = rng.integers(0, 1 << 18, (4, 5), dtype=np.uint64)
        got = split_gemm(matrix, modulus, 18)(operand)
        assert np.array_equal(got, _object_matmul(matrix, operand, modulus))
        assert split_gemm(matrix, (1 << 40) - 87, 18) is None

    def test_split_gemm_rejects_oversized(self):
        wide = (1 << 40) + 1
        assert split_gemm(np.ones((1, 1), dtype=np.uint64), wide, 41) is None


class TestLazyReduction:
    @given(
        bits=st.integers(4, 31),
        value_bits=st.integers(4, 53),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_lazy_window_and_congruence(self, bits, value_bits, seed):
        """The underestimating reciprocal lands every value in ``[0, 2q)``."""
        rng = np.random.default_rng(seed)
        modulus = int(rng.integers(1 << (bits - 1), 1 << bits)) | 1
        values = rng.integers(0, 1 << value_bits, 64, dtype=np.uint64)
        floats = values.astype(np.float64)
        q_f = np.float64(modulus)
        lazy_reduce_into(floats, q_f, under_inverse(q_f), np.empty_like(floats))
        assert np.all(floats >= 0)
        assert np.all(floats < 2 * modulus)
        reduced = floats.astype(np.uint64) % np.uint64(modulus)
        assert np.array_equal(reduced, values % np.uint64(modulus))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_recombine_then_subtract_once_is_canonical(self, seed):
        """Horner-recombining two row blocks and one conditional subtract
        give ``(hi * 2**shift + lo) mod q`` in ``[0, q)``."""
        rng = np.random.default_rng(seed)
        modulus = int(rng.integers(1 << 27, 1 << 28)) | 1
        blocks = rng.integers(0, 1 << 50, (2, 128), dtype=np.uint64)
        q_f = np.float64(modulus)
        gemm = blocks.astype(np.float64)
        acc = recombine(
            gemm, 1, np.float64(1 << 14), q_f, under_inverse(q_f), np.empty((1, 128))
        )
        got = acc.astype(np.uint64)
        subtract_once(got, np.uint64(modulus), np.empty_like(got))
        expected = [
            (int(hi) * (1 << 14) + int(lo)) % modulus for hi, lo in zip(*blocks)
        ]
        assert got.dtype == np.uint64
        assert np.all(got < modulus)
        assert got[0].tolist() == expected

    def test_exact_multiples_reduce_to_zero(self):
        modulus = (1 << 28) - 57
        values = (np.arange(1, 64, dtype=np.uint64) * np.uint64(modulus)).astype(
            np.float64
        )
        q_f = np.float64(modulus)
        lazy_reduce_into(values, q_f, under_inverse(q_f), np.empty_like(values))
        got = values.astype(np.uint64)
        subtract_once(got, np.uint64(modulus), np.empty_like(got))
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
        # A 31-bit modulus with a long inner dimension, and a 40-bit one
        # whose residue products overflow uint64: no exact split exists, so
        # the Python-int fallback must carry the result.
        for modulus, inner in (((1 << 31) - 1, 200), ((1 << 40) - 87, 5)):
            a = rng.integers(0, modulus, (4, inner), dtype=np.uint64)
            b = rng.integers(0, modulus, (inner, 4), dtype=np.uint64)
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
