"""Tests for the Basis-Aligned Transformation matrix path (paper Alg. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bat import (
    bat_modmatmul_left_known,
    bat_modmatmul_right_known,
    compile_left_operand,
    compile_right_operand,
    direct_scalar_bat,
    expand_runtime_left,
    expand_runtime_right,
)
from repro.core.chunks import chunk_decompose
from repro.numtheory.primes import generate_ntt_prime
from repro.poly.modmat import modmatmul

Q = generate_ntt_prime(28, 4096)


class TestDirectScalarBat:
    def test_block_encodes_shifted_values(self):
        value = 0x0ABCDEF1 % Q
        block = direct_scalar_bat(value, Q)
        for j in range(4):
            expected = chunk_decompose((value << (8 * j)) % Q, 4)
            assert np.array_equal(block[:, j], expected)

    def test_all_entries_are_bytes(self, rng):
        for _ in range(20):
            block = direct_scalar_bat(int(rng.integers(0, Q)), Q)
            assert int(block.max()) <= 255

    def test_reconstructs_product(self, rng):
        """sum_i (block @ chunks(b))_i * 2^(8i) == a*b (mod q)."""
        for _ in range(20):
            a = int(rng.integers(0, Q))
            b = int(rng.integers(0, Q))
            block = direct_scalar_bat(a, Q)
            b_chunks = chunk_decompose(b, 4)
            partial = block.astype(np.int64) @ b_chunks.astype(np.int64)
            merged = sum(int(partial[i]) << (8 * i) for i in range(4))
            assert merged % Q == (a * b) % Q

    def test_zero_value(self):
        assert np.all(direct_scalar_bat(0, Q) == 0)

    @given(
        a=st.integers(min_value=0, max_value=Q - 1),
        b=st.integers(min_value=0, max_value=Q - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_bat_exact(self, a, b):
        partial = direct_scalar_bat(a, Q).astype(object) @ chunk_decompose(b, 4).astype(object)
        merged = sum(int(partial[i]) << (8 * i) for i in range(4))
        assert merged % Q == (a * b) % Q

    def test_compiled_sizes_match_paper_claim(self, rng):
        """Fig. 7: the K x K block is dense; the Toeplitz form is (2K-1) x K,
        12 of its 28 entries structurally zero."""
        k = 4
        blocks = [direct_scalar_bat(int(rng.integers(1, Q)), Q) for _ in range(50)]
        assert all(block.shape == (k, k) for block in blocks)
        zeros = sum(int(np.count_nonzero(block == 0)) for block in blocks)
        assert zeros / (50 * k * k) < 0.05
        assert (k * k) / ((2 * k - 1) * k) == pytest.approx(4 / 7)


class TestCompiledOperands:
    def test_left_plan_shape_and_dtype_range(self, rng):
        matrix = rng.integers(0, Q, size=(3, 5), dtype=np.uint64)
        plan = compile_left_operand(matrix, Q)
        assert plan.compiled.shape == (12, 20)
        assert int(plan.compiled.max()) <= 255
        assert plan.side == "left"

    def test_right_plan_shape(self, rng):
        matrix = rng.integers(0, Q, size=(5, 3), dtype=np.uint64)
        plan = compile_right_operand(matrix, Q)
        assert plan.compiled.shape == (20, 12)
        assert plan.side == "right"

    def test_accumulator_bits_bound(self, rng):
        matrix = rng.integers(0, Q, size=(4, 256), dtype=np.uint64)
        plan = compile_left_operand(matrix, Q)
        # 2*8 + log2(4*256) = 26 bits: fits the MXU's 32-bit accumulators.
        assert plan.accumulator_bits <= 32

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            compile_left_operand(np.zeros(4, dtype=np.uint64), Q)
        with pytest.raises(ValueError):
            compile_right_operand(np.zeros(4, dtype=np.uint64), Q)

    def test_runtime_expansion_shapes(self, rng):
        matrix = rng.integers(0, Q, size=(5, 3), dtype=np.uint64)
        left_plan = compile_left_operand(matrix.T.copy(), Q)
        expanded_right = expand_runtime_right(matrix, left_plan)
        assert expanded_right.shape == (20, 3)
        right_plan = compile_right_operand(matrix, Q)
        expanded_left = expand_runtime_left(matrix.T.copy(), right_plan)
        assert expanded_left.shape == (3, 20)

    def test_wrong_side_rejected(self, rng):
        matrix = rng.integers(0, Q, size=(3, 3), dtype=np.uint64)
        left_plan = compile_left_operand(matrix, Q)
        right_plan = compile_right_operand(matrix, Q)
        with pytest.raises(ValueError):
            bat_modmatmul_right_known(matrix, left_plan)
        with pytest.raises(ValueError):
            bat_modmatmul_left_known(right_plan, matrix)


class TestBatMatmulEquivalence:
    @pytest.mark.parametrize("reduction", ["exact", "barrett", "montgomery"])
    @pytest.mark.parametrize("known", ["left", "right"])
    def test_matches_reference(self, reduction, known, rng):
        a = rng.integers(0, Q, size=(6, 9), dtype=np.uint64)
        b = rng.integers(0, Q, size=(9, 7), dtype=np.uint64)
        expected = modmatmul(a, b, Q)
        if known == "left":
            plan = compile_left_operand(a, Q, reduction=reduction)
            result = bat_modmatmul_left_known(plan, b)
        else:
            plan = compile_right_operand(b, Q, reduction=reduction)
            result = bat_modmatmul_right_known(a, plan)
        assert np.array_equal(result, expected)

    def test_reusing_a_compiled_plan(self, rng):
        """One offline compilation serves many runtime operands (the BAT point)."""
        twiddles = rng.integers(0, Q, size=(8, 8), dtype=np.uint64)
        plan = compile_left_operand(twiddles, Q, reduction="montgomery")
        for _ in range(5):
            data = rng.integers(0, Q, size=(8, 4), dtype=np.uint64)
            assert np.array_equal(
                bat_modmatmul_left_known(plan, data), modmatmul(twiddles, data, Q)
            )

    def test_large_inner_dimension_accumulator(self, rng):
        """KV = 1024 keeps the accumulator below 32 bits and stays exact."""
        a = rng.integers(0, Q, size=(2, 256), dtype=np.uint64)
        b = rng.integers(0, Q, size=(256, 3), dtype=np.uint64)
        plan = compile_left_operand(a, Q)
        assert plan.accumulator_bits <= 32
        assert np.array_equal(bat_modmatmul_left_known(plan, b), modmatmul(a, b, Q))

    def test_identity_matrix(self, rng):
        identity = np.eye(5, dtype=np.uint64)
        b = rng.integers(0, Q, size=(5, 5), dtype=np.uint64)
        plan = compile_left_operand(identity, Q)
        assert np.array_equal(bat_modmatmul_left_known(plan, b), b)

    def test_matvec_shape(self, rng):
        a = rng.integers(0, Q, size=(4, 4), dtype=np.uint64)
        b = rng.integers(0, Q, size=(4, 1), dtype=np.uint64)
        assert bat_modmatmul_left_known(compile_left_operand(a, Q), b).shape == (4, 1)

    @given(
        h=st.integers(min_value=1, max_value=5),
        v=st.integers(min_value=1, max_value=6),
        w=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_shapes(self, h, v, w, seed):
        local_rng = np.random.default_rng(seed)
        a = local_rng.integers(0, Q, size=(h, v), dtype=np.uint64)
        b = local_rng.integers(0, Q, size=(v, w), dtype=np.uint64)
        plan = compile_left_operand(a, Q)
        assert np.array_equal(bat_modmatmul_left_known(plan, b), modmatmul(a, b, Q))

    def test_unknown_reduction_rejected(self, rng):
        a = rng.integers(0, Q, size=(2, 2), dtype=np.uint64)
        b = rng.integers(0, Q, size=(2, 2), dtype=np.uint64)
        plan = compile_left_operand(a, Q)
        object.__setattr__(plan, "reduction", "bogus")
        with pytest.raises(ValueError):
            bat_modmatmul_left_known(plan, b)
