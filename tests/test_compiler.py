"""Tests for the CROSS compiler (HE kernel -> device op lowering)."""

import pytest

from repro.core.compiler import MODRED_VPU_OPS, CompilerOptions, CrossCompiler
from repro.core.config import PARAMETER_SETS
from repro.core.kernel_ir import Category, MatMulOp, PermuteOp, TypeConvertOp, VectorOp

SET_A = PARAMETER_SETS["A"]
SET_D = PARAMETER_SETS["D"]


@pytest.fixture(scope="module")
def cross():
    return CrossCompiler(SET_D, CompilerOptions.cross_default())


@pytest.fixture(scope="module")
def baseline():
    return CrossCompiler(SET_D, CompilerOptions.gpu_baseline())


class TestOptions:
    def test_defaults(self):
        options = CompilerOptions.cross_default()
        assert options.use_bat and options.use_mat
        assert options.ntt_algorithm == "three_step"
        assert options.modred == "montgomery"

    def test_gpu_baseline(self):
        options = CompilerOptions.gpu_baseline()
        assert not options.use_bat and not options.use_mat
        assert options.ntt_algorithm == "four_step"
        assert options.sparse_fallback

    def test_with_modred(self):
        options = CompilerOptions.cross_default().with_modred("barrett")
        assert options.modred == "barrett"
        assert options.use_bat  # other fields preserved

    def test_all_modred_costs_defined(self):
        for name in ("montgomery", "barrett", "shoup", "bat_lazy"):
            assert MODRED_VPU_OPS[name] > 0
        assert MODRED_VPU_OPS["montgomery"] < MODRED_VPU_OPS["barrett"] < MODRED_VPU_OPS["shoup"]


class TestPrimitives:
    def test_chunk_count(self, cross):
        assert cross.chunk_count == 4

    def test_tile_shape(self, cross):
        assert cross.ntt_tile_shape() == (128, 512)
        assert cross.ntt_tile_shape(2**12) == (128, 32)

    def test_small_degree_tile_is_squarish(self, cross):
        """Below two lane widths the tile stops pinning R to the lane count."""
        assert cross.ntt_tile_shape(64) == (8, 8)
        assert cross.ntt_tile_shape(128) == (8, 16)
        assert cross.ntt_tile_shape(256) == (128, 2)

    def test_modred_ops_follow_the_option(self):
        for name, cost in MODRED_VPU_OPS.items():
            compiler = CrossCompiler(SET_D, CompilerOptions.cross_default().with_modred(name))
            assert compiler.modred_ops == cost

    def test_vec_mod_sub_prices_like_add(self, cross):
        sub = cross.vec_mod_sub(limbs=2, batch=3)
        add = cross.vec_mod_add(limbs=2, batch=3)
        assert sub.name == "vecmodsub"
        assert sub.total_vector_ops == add.total_vector_ops > 0

    def test_vecmodmul_elements(self, cross):
        graph = cross.vec_mod_mul(limbs=3, batch=2)
        ops = [op for op in graph.ops if isinstance(op, VectorOp)]
        assert ops[0].elements == SET_D.degree * 3 * 2

    def test_vecmodmul_bat_lazy_emits_matmul(self):
        compiler = CrossCompiler(SET_D, CompilerOptions.cross_default().with_modred("bat_lazy"))
        graph = compiler.vec_mod_mul(limbs=1)
        assert graph.count(MatMulOp) == 1
        assert graph.count(TypeConvertOp) == 1

    def test_vec_add_cheaper_than_mul(self, cross):
        mul_ops = cross.vec_mod_mul(limbs=1).total_vector_ops
        add_ops = cross.vec_mod_add(limbs=1).total_vector_ops
        assert add_ops < mul_ops


class TestNttLowering:
    def test_three_step_uses_mxu_and_no_permutes(self, cross):
        graph = cross.ntt(limbs=1)
        matmuls = [op for op in graph.ops if isinstance(op, MatMulOp)]
        assert len(matmuls) == 2
        assert all(op.operand_bits == 8 for op in matmuls)
        # MAT removes every runtime transpose / bit-reverse.
        permutes = [
            op for op in graph.ops
            if isinstance(op, PermuteOp) and op.category == Category.PERMUTATION
        ]
        assert permutes == []

    def test_four_step_baseline_has_explicit_reordering(self, baseline):
        graph = baseline.ntt(limbs=1)
        permutes = [
            op for op in graph.ops
            if isinstance(op, PermuteOp) and op.category == Category.PERMUTATION
        ]
        assert len(permutes) == 2  # transpose + bit-reverse

    def test_sparse_baseline_matmuls_are_larger(self, cross, baseline):
        cross_macs = cross.ntt(limbs=1).total_macs
        baseline_macs = baseline.ntt(limbs=1).total_macs
        assert baseline_macs > cross_macs
        # The sparse Toeplitz expansion is (2K-1)/K = 7/4 bigger on one side.
        assert baseline_macs / cross_macs == pytest.approx(7 / 4, rel=0.05)

    def test_radix2_lowering(self):
        compiler = CrossCompiler(SET_A, CompilerOptions.vpu_only_baseline())
        graph = compiler.ntt(limbs=1)
        assert graph.count(MatMulOp) == 0
        stages = SET_A.degree.bit_length() - 1
        assert graph.count(PermuteOp) == stages

    def test_intt_has_final_scaling(self, cross):
        ntt_ops = len(cross.ntt(limbs=1).ops)
        intt_ops = len(cross.ntt(limbs=1, inverse=True).ops)
        assert intt_ops == ntt_ops + 1

    def test_intt_category(self, cross):
        graph = cross.ntt(limbs=1, inverse=True)
        matmuls = [op for op in graph.ops if isinstance(op, MatMulOp)]
        assert all(op.category == Category.INTT_MATMUL for op in matmuls)

    def test_batch_scales_work(self, cross):
        single = cross.ntt(limbs=1, batch=1).total_macs
        batched = cross.ntt(limbs=1, batch=8).total_macs
        assert batched == 8 * single


class TestBConvLowering:
    def test_bat_bconv_dimensions(self, cross):
        graph = cross.bconv(limbs_in=12, limbs_out=28)
        matmul = next(op for op in graph.ops if isinstance(op, MatMulOp))
        assert matmul.operand_bits == 8
        assert matmul.m == 4 * 28 and matmul.k == 4 * 12 and matmul.n == SET_D.degree

    def test_baseline_bconv_runs_on_vpu(self):
        compiler = CrossCompiler(
            SET_D, CompilerOptions(use_bat=False, use_mat=True, sparse_fallback=False)
        )
        graph = compiler.bconv(limbs_in=12, limbs_out=28)
        matmul = next(op for op in graph.ops if isinstance(op, MatMulOp))
        assert matmul.operand_bits == 32

    def test_bconv_step1_always_present(self, cross):
        graph = cross.bconv(limbs_in=4, limbs_out=8)
        assert any("step1" in op.name for op in graph.ops)


class TestOperators:
    def test_operator_dispatch(self, cross):
        for name in ("he_add", "he_mult", "rescale", "rotate"):
            assert cross.operator(name).ops

    def test_unknown_operator(self, cross):
        with pytest.raises(KeyError):
            cross.operator("bootstrap")

    def test_he_add_is_tiny(self, cross):
        assert len(cross.he_add().ops) == 1

    def test_he_mult_contains_keyswitch(self, cross):
        names = [op.name for op in cross.he_mult().ops]
        assert any("relin" in name for name in names)
        assert any("tensor-product" in name for name in names)

    def test_rotate_contains_automorphism_gather(self, cross):
        graph = cross.rotate()
        gathers = [
            op for op in graph.ops
            if isinstance(op, PermuteOp) and op.category == Category.AUTOMORPHISM
        ]
        assert len(gathers) == 1
        assert gathers[0].pattern == "gather"

    def test_keyswitch_digit_count(self, cross):
        graph = cross.key_switch()
        digit_bconvs = [op for op in graph.ops if "digit" in op.name and "bconv" in op.name]
        # One BConv step-2 matmul per digit (dnum = 3).
        assert len([op for op in digit_bconvs if isinstance(op, MatMulOp)]) == SET_D.dnum

    def test_level_parameter_shrinks_work(self, cross):
        full = cross.he_mult(limbs=51).total_vector_ops
        half = cross.he_mult(limbs=24).total_vector_ops
        assert half < full

    def test_parameter_load(self, cross):
        graph = cross.parameter_load(1 << 20)
        assert graph.ops[0].bytes_moved == 1 << 20
