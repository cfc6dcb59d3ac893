"""Tests for the simulated TPU: specs, functional units, memory, device model."""

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, CrossCompiler
from repro.core.config import PARAMETER_SETS
from repro.core.kernel_ir import (
    Category,
    Engine,
    KernelGraph,
    MatMulOp,
    MemoryOp,
    PermuteOp,
    TypeConvertOp,
    VectorOp,
)
from repro.tpu import (
    COMPARISON_DEVICES,
    TPU_TENSOR_CORES,
    CostModelConfig,
    CrossLaneUnit,
    MatrixUnit,
    MemoryHierarchy,
    MxuPrecisionError,
    TensorCoreDevice,
    TpuVirtualMachine,
    VectorUnit,
    tensor_core,
)
from repro.tpu.trace import ExecutionTrace, TraceEvent


class TestSpecs:
    def test_all_generations_present(self):
        assert set(TPU_TENSOR_CORES) == {"TPUv4", "TPUv5e", "TPUv5p", "TPUv6e"}

    def test_monotonic_compute(self):
        ordered = ["TPUv4", "TPUv5e", "TPUv5p", "TPUv6e"]
        peaks = [TPU_TENSOR_CORES[g].mxu_ops_per_second for g in ordered]
        assert peaks == sorted(peaks)

    def test_v6e_has_larger_mxu(self):
        assert TPU_TENSOR_CORES["TPUv6e"].mxu_systolic_dim == 256
        assert TPU_TENSOR_CORES["TPUv4"].mxu_systolic_dim == 128

    def test_vreg_size_is_4kb(self):
        assert tensor_core("TPUv4").vreg_bytes == 4096

    def test_vpu_throughput_formula(self):
        spec = tensor_core("TPUv4")
        assert spec.vpu_ops_per_second == 128 * 8 * 2 * spec.clock_hz

    def test_unknown_generation(self):
        with pytest.raises(KeyError):
            tensor_core("TPUv99")

    def test_comparison_devices(self):
        assert COMPARISON_DEVICES["NVIDIA A100"].tdp_watts == 400
        assert COMPARISON_DEVICES["AMD Alveo U280"].category == "FPGA"

    def test_fig5_ai_asics_most_efficient(self):
        """Fig. 5 claim: AI ASICs sit on the best TOPs/W frontier of their node."""
        v6e = COMPARISON_DEVICES["TPUv6e"]
        a100 = COMPARISON_DEVICES["NVIDIA A100"]
        u280 = COMPARISON_DEVICES["AMD Alveo U280"]
        assert v6e.int8_tops / v6e.tdp_watts > a100.int8_tops / a100.tdp_watts
        assert a100.int8_tops / a100.tdp_watts > u280.int8_tops / u280.tdp_watts


class TestMatrixUnit:
    def test_exact_product(self, rng):
        mxu = MatrixUnit()
        a = rng.integers(0, 256, size=(32, 16), dtype=np.int64)
        b = rng.integers(0, 256, size=(16, 8), dtype=np.int64)
        result, stats = mxu.multiply(a, b)
        assert np.array_equal(result, a @ b)
        assert stats.macs == 32 * 16 * 8
        assert stats.max_accumulator_bits <= 32

    def test_rejects_wide_operands(self):
        mxu = MatrixUnit()
        with pytest.raises(MxuPrecisionError):
            mxu.multiply(np.array([[256]]), np.array([[1]]))

    def test_rejects_signed_operands(self):
        mxu = MatrixUnit()
        with pytest.raises(MxuPrecisionError):
            mxu.multiply(np.array([[-1]]), np.array([[1]]))

    def test_accumulator_overflow_detected(self):
        mxu = MatrixUnit(accumulator_bits=16)
        a = np.full((1, 64), 255, dtype=np.int64)
        with pytest.raises(MxuPrecisionError):
            mxu.multiply(a, a.T)

    def test_tile_count(self):
        mxu = MatrixUnit(systolic_dim=128)
        assert mxu.tile_count(128, 128, 128) == 1
        assert mxu.tile_count(256, 128, 64) == 2
        assert mxu.tile_count(129, 129, 1) == 4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MatrixUnit().multiply(np.zeros((2, 3)), np.zeros((4, 5)))


class TestVectorUnit:
    def test_modmul_exact(self, rng, prime):
        vpu = VectorUnit()
        a = rng.integers(0, prime, size=3000, dtype=np.uint64)
        b = rng.integers(0, prime, size=3000, dtype=np.uint64)
        result, stats = vpu.elementwise_modmul(a, b, prime)
        assert np.array_equal(result, (a.astype(object) * b.astype(object) % prime).astype(np.uint64))
        assert stats.vreg_tiles == -(-3000 // 1024)

    def test_modadd_modsub(self, rng, prime):
        vpu = VectorUnit()
        a = rng.integers(0, prime, size=100, dtype=np.uint64)
        b = rng.integers(0, prime, size=100, dtype=np.uint64)
        total, _ = vpu.elementwise_modadd(a, b, prime)
        diff, _ = vpu.elementwise_modsub(total, b, prime)
        assert np.array_equal(diff, a)

    def test_rejects_wide_modulus(self):
        with pytest.raises(ValueError):
            VectorUnit().elementwise_modmul(np.array([1]), np.array([1]), 1 << 40)

    def test_elements_per_vreg(self):
        assert VectorUnit().elements_per_vreg == 8 * 128
        assert VectorUnit().tile_stats(1025).vreg_tiles == 2

    def test_tile_utilization(self):
        vpu = VectorUnit()
        stats = vpu.tile_stats(512)
        assert stats.vreg_tiles == 1
        assert stats.utilization == 0.5


class TestCrossLaneUnit:
    def test_transpose(self, rng):
        xlu = CrossLaneUnit()
        matrix = rng.integers(0, 100, size=(16, 8))
        transposed, stats = xlu.transpose(matrix)
        assert np.array_equal(transposed, matrix.T)
        assert stats.pattern == "transpose"

    def test_shuffle_and_gather(self, rng):
        xlu = CrossLaneUnit()
        values = rng.integers(0, 100, size=64)
        indices = rng.permutation(64)
        shuffled, s_stats = xlu.shuffle(values, indices)
        gathered, g_stats = xlu.gather(values, indices)
        assert np.array_equal(shuffled, values[indices])
        assert np.array_equal(gathered, values[indices])
        assert g_stats.efficiency < s_stats.efficiency

    def test_reduce(self, rng):
        xlu = CrossLaneUnit()
        values = rng.integers(0, 100, size=(4, 16))
        reduced, _ = xlu.reduce(values, axis=0)
        assert np.array_equal(reduced, values.sum(axis=0))

    def test_tile_moves_round_up(self, rng):
        xlu = CrossLaneUnit()
        assert xlu.elements_per_tile == 8 * 128
        _, stats = xlu.transpose(rng.integers(0, 9, size=(33, 32)))
        assert stats.tile_moves == 2
        _, stats = xlu.transpose(np.zeros((0, 4)))
        assert stats.tile_moves == 0


class TestMemoryHierarchy:
    def test_vmem_vs_hbm_bandwidth(self):
        memory = MemoryHierarchy(tensor_core("TPUv6e"))
        small = memory.effective_read_bandwidth(1 << 20)
        huge = memory.effective_read_bandwidth(1 << 30)
        assert small > huge
        assert huge == tensor_core("TPUv6e").hbm_bandwidth

    def test_fits_in_vmem(self):
        memory = MemoryHierarchy(tensor_core("TPUv4"))
        assert memory.fits_in_vmem(1 << 20)
        assert not memory.fits_in_vmem(1 << 30)

    def test_transfer_time_positive(self):
        memory = MemoryHierarchy(tensor_core("TPUv4"))
        assert memory.transfer_time(1 << 20) > 0
        assert memory.hbm_time(1 << 20) >= memory.transfer_time(1 << 20)

    def test_vmem_capacity_is_the_residency_fraction(self):
        spec = tensor_core("TPUv5e")
        assert MemoryHierarchy(spec, 0.5).vmem_capacity == spec.vmem_capacity_bytes / 2
        assert MemoryHierarchy(spec).vmem_capacity == 0.75 * spec.vmem_capacity_bytes

    def test_write_bandwidth_spills_to_hbm(self):
        spec = tensor_core("TPUv6e")
        memory = MemoryHierarchy(spec)
        assert memory.effective_write_bandwidth(1 << 20) == spec.vmem_write_bandwidth
        assert memory.effective_write_bandwidth(1 << 30) == spec.hbm_bandwidth

    def test_transfer_time_prices_the_working_set(self):
        """Moving few bytes out of a spilled working set pays HBM bandwidth."""
        memory = MemoryHierarchy(tensor_core("TPUv4"))
        resident = memory.transfer_time(1 << 20)
        spilled = memory.transfer_time(1 << 20, working_set_bytes=1 << 30)
        assert spilled == pytest.approx(memory.hbm_time(1 << 20))
        assert spilled > resident


def _event(name, engine, category, latency, nbytes=0.0):
    return TraceEvent(
        name=name,
        engine=engine,
        category=category,
        latency_s=latency,
        compute_s=latency,
        memory_s=0.0,
        bytes_moved=nbytes,
    )


class TestExecutionTrace:
    @pytest.fixture
    def trace(self):
        trace = ExecutionTrace(kernel="ntt")
        trace.add(_event("m1", Engine.MXU, Category.NTT_MATMUL, 3.0, 100.0))
        trace.add(_event("tw", Engine.VPU, Category.VEC_MOD_OPS, 1.0, 40.0))
        trace.add(_event("m4", Engine.MXU, Category.NTT_MATMUL, 2.0, 60.0))
        trace.add(_event("t", Engine.XLU, Category.PERMUTATION, 2.0))
        return trace

    def test_totals(self, trace):
        assert trace.total_latency == 8.0
        assert trace.total_bytes == 200.0

    def test_latency_by_engine(self, trace):
        assert trace.latency_by_engine() == {Engine.MXU: 5.0, Engine.VPU: 1.0, Engine.XLU: 2.0}

    def test_latency_by_category_and_fractions(self, trace):
        assert trace.latency_by_category() == {
            Category.NTT_MATMUL: 5.0,
            Category.VEC_MOD_OPS: 1.0,
            Category.PERMUTATION: 2.0,
        }
        fractions = trace.category_fractions()
        assert fractions[Category.NTT_MATMUL] == pytest.approx(5 / 8)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert ExecutionTrace(kernel="empty").category_fractions() == {}

    def test_merged_with_concatenates_in_order(self, trace):
        other = ExecutionTrace(kernel="intt")
        other.add(_event("i1", Engine.MXU, Category.INTT_MATMUL, 4.0))
        merged = trace.merged_with(other)
        assert merged.kernel == "ntt+intt"
        assert [e.name for e in merged.events] == ["m1", "tw", "m4", "t", "i1"]
        assert merged.total_latency == 12.0
        assert len(trace.events) == 4
        assert trace.merged_with(other, name="ntt-pair").kernel == "ntt-pair"


class TestDeviceModel:
    def test_matmul_int8_goes_to_mxu(self):
        device = TensorCoreDevice.for_generation("TPUv6e")
        event = device.cost_op(MatMulOp(name="g", m=256, k=256, n=256, operand_bits=8))
        assert event.engine == Engine.MXU

    def test_matmul_int32_goes_to_vpu(self):
        device = TensorCoreDevice.for_generation("TPUv6e")
        event = device.cost_op(MatMulOp(name="g", m=64, k=64, n=64, operand_bits=32))
        assert event.engine == Engine.VPU

    def test_vpu_matmul_much_slower(self):
        device = TensorCoreDevice.for_generation("TPUv6e")
        mxu = device.cost_op(MatMulOp(name="a", m=256, k=256, n=4096, operand_bits=8))
        vpu = device.cost_op(MatMulOp(name="b", m=256, k=256, n=4096, operand_bits=32))
        assert vpu.latency_s > mxu.latency_s

    def test_gather_slower_than_transpose(self):
        device = TensorCoreDevice.for_generation("TPUv6e")
        transpose = device.cost_op(PermuteOp(name="t", elements=1 << 20, pattern="transpose"))
        gather = device.cost_op(PermuteOp(name="g", elements=1 << 20, pattern="gather"))
        assert gather.latency_s > transpose.latency_s

    def test_memory_op(self):
        device = TensorCoreDevice.for_generation("TPUv4")
        event = device.cost_op(MemoryOp(name="m", bytes_moved=1 << 24))
        assert event.engine == Engine.MEMORY
        assert event.latency_s > 0

    def test_type_convert(self):
        device = TensorCoreDevice.for_generation("TPUv4")
        event = device.cost_op(TypeConvertOp(name="c", elements=1 << 16))
        assert event.engine == Engine.VPU

    def test_unknown_op_type(self):
        device = TensorCoreDevice.for_generation("TPUv4")
        with pytest.raises(TypeError):
            device.cost_op(object())

    def test_trace_totals_and_categories(self):
        device = TensorCoreDevice.for_generation("TPUv6e")
        graph = KernelGraph(name="k")
        graph.add(VectorOp(name="v", elements=1 << 16, category=Category.VEC_MOD_OPS))
        graph.add(MatMulOp(name="m", m=128, k=128, n=128, category=Category.NTT_MATMUL))
        trace = device.run(graph)
        assert trace.total_latency > 0
        fractions = trace.category_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        assert Category.VEC_MOD_OPS in fractions

    def test_latency_is_sum_of_events(self):
        device = TensorCoreDevice.for_generation("TPUv4")
        graph = KernelGraph(name="k").add(VectorOp(name="v", elements=100))
        trace = device.run(graph)
        assert trace.total_latency == pytest.approx(sum(e.latency_s for e in trace.events))

    def test_faster_generation_is_faster(self):
        compiler = CrossCompiler(PARAMETER_SETS["B"], CompilerOptions.cross_default())
        graph = compiler.he_mult()
        v4 = TensorCoreDevice.for_generation("TPUv4").latency(graph)
        v6e = TensorCoreDevice.for_generation("TPUv6e").latency(graph)
        assert v6e < v4

    def test_custom_cost_config(self):
        config = CostModelConfig(dispatch_overhead_s=0.0, kernel_launch_overhead_s=0.0)
        device = TensorCoreDevice.for_generation("TPUv6e", config)
        graph = KernelGraph(name="k").add(VectorOp(name="v", elements=1))
        baseline = TensorCoreDevice.for_generation("TPUv6e").latency(graph)
        assert device.latency(graph) < baseline


class TestTpuVirtualMachine:
    def test_amortized_latency(self):
        compiler = CrossCompiler(PARAMETER_SETS["A"], CompilerOptions.cross_default())
        graph = compiler.ntt(limbs=1)
        vm1 = TpuVirtualMachine("TPUv6e", 1)
        vm8 = TpuVirtualMachine("TPUv6e", 8)
        assert vm8.amortized_latency(graph) == pytest.approx(vm1.amortized_latency(graph) / 8)

    def test_throughput_per_watt(self):
        compiler = CrossCompiler(PARAMETER_SETS["A"], CompilerOptions.cross_default())
        graph = compiler.ntt(limbs=1)
        vm = TpuVirtualMachine("TPUv6e", 4)
        assert vm.throughput(graph) > 0
        assert vm.throughput_per_watt(graph) == pytest.approx(
            vm.throughput(graph) / vm.total_power_watts
        )

    def test_total_power(self):
        vm = TpuVirtualMachine("TPUv4", 8)
        assert vm.total_power_watts == 8 * tensor_core("TPUv4").tdp_watts
