"""Shape tests: the simulated evaluation must reproduce the paper's qualitative results.

These are not unit tests of a single module; they assert the *relative*
behaviour each paper table/figure reports (who wins, roughly by how much,
where the bottleneck sits), which is the reproduction target stated in
DESIGN.md.
"""

import pytest

from repro.baselines.gpu_flow import bat_matmul_graph, sparse_matmul_graph
from repro.core.compiler import CompilerOptions, CrossCompiler, estimate_bootstrapping
from repro.core.config import PARAMETER_SETS
from repro.core.kernel_ir import Category
from repro.perf import TABLE5_BAT_MATMUL, TABLE6_BCONV
from repro.tpu import TensorCoreDevice, TpuVirtualMachine

SET_D = PARAMETER_SETS["D"]


@pytest.fixture(scope="module")
def device():
    return TensorCoreDevice.for_generation("TPUv6e")


@pytest.fixture(scope="module")
def cross():
    return CrossCompiler(SET_D, CompilerOptions.cross_default())


@pytest.fixture(scope="module")
def baseline():
    return CrossCompiler(SET_D, CompilerOptions.gpu_baseline())


class TestTable5Shape:
    """BAT beats the sparse baseline on every ModMatMul size, by 1.1x - 2.5x."""

    @pytest.mark.parametrize("h,v,w,paper_baseline,paper_bat", TABLE5_BAT_MATMUL)
    def test_bat_speedup_in_range(self, device, h, v, w, paper_baseline, paper_bat):
        baseline_latency = device.latency(sparse_matmul_graph(h, v, w))
        bat_latency = device.latency(bat_matmul_graph(h, v, w))
        speedup = baseline_latency / bat_latency
        paper_speedup = paper_baseline / paper_bat
        assert speedup > 1.0
        assert speedup == pytest.approx(paper_speedup, rel=0.6)


class TestTable6Shape:
    """BAT turns BConv's step 2 into an MXU matmul: multi-x speedups, growing with limbs."""

    @pytest.mark.parametrize("limbs_in,limbs_out,paper_baseline,paper_bat", TABLE6_BCONV)
    def test_bconv_speedup(self, device, limbs_in, limbs_out, paper_baseline, paper_bat):
        vpu_compiler = CrossCompiler(
            SET_D, CompilerOptions(use_bat=False, use_mat=True, sparse_fallback=False)
        )
        bat_compiler = CrossCompiler(SET_D, CompilerOptions.cross_default())
        baseline_latency = device.latency(vpu_compiler.bconv(limbs_in, limbs_out))
        bat_latency = device.latency(bat_compiler.bconv(limbs_in, limbs_out))
        assert baseline_latency / bat_latency > 2.0

    def test_speedup_grows_with_limb_count(self, device):
        vpu_compiler = CrossCompiler(
            SET_D, CompilerOptions(use_bat=False, use_mat=True, sparse_fallback=False)
        )
        bat_compiler = CrossCompiler(SET_D, CompilerOptions.cross_default())

        def speedup(limbs_in, limbs_out):
            return device.latency(vpu_compiler.bconv(limbs_in, limbs_out)) / device.latency(
                bat_compiler.bconv(limbs_in, limbs_out)
            )

        assert speedup(24, 56) > speedup(12, 28)


class TestTable7Fig11Shape:
    """NTT throughput rises with newer TPU generations and falls with degree."""

    def test_generation_ordering(self):
        throughputs = {}
        for generation, cores in [("TPUv4", 4), ("TPUv5e", 4), ("TPUv5p", 4), ("TPUv6e", 8)]:
            compiler = CrossCompiler(PARAMETER_SETS["A"], CompilerOptions.cross_default())
            vm = TpuVirtualMachine(generation, cores)
            graph = compiler.ntt(limbs=1, batch=16)
            throughputs[generation] = 16 * vm.tensor_cores / vm.core.latency(graph)
        assert throughputs["TPUv6e"] > throughputs["TPUv5p"] >= throughputs["TPUv5e"]

    def test_degree_scaling(self, device):
        def throughput(set_name):
            compiler = CrossCompiler(PARAMETER_SETS[set_name], CompilerOptions.cross_default())
            graph = compiler.ntt(limbs=1, batch=16)
            return 16 / device.latency(graph)

        assert throughput("A") > throughput("B") > throughput("C")

    def test_cross_ntt_beats_gpu_flow_on_tpu(self):
        """Table X's point: the radix-2 CT flow is far slower than MAT NTT on TPUv4."""
        tpu_v4 = TensorCoreDevice.for_generation("TPUv4")
        cross = CrossCompiler(PARAMETER_SETS["C"], CompilerOptions.cross_default())
        radix2 = CrossCompiler(PARAMETER_SETS["C"], CompilerOptions.vpu_only_baseline())
        speedup = tpu_v4.latency(radix2.ntt(limbs=1, batch=128)) / tpu_v4.latency(
            cross.ntt(limbs=1, batch=128)
        )
        assert speedup > 5.0


class TestTable8Shape:
    """HE operator ordering and CROSS-vs-baseline speedups."""

    def test_operator_ordering(self, cross, device):
        latencies = {
            name: device.latency(cross.operator(name))
            for name in ("he_add", "rescale", "rotate", "he_mult")
        }
        assert latencies["he_add"] < latencies["rescale"] < latencies["rotate"]
        assert latencies["rescale"] < latencies["he_mult"]

    def test_cross_beats_gpu_baseline_on_every_operator(self, cross, baseline, device):
        for name in ("he_mult", "rescale", "rotate"):
            assert device.latency(baseline.operator(name)) > device.latency(
                cross.operator(name)
            )

    def test_single_tc_he_mult_magnitude(self, cross, device):
        """Set D HE-Mult on one v6e tensor core lands in the paper's millisecond regime."""
        latency_us = device.latency(cross.he_mult()) * 1e6
        assert 200 < latency_us < 20_000


class TestFig12Shape:
    """HE-Mult is VPU-bound; matmuls contribute a minority of the latency."""

    def test_vecmodops_dominate(self, cross, device):
        fractions = {
            category.value: share
            for category, share in device.run(cross.he_mult()).category_fractions().items()
        }
        matmul_share = (
            fractions.get(Category.NTT_MATMUL.value, 0)
            + fractions.get(Category.INTT_MATMUL.value, 0)
            + fractions.get(Category.BCONV_MATMUL.value, 0)
        )
        assert fractions[Category.VEC_MOD_OPS.value] > matmul_share
        assert fractions[Category.VEC_MOD_OPS.value] > 0.35

    def test_rotate_has_permutation_cost(self, cross, device):
        fractions = {
            category.value: share
            for category, share in device.run(cross.rotate()).category_fractions().items()
        }
        assert fractions.get(Category.AUTOMORPHISM.value, 0) > 0.01


class TestTable9Shape:
    """Bootstrapping: tens of milliseconds on v6e-8, automorphism-heavy."""

    def test_latency_magnitude_and_breakdown(self, cross, device):
        estimate = estimate_bootstrapping(cross, device, tensor_cores=8)
        assert 3 < estimate.latency_ms < 1000
        assert estimate.breakdown.get("Automorphism", 0) > 0.02


class TestEnergyEfficiencyShape:
    """CROSS on power-matched TPUv6e is more efficient than every public baseline."""

    @pytest.mark.parametrize("name", ["OpenFHE", "WarpDrive", "FIDESlib", "FAB"])
    def test_beats_baseline(self, cross, name):
        from repro.perf import TABLE8_BASELINES, compare_efficiency

        record = TABLE8_BASELINES[name]
        compiler = CrossCompiler(
            SET_D if record.cross_limbs >= 36 else PARAMETER_SETS["B"],
            CompilerOptions.cross_default(),
        )
        result = compare_efficiency(
            record.name,
            record.he_mult_us,
            record.platform_power_watts,
            compiler.he_mult(limbs=min(record.cross_limbs, 51)),
            tensor_cores=record.tpu_power_match_cores,
        )
        assert result.efficiency_gain > 0.5  # at least competitive ...
        if name == "OpenFHE":
            assert result.efficiency_gain > 50  # ... and dominant over the CPU library
