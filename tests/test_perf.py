"""Tests for the performance/energy methodology and the published-data tables."""

import pytest

from repro.core.compiler import CompilerOptions, CrossCompiler
from repro.core.config import PARAMETER_SETS
from repro.perf import (
    ENERGY_EFFICIENCY_HEADLINES,
    NTT_THROUGHPUT_CROSS,
    TABLE5_BAT_MATMUL,
    TABLE6_BCONV,
    TABLE8_BASELINES,
    EfficiencyResult,
    batch_throughput_curve,
    compare_efficiency,
    cores_to_match_power,
    optimal_batch,
    power_matched_vm,
)
from repro.perf.batching import ntt_working_set_bytes, parameter_bytes
from repro.tpu import TensorCoreDevice, tensor_core


@pytest.fixture(scope="module")
def compiler():
    return CrossCompiler(PARAMETER_SETS["D"], CompilerOptions.cross_default())


class TestPowerMatching:
    def test_core_count_rounds_to_nearest(self):
        per_core = tensor_core("TPUv6e").tdp_watts
        assert cores_to_match_power("TPUv6e", per_core * 4) == 4
        assert cores_to_match_power("TPUv6e", per_core * 0.4) == 1

    def test_power_matched_vm(self):
        vm = power_matched_vm("TPUv6e", 450)
        assert vm.total_power_watts == pytest.approx(450, rel=0.5)


class TestWorkingSet:
    def test_working_set_grows_by_one_element_per_batch(self):
        degree = 2**16
        per_element = degree * 4 * 2 + degree * 4
        assert ntt_working_set_bytes(degree, 0) == parameter_bytes(degree)
        step = ntt_working_set_bytes(degree, 9) - ntt_working_set_bytes(degree, 8)
        assert step == per_element

    def test_parameter_bytes_tile_shapes(self):
        """Shared twiddles: a 128-row tile from N = 256 on, square-ish below."""
        assert parameter_bytes(2**16) == (128**2 + 512**2) * 16
        assert parameter_bytes(2**16, chunk_count=2) == (128**2 + 512**2) * 4
        assert parameter_bytes(64) == (8**2 + 8**2) * 16


class TestEfficiencyResult:
    def test_throughput_per_watt_helper(self):
        result = EfficiencyResult(
            baseline_name="cpu",
            kernel="ntt",
            baseline_latency_us=1000.0,
            baseline_power_watts=100.0,
            cross_latency_us=10.0,
            cross_power_watts=50.0,
            tensor_cores=1,
        )
        assert result.baseline_throughput_per_watt == pytest.approx(10.0)
        assert result.cross_throughput_per_watt == pytest.approx(2000.0)
        assert result.efficiency_gain == pytest.approx(200.0)
        assert result.latency_speedup == pytest.approx(100.0)


class TestEfficiencyComparison:
    def test_openfhe_comparison_is_huge_win(self, compiler):
        """The paper's headline: ~2 orders of magnitude over the CPU library."""
        record = TABLE8_BASELINES["OpenFHE"]
        result = compare_efficiency(
            record.name,
            record.he_mult_us,
            record.platform_power_watts,
            compiler.he_mult(),
        )
        assert result.efficiency_gain > 50

    def test_result_fields_consistent(self, compiler):
        record = TABLE8_BASELINES["WarpDrive"]
        result = compare_efficiency(
            record.name,
            record.he_mult_us,
            record.platform_power_watts,
            compiler.he_mult(),
            tensor_cores=4,
        )
        assert result.tensor_cores == 4
        assert result.latency_speedup == pytest.approx(
            record.he_mult_us / result.cross_latency_us
        )
        assert result.efficiency_gain == pytest.approx(
            result.cross_throughput_per_watt / result.baseline_throughput_per_watt
        )


class TestBatching:
    def test_curve_shape(self, compiler):
        device = TensorCoreDevice.for_generation("TPUv6e")
        small_compiler = CrossCompiler(PARAMETER_SETS["A"], CompilerOptions.cross_default())
        points = batch_throughput_curve(small_compiler, device, [1, 2, 4, 8, 16, 32])
        assert points[0].normalized == pytest.approx(1.0)
        # Batching must help for the small set (paper: 7.7x at batch 32).
        assert optimal_batch(points).batch > 1
        assert optimal_batch(points).normalized > 1.5

    def test_large_set_benefits_less(self, compiler):
        """Set D gains less from batching than Set A (paper Fig. 11b)."""
        device = TensorCoreDevice.for_generation("TPUv6e")
        set_a = CrossCompiler(PARAMETER_SETS["A"], CompilerOptions.cross_default())
        batches = [1, 2, 4, 8, 16, 32]
        gain_a = optimal_batch(batch_throughput_curve(set_a, device, batches)).normalized
        gain_d = optimal_batch(batch_throughput_curve(compiler, device, batches)).normalized
        assert gain_a > gain_d


class TestPublishedData:
    def test_table5_rows_complete(self):
        assert len(TABLE5_BAT_MATMUL) == 9
        for _, _, _, baseline_us, bat_us in TABLE5_BAT_MATMUL:
            assert baseline_us > bat_us  # BAT always wins in Table V

    def test_table6_speedups(self):
        for _, _, baseline_us, bat_us in TABLE6_BCONV:
            assert 2.0 < baseline_us / bat_us < 8.0

    def test_table8_baselines_have_power(self):
        for record in TABLE8_BASELINES.values():
            assert record.platform_power_watts > 0
            assert record.he_mult_us is not None

    def test_energy_headlines(self):
        assert ENERGY_EFFICIENCY_HEADLINES["OpenFHE"] == pytest.approx(451)
        assert ENERGY_EFFICIENCY_HEADLINES["Cheddar"] == pytest.approx(1.15)

    def test_ntt_throughput_monotonic_across_generations(self):
        for degree in (2**12, 2**13, 2**14):
            values = [NTT_THROUGHPUT_CROSS[vm][degree] for vm in ("v4-4", "v5e-4", "v5p-4", "v6e-8")]
            assert values == sorted(values)
