"""Energy-efficiency methodology: power matching and throughput per watt.

The paper's efficiency comparison works as follows (section V-A): pick a
baseline platform, scale the number of TPU tensor cores until their aggregate
TDP roughly matches the baseline's TDP, then compare the number of kernels
completed per second per watt.  This module implements exactly that
methodology on top of the simulated devices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernel_ir import KernelGraph
from repro.tpu.device import TpuVirtualMachine
from repro.tpu.specs import tensor_core


@dataclass(frozen=True)
class EfficiencyResult:
    """Throughput-per-watt comparison between CROSS and one baseline."""

    baseline_name: str
    kernel: str
    baseline_latency_us: float
    baseline_power_watts: float
    cross_latency_us: float
    cross_power_watts: float
    tensor_cores: int

    @property
    def baseline_throughput_per_watt(self) -> float:
        """Baseline kernels per second per watt."""
        return 1.0 / (self.baseline_latency_us * 1e-6) / self.baseline_power_watts

    @property
    def cross_throughput_per_watt(self) -> float:
        """CROSS kernels per second per watt."""
        return 1.0 / (self.cross_latency_us * 1e-6) / self.cross_power_watts

    @property
    def efficiency_gain(self) -> float:
        """CROSS / baseline throughput-per-watt ratio (>1 means CROSS wins)."""
        return self.cross_throughput_per_watt / self.baseline_throughput_per_watt

    @property
    def latency_speedup(self) -> float:
        """Baseline latency divided by CROSS amortised latency."""
        return self.baseline_latency_us / self.cross_latency_us


def cores_to_match_power(generation: str, target_watts: float) -> int:
    """Number of tensor cores whose TDP best approximates ``target_watts``."""
    per_core = tensor_core(generation).tdp_watts
    cores = max(1, round(target_watts / per_core))
    return cores


def power_matched_vm(generation: str, target_watts: float) -> TpuVirtualMachine:
    """Build a TPU-VM whose aggregate TDP approximates ``target_watts``."""
    return TpuVirtualMachine(generation, cores_to_match_power(generation, target_watts))


def compare_efficiency(
    baseline_name: str,
    baseline_latency_us: float,
    baseline_power_watts: float,
    graph: KernelGraph,
    generation: str = "TPUv6e",
    tensor_cores: int | None = None,
) -> EfficiencyResult:
    """Run the paper's power-matched efficiency comparison for one kernel."""
    if tensor_cores is None:
        vm = power_matched_vm(generation, baseline_power_watts)
    else:
        vm = TpuVirtualMachine(generation, tensor_cores)
    cross_latency_us = vm.amortized_latency(graph) * 1e6
    return EfficiencyResult(
        baseline_name=baseline_name,
        kernel=graph.name,
        baseline_latency_us=baseline_latency_us,
        baseline_power_watts=baseline_power_watts,
        cross_latency_us=cross_latency_us,
        cross_power_watts=vm.total_power_watts,
        tensor_cores=vm.tensor_cores,
    )
