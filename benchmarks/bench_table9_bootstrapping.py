"""Table IX: packed bootstrapping latency across TPU-VMs plus breakdown."""

import pytest

from benchmarks.conftest import print_report
from repro.analysis import format_breakdown, format_table
from repro.core.compiler import estimate_bootstrapping
from repro.perf import BOOTSTRAPPING_BREAKDOWN_V6E8, BOOTSTRAPPING_LATENCY_MS
from repro.tpu import TensorCoreDevice

VM_SETUPS = {"v4-8": ("TPUv4", 8), "v5e-4": ("TPUv5e", 4), "v5p-8": ("TPUv5p", 8), "v6e-8": ("TPUv6e", 8)}


@pytest.mark.parametrize("vm_name", list(VM_SETUPS))
def test_table9_latency(benchmark, cross_set_d, vm_name):
    """Bootstrapping latency for one TPU-VM configuration."""
    generation, cores = VM_SETUPS[vm_name]
    device = TensorCoreDevice.for_generation(generation)

    estimate = benchmark(estimate_bootstrapping, cross_set_d, device, None, cores)

    print_report(
        f"Table IX {vm_name}",
        format_table(
            ["source", "latency (ms)"],
            [["paper", BOOTSTRAPPING_LATENCY_MS[vm_name]], ["simulated", estimate.latency_ms]],
        ),
    )
    assert estimate.latency_ms > 1


def test_table9_v6e_breakdown(benchmark, cross_set_d, tpu_v6e):
    """The v6e-8 bootstrapping breakdown: automorphism + vector work dominate."""
    estimate = benchmark(estimate_bootstrapping, cross_set_d, tpu_v6e, None, 8)
    print_report(
        "Table IX v6e-8 breakdown",
        format_breakdown(estimate.breakdown, title="simulated")
        + "\n"
        + format_breakdown(BOOTSTRAPPING_BREAKDOWN_V6E8, title="paper"),
    )
    assert estimate.breakdown.get("VecModOps", 0) + estimate.breakdown.get("Automorphism", 0) > 0.2
