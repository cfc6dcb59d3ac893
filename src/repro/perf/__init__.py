"""Performance and energy model: the paper's measurement methodology in code.

* :mod:`repro.perf.published` -- the baseline numbers the paper quotes
  (Tables V-X, Fig. 11-13), used for paper-vs-simulation comparisons.
* :mod:`repro.perf.energy` -- power-matched throughput-per-watt comparisons.
* :mod:`repro.perf.batching` -- the batch-size throughput model (Fig. 11b).
"""

from repro.perf.batching import (
    BatchPoint,
    batch_throughput_curve,
    ntt_working_set_bytes,
    optimal_batch,
    parameter_bytes,
)
from repro.perf.energy import (
    EfficiencyResult,
    compare_efficiency,
    cores_to_match_power,
    power_matched_vm,
)
from repro.perf.published import (
    BOOTSTRAPPING_BREAKDOWN_V6E8,
    BOOTSTRAPPING_LATENCY_MS,
    ENERGY_EFFICIENCY_HEADLINES,
    FIG11A_SPEEDUP_TARGETS,
    FIG12_BREAKDOWN,
    ML_WORKLOAD_TARGETS,
    NTT_THROUGHPUT_BASELINES,
    NTT_THROUGHPUT_CROSS,
    TABLE5_BAT_MATMUL,
    TABLE6_BCONV,
    TABLE8_BASELINES,
    TABLE8_CROSS_V6E8_SETD_US,
    TABLE10_CT_VS_MAT,
    BaselineRecord,
    NttThroughputRecord,
)

__all__ = [
    "BOOTSTRAPPING_BREAKDOWN_V6E8",
    "BOOTSTRAPPING_LATENCY_MS",
    "BaselineRecord",
    "BatchPoint",
    "ENERGY_EFFICIENCY_HEADLINES",
    "EfficiencyResult",
    "FIG11A_SPEEDUP_TARGETS",
    "FIG12_BREAKDOWN",
    "ML_WORKLOAD_TARGETS",
    "NTT_THROUGHPUT_BASELINES",
    "NTT_THROUGHPUT_CROSS",
    "NttThroughputRecord",
    "TABLE10_CT_VS_MAT",
    "TABLE5_BAT_MATMUL",
    "TABLE6_BCONV",
    "TABLE8_BASELINES",
    "TABLE8_CROSS_V6E8_SETD_US",
    "batch_throughput_curve",
    "compare_efficiency",
    "cores_to_match_power",
    "ntt_working_set_bytes",
    "optimal_batch",
    "parameter_bytes",
    "power_matched_vm",
]
