"""Device specifications for the simulated accelerators.

The paper evaluates CROSS on real TPU-VMs (Table IV lists per-tensor-core
peak throughput and memory bandwidths straight from XProf) and compares
against GPUs, FPGAs, CPUs and HE ASICs using their published figures.  We
encode those same numbers here; the roofline device model
(:mod:`repro.tpu.device`) consumes them to estimate kernel latency, and the
energy model (:mod:`repro.perf.energy`) uses the TDP figures to reproduce the
paper's "scale tensor cores to the baseline's power" methodology.

Absolute wattages for unreleased parts are approximate public figures; they
only enter the results through *ratios*, which is the level at which the
reproduction claims shape-fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TensorCoreSpec:
    """Peak capability of one TPU tensor core (paper Table IV rows).

    Attributes
    ----------
    name:
        Device name (e.g. "TPUv6e").
    mxu_ops_per_second:
        Peak int8 multiply-accumulate throughput of the MXUs (ops/s, counting
        each MAC as two ops to match the GFLOPs convention of Table IV).
    mxu_systolic_dim:
        Systolic-array dimension (128 for v4/v5, 256 for v6e).
    vpu_lanes / vpu_sublanes / vpu_alus_per_sublane:
        The (128, 8, 2) SIMD organisation of the vector unit.
    clock_hz:
        Nominal clock.
    hbm_bandwidth / vmem_read_bandwidth / vmem_write_bandwidth:
        Bytes per second (Table IV, converted from GiB/s).
    vmem_capacity_bytes:
        On-chip vector-memory capacity available to one core.
    tdp_watts:
        Thermal design power attributed to one tensor core.
    """

    name: str
    mxu_ops_per_second: float
    mxu_systolic_dim: int
    vpu_lanes: int
    vpu_sublanes: int
    vpu_alus_per_sublane: int
    clock_hz: float
    hbm_bandwidth: float
    vmem_read_bandwidth: float
    vmem_write_bandwidth: float
    vmem_capacity_bytes: float
    tdp_watts: float

    @property
    def vpu_ops_per_second(self) -> float:
        """Peak 32-bit vector ALU throughput (ops/s) of one tensor core."""
        return self.vpu_lanes * self.vpu_sublanes * self.vpu_alus_per_sublane * self.clock_hz

    @property
    def vreg_bytes(self) -> int:
        """Size of one (8, 128) 32-bit vector register tile (4 KiB)."""
        return self.vpu_lanes * self.vpu_sublanes * 4


_GIB = 1024**3


#: Per-tensor-core TPU specifications (paper Table IV).
TPU_TENSOR_CORES: dict[str, TensorCoreSpec] = {
    "TPUv4": TensorCoreSpec(
        name="TPUv4",
        mxu_ops_per_second=139_800e9,
        mxu_systolic_dim=128,
        vpu_lanes=128,
        vpu_sublanes=8,
        vpu_alus_per_sublane=2,
        clock_hz=940e6,
        hbm_bandwidth=572 * _GIB,
        vmem_read_bandwidth=2003 * _GIB,
        vmem_write_bandwidth=1001 * _GIB,
        vmem_capacity_bytes=16 * 2**20,
        tdp_watts=96.0,
    ),
    "TPUv5e": TensorCoreSpec(
        name="TPUv5e",
        mxu_ops_per_second=202_700e9,
        mxu_systolic_dim=128,
        vpu_lanes=128,
        vpu_sublanes=8,
        vpu_alus_per_sublane=2,
        clock_hz=1_110e6,
        hbm_bandwidth=763 * _GIB,
        vmem_read_bandwidth=17_166 * _GIB,
        vmem_write_bandwidth=5_722 * _GIB,
        vmem_capacity_bytes=48 * 2**20,
        tdp_watts=110.0,
    ),
    "TPUv5p": TensorCoreSpec(
        name="TPUv5p",
        mxu_ops_per_second=236_700e9,
        mxu_systolic_dim=128,
        vpu_lanes=128,
        vpu_sublanes=8,
        vpu_alus_per_sublane=2,
        clock_hz=1_750e6,
        hbm_bandwidth=1287 * _GIB,
        vmem_read_bandwidth=20_027 * _GIB,
        vmem_write_bandwidth=6_676 * _GIB,
        vmem_capacity_bytes=64 * 2**20,
        tdp_watts=200.0,
    ),
    "TPUv6e": TensorCoreSpec(
        name="TPUv6e",
        mxu_ops_per_second=918_000e9,
        mxu_systolic_dim=256,
        vpu_lanes=128,
        vpu_sublanes=8,
        vpu_alus_per_sublane=2,
        clock_hz=1_700e6,
        hbm_bandwidth=1526 * _GIB,
        vmem_read_bandwidth=21_696 * _GIB,
        vmem_write_bandwidth=15_020 * _GIB,
        vmem_capacity_bytes=128 * 2**20,
        tdp_watts=150.0,
    ),
}


#: Number of JAX logical devices / tensor cores per TPU-VM setup (Table IV).
TPU_VM_TENSOR_CORES: dict[str, int] = {
    "v4-8": 8,
    "v5litepod-4": 4,
    "v5p-8": 8,
    "v6e-8": 8,
    "v6e-4": 4,
}


@dataclass(frozen=True)
class ComparisonDeviceSpec:
    """A competing platform used only through its published figures.

    Attributes
    ----------
    name:
        Marketing name (e.g. "NVIDIA A100").
    category:
        "GPU", "FPGA", "CPU" or "ASIC".
    int8_tops:
        Peak int8 throughput (TOPs) -- Fig. 5 vertical axis.
    tdp_watts:
        Board/package power -- Fig. 5 horizontal axis and the power budget the
        paper matches TPU tensor cores against.
    process_node:
        Manufacturing node string (for the Fig. 5 grouping).
    """

    name: str
    category: str
    int8_tops: float
    tdp_watts: float
    process_node: str


#: Competing platforms referenced across the evaluation (paper Fig. 5 + Table VIII).
COMPARISON_DEVICES: dict[str, ComparisonDeviceSpec] = {
    "AMD MI100": ComparisonDeviceSpec("AMD MI100", "GPU", 184.6, 300, "7nm"),
    "NVIDIA A100": ComparisonDeviceSpec("NVIDIA A100", "GPU", 312, 400, "7nm"),
    "AMD Alveo U280": ComparisonDeviceSpec("AMD Alveo U280", "FPGA", 24.5, 225, "16nm"),
    "TPUv4": ComparisonDeviceSpec("TPUv4", "AI ASIC", 275, 192, "7nm"),
    "MTIA": ComparisonDeviceSpec("MTIA", "AI ASIC", 102.4, 25, "7nm"),
    "AMD MI250X": ComparisonDeviceSpec("AMD MI250X", "GPU", 383, 500, "6nm"),
    "NVIDIA H100": ComparisonDeviceSpec("NVIDIA H100", "GPU", 1979, 700, "4N"),
    "NVIDIA L40S": ComparisonDeviceSpec("NVIDIA L40S", "GPU", 733, 350, "4N"),
    "TPUv5e": ComparisonDeviceSpec("TPUv5e", "AI ASIC", 394, 140, "5nm"),
    "MTIA v2": ComparisonDeviceSpec("MTIA v2", "AI ASIC", 354, 90, "5nm"),
    "AMD MI300X": ComparisonDeviceSpec("AMD MI300X", "GPU", 2615, 750, "5nm"),
    "NVIDIA B100": ComparisonDeviceSpec("NVIDIA B100", "GPU", 3500, 700, "4N"),
    "NVIDIA RTX 4090": ComparisonDeviceSpec("NVIDIA RTX 4090", "GPU", 660, 450, "4N"),
    "NVIDIA GB200": ComparisonDeviceSpec("NVIDIA GB200", "GPU", 5000, 1200, "4N"),
    "TPUv6e": ComparisonDeviceSpec("TPUv6e", "AI ASIC", 918, 300, "5nm"),
    "AMD 9950X3D": ComparisonDeviceSpec("AMD 9950X3D", "CPU", 2.4, 170, "4nm"),
    "CraterLake": ComparisonDeviceSpec("CraterLake", "HE ASIC", 0.0, 320, "14nm"),
    "BASALISC": ComparisonDeviceSpec("BASALISC", "HE ASIC", 0.0, 280, "12nm"),
    "HEAP (8xU280)": ComparisonDeviceSpec("HEAP (8xU280)", "FPGA", 196, 1800, "16nm"),
}


def tensor_core(name: str) -> TensorCoreSpec:
    """Look up a TPU tensor-core spec by generation name."""
    try:
        return TPU_TENSOR_CORES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown TPU generation {name!r}; choose from {sorted(TPU_TENSOR_CORES)}"
        ) from exc
