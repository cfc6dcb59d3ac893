"""Simulated AI-accelerator substrate (the stand-in for real TPU hardware).

* :mod:`repro.tpu.specs` -- per-tensor-core peak numbers (paper Table IV) and
  comparison-device data (paper Fig. 5).
* :mod:`repro.tpu.mxu` / :mod:`repro.tpu.vpu` / :mod:`repro.tpu.xlu` --
  functional + structural models of the three execution engines.
* :mod:`repro.tpu.memory` -- VMEM/HBM residency and bandwidth model.
* :mod:`repro.tpu.device` -- the roofline cost model that turns kernel graphs
  into latency estimates, and the multi-core TPU-VM wrapper.
* :mod:`repro.tpu.trace` -- execution traces and latency breakdowns (the
  XLA-trace-viewer stand-in).
"""

from repro.tpu.device import CostModelConfig, TensorCoreDevice, TpuVirtualMachine
from repro.tpu.memory import MemoryHierarchy
from repro.tpu.mxu import MatrixUnit, MxuPrecisionError, MxuStatistics
from repro.tpu.specs import (
    COMPARISON_DEVICES,
    TPU_TENSOR_CORES,
    TPU_VM_TENSOR_CORES,
    ComparisonDeviceSpec,
    TensorCoreSpec,
    tensor_core,
)
from repro.tpu.trace import ExecutionTrace, TraceEvent
from repro.tpu.vpu import VectorUnit, VpuStatistics
from repro.tpu.xlu import CrossLaneUnit, XluStatistics

__all__ = [
    "COMPARISON_DEVICES",
    "ComparisonDeviceSpec",
    "CostModelConfig",
    "CrossLaneUnit",
    "ExecutionTrace",
    "MatrixUnit",
    "MemoryHierarchy",
    "MxuPrecisionError",
    "MxuStatistics",
    "TPU_TENSOR_CORES",
    "TPU_VM_TENSOR_CORES",
    "TensorCoreDevice",
    "TensorCoreSpec",
    "TpuVirtualMachine",
    "TraceEvent",
    "VectorUnit",
    "VpuStatistics",
    "XluStatistics",
    "tensor_core",
]
