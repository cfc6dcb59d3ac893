"""CROSS core: the paper's primary contribution.

* :mod:`repro.core.bat` -- Basis-Aligned Transformation: high-precision
  modular matrix multiplication as dense int8 matmuls (paper section IV-A).
* :mod:`repro.core.mat` -- Memory-Aligned Transformation: offline permutation
  embedding (paper section IV-B).
* :mod:`repro.core.ntt3step` -- the layout-invariant 3-step negacyclic NTT
  that combines both, beside the explicit-transpose 4-step baseline it
  replaces (paper Fig. 10).
* :mod:`repro.core.config` -- the paper's parameter sets (Table IV).
* :mod:`repro.core.kernel_ir` / :mod:`repro.core.compiler` -- the kernel IR
  and the lowering from HE kernels to device operations costed by the TPU
  simulator.
"""

from repro.core.bat import (
    BatMatmulPlan,
    bat_modmatmul_left_known,
    bat_modmatmul_right_known,
    compile_left_operand,
    compile_right_operand,
    direct_scalar_bat,
    expand_runtime_left,
    expand_runtime_right,
)
from repro.core.chunks import chunk_count, chunk_decompose
from repro.core.config import (
    DEFAULT_SET,
    MXU_PRECISION_BITS,
    PARAMETER_SETS,
    SecurityParams,
    VPU_PRECISION_BITS,
    chunks_per_word,
)
from repro.core.mat import embed_permutation_into_cols, embed_permutation_into_rows
from repro.core.ntt3step import FourStepNttPlan, ThreeStepNttPlan

__all__ = [
    "BatMatmulPlan",
    "DEFAULT_SET",
    "FourStepNttPlan",
    "MXU_PRECISION_BITS",
    "PARAMETER_SETS",
    "SecurityParams",
    "ThreeStepNttPlan",
    "VPU_PRECISION_BITS",
    "bat_modmatmul_left_known",
    "bat_modmatmul_right_known",
    "chunk_count",
    "chunk_decompose",
    "chunks_per_word",
    "compile_left_operand",
    "compile_right_operand",
    "direct_scalar_bat",
    "embed_permutation_into_cols",
    "embed_permutation_into_rows",
    "expand_runtime_left",
    "expand_runtime_right",
]
