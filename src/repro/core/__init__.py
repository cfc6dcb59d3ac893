"""CROSS core: the paper's primary contribution.

* :mod:`repro.core.bat` -- Basis-Aligned Transformation: high-precision
  modular matrix multiplication as dense int8 matmuls (paper section IV-A).
* :mod:`repro.core.bat_scalar` -- the scalar form of BAT (paper Fig. 7 /
  Alg. 5) and its compiled-scalar multiplier.
* :mod:`repro.core.mat` -- Memory-Aligned Transformation: offline permutation
  embedding (paper section IV-B).
* :mod:`repro.core.ntt3step` -- the layout-invariant 3-step negacyclic NTT
  that combines both, beside the explicit-transpose 4-step baseline it
  replaces (paper Fig. 10).
* :mod:`repro.core.lazy_reduction` -- BAT lazy modular reduction (Appendix J).
* :mod:`repro.core.fallback_conv` -- the 1-D-convolution fallback for
  operands unknown at compile time (Appendix H).
* :mod:`repro.core.config` -- the paper's parameter sets (Table IV).
* :mod:`repro.core.kernel_ir` / :mod:`repro.core.compiler` -- the kernel IR
  and the lowering from HE kernels to device operations costed by the TPU
  simulator.
"""

from repro.core.bat import (
    BatMatmulPlan,
    bat_modmatmul,
    bat_modmatmul_left_known,
    bat_modmatmul_right_known,
    compile_left_operand,
    compile_right_operand,
    direct_scalar_bat,
    expand_runtime_left,
    expand_runtime_right,
)
from repro.core.bat_scalar import (
    CompiledScalar,
    bat_fold,
    carry_propagation,
    construct_toeplitz,
    hp_scalar_mult_bat,
    offline_compile_scalar,
)
from repro.core.chunks import chunk_count, chunk_decompose, chunk_merge
from repro.core.config import (
    DEFAULT_SET,
    MXU_PRECISION_BITS,
    PARAMETER_SETS,
    SecurityParams,
    VPU_PRECISION_BITS,
    chunks_per_word,
)
from repro.core.fallback_conv import chunkwise_convolution, convolution_modmul
from repro.core.lazy_reduction import LazyReductionPlan, lazy_reduce, lazy_reduce_exact
from repro.core.mat import (
    embed_permutation_into_cols,
    embed_permutation_into_rows,
    fuse_permutations,
    permute_vector,
    transpose_stride_permutation,
)
from repro.core.ntt3step import FourStepNttPlan, ThreeStepNttPlan, default_tile_shape

__all__ = [
    "BatMatmulPlan",
    "CompiledScalar",
    "DEFAULT_SET",
    "FourStepNttPlan",
    "LazyReductionPlan",
    "MXU_PRECISION_BITS",
    "PARAMETER_SETS",
    "SecurityParams",
    "ThreeStepNttPlan",
    "VPU_PRECISION_BITS",
    "bat_fold",
    "bat_modmatmul",
    "bat_modmatmul_left_known",
    "bat_modmatmul_right_known",
    "carry_propagation",
    "chunk_count",
    "chunk_decompose",
    "chunk_merge",
    "chunks_per_word",
    "chunkwise_convolution",
    "compile_left_operand",
    "compile_right_operand",
    "construct_toeplitz",
    "convolution_modmul",
    "default_tile_shape",
    "direct_scalar_bat",
    "embed_permutation_into_cols",
    "embed_permutation_into_rows",
    "expand_runtime_left",
    "expand_runtime_right",
    "fuse_permutations",
    "hp_scalar_mult_bat",
    "lazy_reduce",
    "lazy_reduce_exact",
    "offline_compile_scalar",
    "permute_vector",
    "transpose_stride_permutation",
]
