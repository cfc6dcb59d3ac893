"""Fixed-width word arithmetic helpers for device-faithful NumPy kernels.

NumPy has no 128-bit integer type, but the device-faithful reduction kernels
(Barrett) need the high 64 bits of a 64x64-bit product.  These helpers
build that product out of 32x32->64-bit multiplies, exactly the way a 32-bit
datapath (the TPU VPU, or a GPU CUDA core) would.
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def split_u64(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split uint64 values into (high 32 bits, low 32 bits), both as uint64."""
    values = np.asarray(values, dtype=np.uint64)
    return values >> _SHIFT32, values & _MASK32


def mul_wide_u64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64 operands as a (high, low) uint64 pair.

    Implemented with four 32x32-bit partial products and explicit carry
    propagation; all intermediate values fit in uint64 so the computation is
    exact under NumPy's wrap-around semantics.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a_hi, a_lo = split_u64(a)
    b_hi, b_lo = split_u64(b)

    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    lo_hi = a_lo * b_hi
    hi_hi = a_hi * b_hi

    # Carry out of the middle 32-bit column.
    mid = (lo_lo >> _SHIFT32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    low = (lo_lo & _MASK32) | ((mid & _MASK32) << _SHIFT32)
    high = hi_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + (mid >> _SHIFT32)
    return high, low


def mul_hi_u64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 operands."""
    high, _ = mul_wide_u64(a, b)
    return high
