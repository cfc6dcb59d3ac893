"""Bit-reversal permutations.

The radix-2 Cooley-Tukey NTT produces (or consumes) data in bit-reversed
order.  MAT (paper section IV-B) eliminates such reorderings at runtime by
folding the permutation into the offline twiddle-factor matrices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def is_power_of_two(n: int) -> bool:
    """Return True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def bit_reverse_value(value: int, bits: int) -> int:
    """Reverse the lowest ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@lru_cache(maxsize=None)
def _bit_reverse_array(n: int) -> np.ndarray:
    """Read-only cached permutation array for length ``n`` (safe to share)."""
    bits = n.bit_length() - 1
    indices = np.array([bit_reverse_value(i, bits) for i in range(n)], dtype=np.int64)
    indices.flags.writeable = False
    return indices


def bit_reverse_indices(n: int) -> np.ndarray:
    """Return the length-``n`` bit-reversal permutation as an index array.

    The permutation for each length is computed once per process and returned
    as a shared read-only array (the NTT hot path calls this on every gather,
    so the Python bit-twiddling loop must not rerun per transform).
    """
    if not is_power_of_two(n):
        raise ValueError("bit reversal is defined for power-of-two lengths")
    return _bit_reverse_array(n)
