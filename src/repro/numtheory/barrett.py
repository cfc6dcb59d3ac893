"""Barrett modular reduction (paper Alg. 4).

Barrett reduction replaces a division by the runtime modulus ``q`` with a
multiplication by the precomputed constant ``m = floor(2**s / q)`` and a
shift.  The paper uses it as the *final* reduction of CROSS's lazily reduced
results (Appendix G) and as one of the three algorithms in the Fig. 13
modular-reduction ablation.

``barrett_reduce_vector`` is a vectorized NumPy kernel restricted to 64-bit
words, building the needed 128-bit product from 32x32-bit multiplies exactly
like a 32-bit device datapath; BAT's final reduction uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numtheory.wordops import mul_hi_u64


@dataclass(frozen=True)
class BarrettContext:
    """Precomputed Barrett constants for a modulus ``q < 2**32``.

    Attributes
    ----------
    modulus:
        The modulus ``q``.
    shift:
        The Barrett shift ``s``; we use ``s = 64`` so a single high-half
        multiply produces the approximate quotient of any 64-bit input.
    factor:
        ``floor(2**s / q)``.
    """

    modulus: int
    shift: int
    factor: int

    @classmethod
    def create(cls, modulus: int) -> "BarrettContext":
        if not 1 < modulus < (1 << 32):
            raise ValueError("Barrett context requires 1 < q < 2**32")
        shift = 64
        factor = (1 << shift) // modulus
        return cls(modulus=modulus, shift=shift, factor=factor)


def barrett_reduce_vector(values: np.ndarray, context: BarrettContext) -> np.ndarray:
    """Vectorized Barrett reduction of uint64 values modulo ``q``.

    Valid for any 64-bit input as long as ``q < 2**32``; the result is the
    exact residue in ``[0, q)``.
    """
    values = np.asarray(values, dtype=np.uint64)
    factor = np.uint64(context.factor)
    modulus = np.uint64(context.modulus)
    quotient = mul_hi_u64(values, factor)
    with np.errstate(over="ignore"):
        remainder = values - quotient * modulus
    # At most two correction steps are ever needed.
    remainder = np.where(remainder >= modulus, remainder - modulus, remainder)
    remainder = np.where(remainder >= modulus, remainder - modulus, remainder)
    return remainder
