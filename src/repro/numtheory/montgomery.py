"""Optimized Montgomery reduction (paper Alg. 1).

Montgomery reduction computes ``z * R^{-1} mod q`` for ``R = 2**32`` without
any division by ``q``.  The paper's optimized variant splits the 32x32-bit
product ``t * q`` into 16-bit partial products (Alg. 1 lines 4-7) so that the
whole reduction runs on 32-bit VPU registers; the evaluation (Fig. 13) finds
it to be the fastest reduction for the TPU.

As elsewhere, a scalar Python-integer reference and a vectorized NumPy kernel
are provided; the vectorized kernel follows Alg. 1 line by line, using only
operations a 32-bit datapath supports (the uint64 dtype is used purely as a
carrier for 32-bit x 32-bit -> 64-bit products, which real hardware exposes as
mul-hi/mul-lo instruction pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numtheory.modular import mod_inv

_RADIX_BITS = 32
_RADIX = 1 << _RADIX_BITS


@dataclass(frozen=True)
class MontgomeryContext:
    """Precomputed Montgomery constants for an odd modulus ``q < 2**32``.

    Attributes
    ----------
    modulus:
        The modulus ``q``.
    radix_bits:
        The Montgomery radix exponent (32: ``R = 2**32``).
    q_inv_neg:
        ``-q^{-1} mod R`` -- Alg. 1 writes the equivalent ``q^{-1}`` form; we
        keep the negated constant so line 2 becomes a plain multiply.
    r_squared:
        ``R^2 mod q``, used to convert values *into* Montgomery form.
    r_mod_q:
        ``R mod q``, the Montgomery representation of 1.
    """

    modulus: int
    radix_bits: int
    q_inv_neg: int
    r_squared: int
    r_mod_q: int

    @classmethod
    def create(cls, modulus: int) -> "MontgomeryContext":
        if not 1 < modulus < _RADIX:
            raise ValueError("Montgomery context requires 1 < q < 2**32")
        if modulus % 2 == 0:
            raise ValueError("Montgomery reduction requires an odd modulus")
        q_inv = mod_inv(modulus, _RADIX)
        q_inv_neg = (-q_inv) % _RADIX
        return cls(
            modulus=modulus,
            radix_bits=_RADIX_BITS,
            q_inv_neg=q_inv_neg,
            r_squared=pow(_RADIX, 2, modulus),
            r_mod_q=_RADIX % modulus,
        )

    def to_montgomery(self, value: int) -> int:
        """Convert ``value`` to Montgomery form: ``value * R mod q``."""
        return ((value % self.modulus) * _RADIX) % self.modulus

    def from_montgomery(self, value: int) -> int:
        """Convert a Montgomery-form value back to the plain representative."""
        return montgomery_reduce(value % self.modulus, self)


def montgomery_reduce(value: int, context: MontgomeryContext) -> int:
    """Exact Montgomery reduction: return ``value * R^{-1} mod q``.

    Accepts any ``value`` in ``[0, q * R)`` (which covers all 64-bit products
    of reduced operands) and returns the fully reduced residue in ``[0, q)``.
    The paper's Alg. 1 stops at the lazily reduced range ``[0, 2q)``; see
    ``montgomery_reduce_lazy`` for that exact behaviour.
    """
    lazy = montgomery_reduce_lazy(value, context)
    return lazy - context.modulus if lazy >= context.modulus else lazy


def montgomery_reduce_lazy(value: int, context: MontgomeryContext) -> int:
    """Paper Alg. 1: reduce ``value`` to ``[0, 2q)`` congruent to ``value * R^{-1}``."""
    if not 0 <= value < context.modulus << context.radix_bits:
        raise ValueError("input out of the valid Montgomery range [0, q*R)")
    mask = _RADIX - 1
    z_lo = value & mask
    z_hi = value >> context.radix_bits
    t = (z_lo * context.q_inv_neg) & mask
    t_final = (t * context.modulus) >> context.radix_bits
    # value + t*q is divisible by R.  Its low word z_lo + (t*q mod R) is either
    # 0 (when z_lo == 0, hence t == 0) or exactly R, so the carry into the
    # high word is simply "z_lo != 0".
    carry = 1 if z_lo != 0 else 0
    return z_hi + t_final + carry


def montgomery_reduce_vector(
    values: np.ndarray, context: MontgomeryContext, *, lazy: bool = False
) -> np.ndarray:
    """Vectorized Alg. 1 on uint64 inputs in ``[0, q * 2**32)``.

    Follows the 16-bit-split formulation of Alg. 1 so every multiply is at
    most 32x32 bits -> 64 bits, exactly what the VPU's 32-bit ALUs provide.
    Returns residues in ``[0, q)`` (or ``[0, 2q)`` when ``lazy=True``).
    """
    values = np.asarray(values, dtype=np.uint64)
    mask32 = np.uint64(0xFFFFFFFF)
    mask16 = np.uint64(0xFFFF)
    shift32 = np.uint64(32)
    shift16 = np.uint64(16)
    q = np.uint64(context.modulus)
    q_lo = q & mask16
    q_hi = q >> shift16
    q_inv_neg = np.uint64(context.q_inv_neg)

    z_lo = values & mask32
    z_hi = values >> shift32

    with np.errstate(over="ignore"):
        t = (z_lo * q_inv_neg) & mask32
        t_lo = t & mask16
        t_hi = t >> shift16
        # Upper 32 bits of t*q from 16-bit partial products (Alg. 1 lines 4-7).
        p_hi = t_hi * q_hi
        p_lo = t_lo * q_lo
        p_m_hi = t_hi * q_lo
        p_m_lo = t_lo * q_hi
        mid_lo = p_m_hi + p_m_lo + (p_lo >> shift16)
        t_final = p_hi + (mid_lo >> shift16)
        # value + t*q is divisible by 2**32; carry from the low words.
        low_sum = z_lo + ((t * q) & mask32)
        carry = low_sum >> shift32
        result = z_hi + t_final + carry

    if not lazy:
        result = np.where(result >= q, result - q, result)
    return result
