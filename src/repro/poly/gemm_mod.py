"""Exact modular GEMMs on the float64 matrix engine (shared hi/lo split kernel).

The paper's core mapping trick is that HE's word-sized modular matrix
multiplications run at matrix-engine speed once the constant operand is split
into narrow chunks (BAT splits into bytes).  A modular product
``matrix @ operand (mod p)`` with ``matrix = hi * 2**shift + lo`` becomes two
*float64* GEMMs

    result = (((hi @ operand) mod p) << shift  +  (lo @ operand)) mod p

and is **bit-exact** whenever every dot product stays below ``2**53``
(float64's exact-integer range).  Where two chunks are too wide for that, a
``K``-chunk split recombines by Horner's rule -- reduce, scale, add, reduce.
Both the RNS basis conversion (`repro.poly.basis_conversion`) and the four-step NTT backend
(`repro.poly.ntt_engine`) execute their constant-matrix contractions through
this one kernel, so the exactness analysis, the operand staging and the
BLAS-dispatch hygiene live in a single place.

Exactness bound
---------------
For a matrix with entries below ``2**matrix_bits``, operands below
``2**operand_bits`` and an inner (contraction) length ``n``, a split into
chunks of ``shift`` bits is exact iff::

    operand_bits + shift + ceil(log2(n)) <= 52

:func:`split_shift` picks the balanced ``shift = ceil(matrix_bits / chunks)``
and returns ``None`` when that split is not exact, in which case callers take
more chunks or keep their chunked-integer fallbacks (`modular_matmul`
automates that choice).

Contiguity
----------
BLAS only runs at full speed on C-contiguous operands; ``np.matmul`` silently
copies anything else.  :func:`as_blas_operand` is the assertion-backed staging
helper every GEMM call site uses: it converts to C-contiguous float64, and in
strict mode (``REPRO_GEMM_STRICT=1`` or :func:`set_strict`) it *raises* when a
caller hands it an operand that would have triggered a silent copy, so layout
regressions in the hot paths fail tests instead of quietly eating the win.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ParameterError
from repro.poly.modmat import modmatmul

#: GEMM dot products must stay below ``2**52``: float64 integers are exact up
#: to ``2**53``, and the division-free reduction (multiply by a precomputed
#: reciprocal, floor, subtract ``k*q``) needs one spare bit so ``k*q`` -- which
#: can exceed the value being reduced by up to ``q`` -- is itself exact.
FLOAT64_EXACT_BITS = 52

_STRICT_ENV = "REPRO_GEMM_STRICT"
_STRICT = bool(int(os.environ.get(_STRICT_ENV, "0") or "0"))


def set_strict(enabled: bool) -> bool:
    """Toggle strict contiguity checking; returns the previous setting."""
    global _STRICT
    previous = _STRICT
    _STRICT = bool(enabled)
    return previous


def is_strict() -> bool:
    """True when silent-copy staging raises instead of copying."""
    return _STRICT


def as_blas_operand(
    array: np.ndarray, *, dtype=np.float64, name: str = "gemm operand"
) -> np.ndarray:
    """Stage ``array`` as a C-contiguous GEMM operand (float64 by default).

    An already-staged operand passes through untouched.  A dtype conversion
    (uint64 residues -> float64) is an inherent, expected copy.  A *layout*
    copy -- the operand was handed over non-C-contiguous, so BLAS (or the
    dtype conversion) must silently restride it -- is the regression this
    helper guards: in strict mode it raises an ``AssertionError`` naming the
    offender instead of quietly eating the bandwidth.  Pass ``dtype=None`` to
    keep the input dtype (integer staging before a modular reduction).
    """
    wants_dtype = dtype is None or array.dtype == dtype
    if array.flags.c_contiguous and array.flags.aligned and wants_dtype:
        return array
    if _STRICT and not array.flags.c_contiguous:
        raise AssertionError(
            f"{name}: silent BLAS-staging layout copy (dtype={array.dtype}, "
            f"c_contiguous={array.flags.c_contiguous}, shape={array.shape}); "
            "materialise the operand C-contiguous before dispatch"
        )
    if dtype is None:
        return np.ascontiguousarray(array)
    return np.ascontiguousarray(array, dtype=dtype)


def split_shift(
    operand_bits: int, matrix_bits: int, inner_length: int, chunks: int = 2
) -> int | None:
    """The chunk width of a balanced ``chunks``-way split, or ``None`` if inexact.

    The width is ``ceil(matrix_bits / chunks)``.  Two bounds must hold: every
    GEMM dot product stays below ``2**52`` (float64-exact with a spare bit
    for the reciprocal reduction), and each Horner step
    ``acc_reduced * 2**shift + chunk`` — where ``acc_reduced`` lies lazily in
    ``(-q, 2q)`` with ``q < 2**matrix_bits`` — stays below ``2**53`` as well,
    i.e. ``matrix_bits + 1 + shift <= 52``.  The second bound only binds when
    the matrix (target) modulus is much wider than the operands; callers fall
    back to their integer paths in that case.
    """
    if inner_length < 1:
        raise ParameterError("inner (contraction) length must be positive")
    shift = -(-matrix_bits // chunks)
    length_bits = max(1, inner_length - 1).bit_length()
    if operand_bits + shift + length_bits > FLOAT64_EXACT_BITS:
        return None
    if matrix_bits + 1 + shift > FLOAT64_EXACT_BITS:
        return None
    return shift


def split_halves(
    matrix: np.ndarray, shift: int, chunks: int = 2
) -> tuple[np.ndarray, ...]:
    """C-contiguous float64 ``shift``-bit chunks of a uint64 constant matrix.

    Most significant first, so ``matrix == sum(c_k << shift * (chunks-1-k))``
    for entries below ``2**(shift * chunks)``; two chunks are ``(hi, lo)``.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    mask = np.uint64((1 << shift) - 1)
    return tuple(
        np.ascontiguousarray(
            ((matrix >> np.uint64(shift * k)) & mask).astype(np.float64)
        )
        for k in reversed(range(chunks))
    )


def split_matrix(
    matrix: np.ndarray,
    source_moduli: tuple[int, ...],
    target_moduli: tuple[int, ...],
) -> tuple[int | None, np.ndarray | None, np.ndarray | None]:
    """Hi/lo float64 halves of a BConv-style constant matrix.

    Operand entries are residues of the *source* moduli, matrix entries are
    residues of the *target* moduli, and the contraction runs over the source
    limbs; returns ``(None, None, None)`` when the moduli are too wide, in
    which case callers keep their chunked integer paths.
    """
    source_bits = max((int(q) - 1).bit_length() for q in source_moduli)
    target_bits = max((int(p) - 1).bit_length() for p in target_moduli)
    shift = split_shift(source_bits, target_bits, len(source_moduli))
    if shift is None:
        return None, None, None
    hi, lo = split_halves(matrix, shift)
    return shift, hi, lo


def lazy_mod_reduce(values: np.ndarray, q_f: np.ndarray, inv_q: np.ndarray) -> None:
    """In-place division-free reduction of exact-integer floats, *lazily*.

    ``values`` holds integers with ``|v| < 2**52`` (exactly represented);
    afterwards each entry is congruent mod ``q`` and lies in ``(-q, 2q)``.
    The quotient ``k = floor(v * (1/q))`` can be off by one in either
    direction (reciprocal rounding), which is exactly the ``(-q, 2q)`` slack;
    ``k*q <= |v| + q < 2**53`` keeps every product exact.  Four multiply-class
    passes, no integer division -- the whole point of running reductions on
    the vector units next to the matrix engine.
    """
    k = values * inv_q
    np.floor(k, out=k)
    k *= q_f
    values -= k


def canonical_from_lazy(
    values: np.ndarray, q_f: np.ndarray, q_u: np.ndarray, inv_q: np.ndarray
) -> np.ndarray:
    """Final reduction of exact-integer floats to canonical uint64 ``[0, q)``.

    One more reciprocal reduction puts values in ``(-q, 2q)``; adding ``q``
    makes them positive for the uint64 cast, and two conditional subtracts
    (the wrap-around ``minimum`` trick) land in ``[0, q)``.
    """
    lazy_mod_reduce(values, q_f, inv_q)
    values += q_f
    out = values.astype(np.uint64)
    np.minimum(out, out - q_u, out=out)
    np.minimum(out, out - q_u, out=out)
    return out


def split_matmul(
    shift: int,
    matrix_hi: np.ndarray,
    matrix_lo: np.ndarray,
    operand: np.ndarray,
    modulus_col: np.ndarray,
) -> np.ndarray:
    """Exact modular matmul via the two float64 GEMMs of a split matrix.

    Both GEMM results are < 2**52 integers (guaranteed by the
    :func:`split_shift` bound the caller checked at compile time), so the
    hi half reduces lazily in float (:func:`lazy_mod_reduce`), the
    recombination ``hi_reduced * 2**shift + lo`` stays exact (magnitude below
    ``2q * 2**shift + 2**52 < 2**53``), and one canonicalising reduction
    finishes -- no integer division anywhere.  ``modulus_col`` must broadcast
    against the GEMM result (e.g. an ``(L', 1)`` column or ``(L, 1, 1)`` cube
    of per-row moduli); leading batch axes on ``operand`` ride through
    ``np.matmul`` broadcasting.
    """
    operand_f = as_blas_operand(operand, name="split-GEMM operand")
    q_u = np.asarray(modulus_col, dtype=np.uint64)
    q_f = q_u.astype(np.float64)
    inv_q = 1.0 / q_f
    hi = matrix_hi @ operand_f
    lo = matrix_lo @ operand_f
    lazy_mod_reduce(hi, q_f, inv_q)
    hi *= np.float64(1 << shift)
    hi += lo
    return canonical_from_lazy(hi, q_f, q_u, inv_q)


def modular_matmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact ``(a @ b) mod q``: split-GEMM when exact, chunked integers otherwise.

    The convenience entry point for one-off modular matrix products (3-step /
    4-step NTT baselines, tests): the left operand is treated as the constant
    matrix and split per call.  Hot paths that reuse a constant matrix should
    precompute :func:`split_halves` once and call :func:`split_matmul`.
    """
    a = np.atleast_2d(np.asarray(a)).astype(np.uint64) % np.uint64(modulus)
    b = np.atleast_2d(np.asarray(b)).astype(np.uint64) % np.uint64(modulus)
    if a.shape[-1] != b.shape[-2]:
        raise ParameterError(f"inner dimensions do not match: {a.shape} @ {b.shape}")
    bits = (int(modulus) - 1).bit_length()
    shift = split_shift(bits, bits, a.shape[-1])
    if shift is not None:
        hi, lo = split_halves(a, shift)
        return split_matmul(shift, hi, lo, b, np.uint64(modulus))
    return modmatmul(a, b, modulus)
