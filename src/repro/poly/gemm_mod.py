"""The one exact modular GEMM: a constant matrix split into float64 chunks.

The paper's core mapping trick is that HE's word-sized modular matrix
multiplications run at matrix-engine speed once the constant operand is split
into narrow chunks (BAT splits into bytes).  A modular product
``matrix @ operand (mod q)`` with ``matrix = sum_k c_k * 2**(shift*(K-1-k))``
becomes ``K`` *float64* GEMMs recombined by Horner's rule

    acc = c_0 @ operand;  acc = (acc mod q) * 2**shift + c_k @ operand;  ...

and is **bit-exact** whenever every dot product and every Horner step stays
below ``2**53`` (float64's exact-integer range).  Both constant-matrix
contractions of the library run on this kernel: the four-step NTT's column and
row GEMMs (`repro.poly.ntt_engine`) and the RNS basis conversion's step 2
(`repro.poly.basis_conversion`, every digit of a key switch and ModDown's
correction), as does the one-off :func:`modular_matmul`.

The kernel has four parts:

* the exactness choice -- :func:`split_plan` takes the fewest chunks (two,
  else three) whose :func:`split_shift` split is exact for the operand width,
  the modulus width and the contraction length, or ``None``, where callers
  keep an integer path;
* the constant split -- :func:`split_halves` cuts the matrix into ``K``
  float chunks, stacked so that every chunk rides one matmul call:
  row-concatenated per limb tile for the NTT (:func:`cat_split`), one slice
  per chunk and row block for :class:`SplitGemm`;
* the reduction -- :func:`recombine` folds the ``K`` row blocks by Horner's
  rule with a division-free reciprocal reduction (:func:`lazy_reduce_into`)
  whose reciprocal *underestimates* ``1/q`` (:func:`under_inverse`), so every
  intermediate lies in ``[0, 2q)``;
* the canonicalisation -- one conditional subtract (:func:`subtract_once`)
  lands in ``[0, q)``.

:class:`SplitGemm` packages the four for a constant matrix with one modulus
per output row; the NTT's cascade calls the parts directly, through its
per-thread scratch buffers.

Exactness bound
---------------
For a matrix with entries below ``2**matrix_bits``, operands below
``2**operand_bits`` and an inner (contraction) length ``n``, a split into
chunks of ``shift`` bits is exact iff::

    operand_bits + shift + ceil(log2(n)) <= 52   and
    matrix_bits + 1 + shift <= 52

(the first bounds the dot products, the second the Horner step on a lazily
reduced accumulator below ``2q``).

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

import math
import os
import threading

import numpy as np

from repro.errors import ParameterError

#: GEMM dot products must stay below ``2**52``: float64 integers are exact up
#: to ``2**53``, and the division-free reduction (multiply by a precomputed
#: reciprocal, floor, subtract ``k*q``) needs one spare bit so ``k*q`` -- which
#: can exceed the value being reduced by up to ``q`` -- is itself exact.
FLOAT64_EXACT_BITS = 52

#: The most chunks a constant matrix is split into: three keep every
#: ``q < 2**32`` exact for the NTT up to ``N = 2**16``.
MAX_CHUNKS = 3

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


# ------------------------------------------------------------ exactness choice
def split_shift(
    operand_bits: int, matrix_bits: int, inner_length: int, chunks: int = 2
) -> int | None:
    """The chunk width of a balanced ``chunks``-way split, or ``None`` if inexact.

    The width is ``ceil(matrix_bits / chunks)``.  Two bounds must hold: every
    GEMM dot product stays below ``2**52`` (float64-exact with a spare bit
    for the reciprocal reduction), and each Horner step
    ``acc_reduced * 2**shift + chunk`` -- where ``acc_reduced`` lies lazily in
    ``[0, 2q)`` with ``q < 2**matrix_bits`` -- stays below ``2**53`` as well,
    i.e. ``matrix_bits + 1 + shift <= 52``.  The second bound only binds when
    the matrix (target) modulus is much wider than the operands.
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


def split_plan(
    operand_bits: int, matrix_bits: int, inner_length: int
) -> tuple[int, int] | None:
    """``(shift, chunks)`` of the exact split with the fewest chunks, or ``None``.

    Two chunks where :func:`split_shift` finds them exact, else three (up to
    :data:`MAX_CHUNKS`); ``None`` where no float split is exact, and the
    caller takes its integer path.
    """
    for chunks in range(2, MAX_CHUNKS + 1):
        shift = split_shift(operand_bits, matrix_bits, inner_length, chunks)
        if shift is not None:
            return shift, chunks
    return None


# ------------------------------------------------------------- constant split
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


def cat_split(matrix: np.ndarray, shift: int, chunks: int) -> np.ndarray:
    """Float chunks of a constant matrix, concatenated row-wise (high first).

    Every chunk of the split GEMM then runs in a single ``chunks``-times-high
    BLAS call, cutting kernel dispatches on small tiles.
    """
    return np.ascontiguousarray(
        np.concatenate(split_halves(matrix, shift, chunks), axis=-2)
    )


# ------------------------------------------------------------------ reduction
def under_inverse(q_f: np.ndarray) -> np.ndarray:
    """A reciprocal of ``q`` guaranteed to *underestimate* ``1/q``.

    With ``p = fl(v * inv)`` for non-negative integer ``v`` (``v < 2**53``),
    ``floor(p)`` is then ``floor(v/q)`` or one less, never more, so the lazy
    reductions land in ``[0, 2q)`` -- non-negative, which the NTT's integer
    twist and the single-subtract canonicalisation rely on.
    """
    exact = np.float64(1.0) / np.asarray(q_f, dtype=np.float64)
    return np.nextafter(np.nextafter(exact, 0.0), 0.0)


def lazy_reduce_into(values: np.ndarray, q_f, inv_q, scratch: np.ndarray) -> None:
    """In-place division-free reduction of non-negative exact-integer floats.

    ``k = floor(v * inv_q)`` with the underestimating reciprocal
    (:func:`under_inverse`) is ``floor(v/q)`` or one less, so ``v - k*q``
    lands in ``[0, 2q)``; ``k*q <= v < 2**53`` keeps every product exact.
    Four multiply-class passes through ``scratch``, no integer division and
    no allocation.
    """
    np.multiply(values, inv_q, out=scratch)
    np.floor(scratch, out=scratch)
    np.multiply(scratch, q_f, out=scratch)
    np.subtract(values, scratch, out=values)


def recombine(gemm: np.ndarray, rows: int, scale, q_f, inv_q, scratch) -> np.ndarray:
    """Horner-recombine a split GEMM's row blocks into its first, lazily reduced.

    ``gemm`` stacks one ``rows``-high block per chunk, most significant
    first: reduce, scale by ``2**shift``, add the next block, and reduce
    once more at the end, so values land in ``[0, 2q)``.
    """
    acc = gemm[..., :rows, :]
    for start in range(rows, gemm.shape[-2], rows):
        lazy_reduce_into(acc, q_f, inv_q, scratch)
        np.multiply(acc, scale, out=acc)
        np.add(acc, gemm[..., start : start + rows, :], out=acc)
    lazy_reduce_into(acc, q_f, inv_q, scratch)
    return acc


def subtract_once(values: np.ndarray, q_u, scratch: np.ndarray) -> None:
    """Canonicalise uint64 ``values`` from ``[0, 2q)`` to ``[0, q)`` in place.

    ``values - q`` wraps above every residue exactly when ``values < q``, so
    the minimum picks the reduced value; ``scratch`` takes the difference.
    """
    np.subtract(values, q_u, out=scratch)
    np.minimum(values, scratch, out=values)


# --------------------------------------------------------------------- kernel
class SplitGemm:
    """A constant matrix compiled for exact ``(matrix @ operand) mod q``.

    Built by :func:`split_gemm`.  The ``(..., R', n)`` matrix -- ``B`` row
    blocks of ``R'`` rows, ``R = B R'`` rows in all -- is held as its float
    chunks next to the moduli of its ``R`` output rows (an ``(R, 1)``
    column, or one modulus for every row) and their underestimating
    reciprocals, so a product is one batched matmul call, one Horner
    :func:`recombine` and one conditional subtract.

    The chunks are stacked as ``K B`` slices of ``R'`` rows, chunk-major,
    not row-concatenated into one ``K R``-high GEMM as the NTT's per-limb
    tiles are: BLAS sizes its thread count per slice (OpenBLAS threads a
    GEMM from ``M N K >= 2**20``), and one slice per block keeps a BConv's
    GEMMs on the calling thread, whose core `repro.parallel` and the
    serving shards already budget.  At n4096 the one ``66``-row GEMM of a
    stacked conversion woke a BLAS thread that starved the shards' own
    work (``serve_process_n4096`` p50 20 -> 50 ms).
    """

    __slots__ = ("cat", "rows", "scale", "q_u", "q_f", "inv_q")

    def __init__(self, matrix: np.ndarray, moduli, shift: int, chunks: int) -> None:
        blocks = matrix.reshape(-1, *matrix.shape[-2:])
        # Slice ``k B + b`` is chunk ``k`` of row block ``b``.
        chunked = np.stack(split_halves(blocks, shift, chunks))
        self.cat = chunked.reshape(-1, *blocks.shape[1:])
        self.rows = blocks.shape[0] * blocks.shape[1]
        self.scale = np.float64(1 << shift)
        self.q_u = np.asarray(moduli, dtype=np.uint64)
        self.q_f = self.q_u.astype(np.float64)
        self.inv_q = under_inverse(self.q_f)

    def __call__(self, operand: np.ndarray) -> np.ndarray:
        """Canonical uint64 ``(matrix @ operand) mod q``, ``(..., R, c)``.

        ``operand`` is ``(..., n, c)``: leading batch axes ride through
        ``np.matmul`` broadcasting, and its entries must be below the
        ``2**operand_bits`` the matrix was compiled for.  The GEMM output and
        the reduction scratch are views of the calling thread's buffer
        (:func:`_scratch`); only the result is allocated.
        """
        operand_f = as_blas_operand(operand, name="split-GEMM operand")
        lead, columns = operand_f.shape[:-2], operand_f.shape[-1]
        gemm_shape = (*lead, *self.cat.shape[:-1], columns)
        reduced_shape = (*lead, self.rows, columns)
        gemm_size = math.prod(gemm_shape)
        buffer = _scratch(gemm_size + math.prod(reduced_shape))
        gemm = buffer[:gemm_size].reshape(gemm_shape)
        np.matmul(self.cat, operand_f[..., None, :, :], out=gemm)
        # Chunk-major slices: the (..., K R, c) view holds chunk k in rows
        # k R .. (k+1) R, the row blocks recombine expects.
        scratch = buffer[gemm_size:].reshape(reduced_shape)
        acc = recombine(
            gemm.reshape(*lead, -1, columns),
            self.rows,
            self.scale,
            self.q_f,
            self.inv_q,
            scratch,
        )
        out = acc.astype(np.uint64)
        subtract_once(out, self.q_u, scratch.view(np.uint64))
        return out


#: Per-thread :class:`SplitGemm` scratch: one flat float64 buffer, grown to
#: the largest product this thread has run (the NTT cascade keeps its own).
#: Fresh multi-megabyte temporaries on every call cost more in page faults
#: than the reduction passes that fill them.
_SCRATCH = threading.local()


def _scratch(size: int) -> np.ndarray:
    """The first ``size`` floats of this thread's scratch buffer."""
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < size:
        _SCRATCH.buffer = buffer = np.empty(size)
    return buffer[:size]


def split_gemm(matrix: np.ndarray, moduli, operand_bits: int) -> SplitGemm | None:
    """Compile a constant matrix for operands below ``2**operand_bits``.

    ``matrix`` is ``(R, n)`` uint64, or ``(B, R', n)`` row blocks with
    ``R = B R'``, every row reduced by its modulus in ``moduli`` (an
    ``(R, 1)`` column, or one modulus for all rows).  Returns
    ``None`` where no split is exact (:func:`split_plan`), and the caller
    keeps its integer path.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    modulus_bits = (int(np.max(moduli)) - 1).bit_length()
    plan = split_plan(operand_bits, modulus_bits, matrix.shape[-1])
    return None if plan is None else SplitGemm(matrix, moduli, *plan)


def bigint_matmul(matrix: np.ndarray, operand: np.ndarray, moduli) -> np.ndarray:
    """Exact ``(matrix @ operand) mod q`` in Python ints, one modulus per row.

    The integer path where no float split is exact (:func:`split_gemm`
    returns ``None``): moduli of 39 bits or more, or wide operands over a
    long contraction.  At those widths a single product of two residues can
    overflow uint64, so the products run on Python ints.
    """
    product = np.matmul(np.asarray(matrix).astype(object), np.asarray(operand).astype(object))
    return (product % np.asarray(moduli, dtype=np.uint64).astype(object)).astype(np.uint64)


def modular_matmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact ``(a @ b) mod q``: the split GEMM when exact, Python ints otherwise.

    The convenience entry point for one-off modular matrix products (3-step /
    4-step NTT baselines, tests): the left operand is treated as the constant
    matrix and split per call.  Hot paths that reuse a constant matrix
    compile it once with :func:`split_gemm`.
    """
    a = np.atleast_2d(np.asarray(a)).astype(np.uint64) % np.uint64(modulus)
    b = np.atleast_2d(np.asarray(b)).astype(np.uint64) % np.uint64(modulus)
    if a.shape[-1] != b.shape[-2]:
        raise ParameterError(f"inner dimensions do not match: {a.shape} @ {b.shape}")
    gemm = split_gemm(a, modulus, (int(modulus) - 1).bit_length())
    return bigint_matmul(a, b, modulus) if gemm is None else gemm(b)
