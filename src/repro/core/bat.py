"""Basis-Aligned Transformation (BAT) -- paper section IV-A and Alg. 2.

BAT turns a high-precision modular matrix multiplication

    Z = (A @ B) mod q        with log2(q)-bit entries

into a *dense* low-precision (``bp``-bit, i.e. int8) matrix multiplication
that a TPU MXU can execute, by exploiting that one operand is known at
compile time (twiddle factors, basis-conversion constants, evaluation keys):

* every pre-known scalar ``a`` is expanded offline into the ``K x K`` matrix
  ``M[i, j] = chunk_i((a << j*bp) mod q)`` (``DIRECTSCALARBAT`` in Alg. 2) --
  the modular reduction of the high output bases is *folded into the
  parameters*, which is what removes the ~43% zeros of the Toeplitz matrix the
  GPU flow uses (paper Fig. 7),
* the runtime operand is merely split into its ``K`` byte chunks (cheap VPU
  bit operations),
* the MXU then performs one dense ``(K*H, K*V) @ (K*V, W)`` int8 matmul with
  32-bit accumulation, and
* a short carry/merge plus one word-sized reduction (Barrett or Montgomery)
  finishes the job on the VPU.

Both orientations are provided because the layout-invariant 3-step NTT needs
the pre-known matrix on the *left* in step 1 and on the *right* in step 3:

* :func:`bat_modmatmul_left_known`  -- ``A`` pre-known, ``B`` runtime data.
* :func:`bat_modmatmul_right_known` -- ``B`` pre-known, ``A`` runtime data.

All transformations are lossless; tests verify bit-exact equality against the
schoolbook modular matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core.chunks import DEFAULT_CHUNK_BITS, chunk_count, chunk_decompose
from repro.numtheory.barrett import BarrettContext, barrett_reduce_vector
from repro.numtheory.montgomery import MontgomeryContext, montgomery_reduce_vector

Reduction = Literal["barrett", "montgomery", "exact"]

_MONTGOMERY_RADIX = 1 << 32


def direct_scalar_bat(
    value: int,
    modulus: int,
    num_chunks: int | None = None,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> np.ndarray:
    """``DIRECTSCALARBAT`` (Alg. 2): expand one pre-known scalar to a K x K block.

    Column ``j`` holds the byte chunks of ``(value << j*bp) mod q``; row ``i``
    therefore collects every contribution to output basis ``2**(i*bp)``.
    """
    if num_chunks is None:
        num_chunks = chunk_count(modulus, chunk_bits)
    block = np.zeros((num_chunks, num_chunks), dtype=np.uint64)
    for j in range(num_chunks):
        shifted = (int(value) << (j * chunk_bits)) % modulus
        block[:, j] = chunk_decompose(shifted, num_chunks, chunk_bits)
    return block


@dataclass(frozen=True)
class BatMatmulPlan:
    """An offline-compiled BAT operand plus the metadata to use it at runtime.

    Attributes
    ----------
    modulus:
        The modulus ``q`` the plan reduces against.
    num_chunks:
        ``K`` -- chunks per residue.
    chunk_bits:
        ``bp`` -- matrix-engine operand precision (8 for the MXU).
    side:
        ``"left"`` if the pre-known operand is the left matrix, ``"right"``
        otherwise.
    compiled:
        The dense low-precision compiled operand: ``(K*H, K*V)`` for a
        pre-known left matrix ``A`` of shape ``(H, V)``; ``(K*V, K*W)`` for a
        pre-known right matrix ``B`` of shape ``(V, W)``.
    reduction:
        Which word-level reduction finishes the merge: ``"barrett"``,
        ``"montgomery"`` (the compiled operand is pre-scaled by ``2**32``), or
        ``"exact"`` (plain ``%``, the reference path).
    original_shape:
        Shape of the pre-known matrix before compilation.
    """

    modulus: int
    num_chunks: int
    chunk_bits: int
    side: str
    compiled: np.ndarray
    reduction: str
    original_shape: tuple[int, int]

    @property
    def accumulator_bits(self) -> int:
        """Worst-case accumulator width ``2*bp + log2(K*V)`` (paper Fig. 8)."""
        inner = self.num_chunks * (
            self.original_shape[1] if self.side == "left" else self.original_shape[0]
        )
        return 2 * self.chunk_bits + int(np.ceil(np.log2(max(inner, 1))))


def _maybe_montgomery_scale(value: int, modulus: int, reduction: str) -> int:
    """Fold the Montgomery radix into a pre-known parameter when requested."""
    if reduction == "montgomery":
        return (value * _MONTGOMERY_RADIX) % modulus
    return value


def compile_left_operand(
    matrix: np.ndarray,
    modulus: int,
    *,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
    reduction: Reduction = "barrett",
) -> BatMatmulPlan:
    """``OFFLINECOMPILELEFT`` (Alg. 2): expand a pre-known (H, V) left matrix."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ValueError("pre-known operand must be a 2-D matrix")
    height, width = matrix.shape
    k = chunk_count(modulus, chunk_bits)
    compiled = np.zeros((k * height, k * width), dtype=np.uint64)
    for h in range(height):
        for v in range(width):
            scaled = _maybe_montgomery_scale(int(matrix[h, v]), modulus, reduction)
            compiled[h * k:(h + 1) * k, v * k:(v + 1) * k] = direct_scalar_bat(
                scaled, modulus, k, chunk_bits
            )
    return BatMatmulPlan(
        modulus=modulus,
        num_chunks=k,
        chunk_bits=chunk_bits,
        side="left",
        compiled=compiled,
        reduction=reduction,
        original_shape=(height, width),
    )


def compile_right_operand(
    matrix: np.ndarray,
    modulus: int,
    *,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
    reduction: Reduction = "barrett",
) -> BatMatmulPlan:
    """Mirror of ``OFFLINECOMPILELEFT`` for a pre-known (V, W) *right* matrix.

    The compiled block layout is transposed relative to the left-operand case:
    block ``(v, w)`` has entry ``[j, i] = chunk_i((B[v, w] << j*bp) mod q)`` so
    that runtime data chunks (indexed by ``j``) contract against it from the
    left while the output chunk index ``i`` survives on the columns.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ValueError("pre-known operand must be a 2-D matrix")
    height, width = matrix.shape
    k = chunk_count(modulus, chunk_bits)
    compiled = np.zeros((k * height, k * width), dtype=np.uint64)
    for v in range(height):
        for w in range(width):
            scaled = _maybe_montgomery_scale(int(matrix[v, w]), modulus, reduction)
            block = direct_scalar_bat(scaled, modulus, k, chunk_bits)
            compiled[v * k:(v + 1) * k, w * k:(w + 1) * k] = block.T
    return BatMatmulPlan(
        modulus=modulus,
        num_chunks=k,
        chunk_bits=chunk_bits,
        side="right",
        compiled=compiled,
        reduction=reduction,
        original_shape=(height, width),
    )


def expand_runtime_right(
    matrix: np.ndarray, plan: BatMatmulPlan
) -> np.ndarray:
    """``RUNTIMECOMPILERIGHT`` (Alg. 2): stack data chunks into a (K*V, W) matrix."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    chunks = chunk_decompose(matrix, plan.num_chunks, plan.chunk_bits)
    # (V, W, K) -> (V, K, W) -> (K*V, W)
    return chunks.transpose(0, 2, 1).reshape(
        matrix.shape[0] * plan.num_chunks, matrix.shape[1]
    )


def expand_runtime_left(
    matrix: np.ndarray, plan: BatMatmulPlan
) -> np.ndarray:
    """Chunk a runtime *left* data matrix into an (H, K*V) layout."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    chunks = chunk_decompose(matrix, plan.num_chunks, plan.chunk_bits)
    # (H, V, K) -> (H, V*K)
    return chunks.reshape(matrix.shape[0], matrix.shape[1] * plan.num_chunks)


def _merge_and_reduce(
    chunk_sums: np.ndarray, plan: BatMatmulPlan, axis_layout: str
) -> np.ndarray:
    """Merge per-basis partial sums and apply the final word-level reduction.

    ``chunk_sums`` is the int8-matmul output with 32-bit-safe accumulators:
    ``(K*H, W)`` when the plan side is ``"left"`` (output chunk index rides on
    rows) or ``(H, K*W)`` when the side is ``"right"`` (chunk index on
    columns).  The merge is the short carry-add chain of paper Fig. 7 step 5.
    """
    k = plan.num_chunks
    if axis_layout == "rows":
        height = chunk_sums.shape[0] // k
        grouped = chunk_sums.reshape(height, k, chunk_sums.shape[1])
        grouped = np.moveaxis(grouped, 1, -1)  # (H, W, K)
    else:
        width = chunk_sums.shape[1] // k
        grouped = chunk_sums.reshape(chunk_sums.shape[0], width, k)  # (H, W, K)
    merged = np.zeros(grouped.shape[:-1], dtype=np.uint64)
    for i in range(k):
        merged = merged + (grouped[..., i].astype(np.uint64) << np.uint64(i * plan.chunk_bits))

    if plan.reduction == "exact":
        return merged % np.uint64(plan.modulus)
    if plan.reduction == "barrett":
        context = BarrettContext.create(plan.modulus)
        return barrett_reduce_vector(merged, context)
    if plan.reduction == "montgomery":
        context = MontgomeryContext.create(plan.modulus)
        return montgomery_reduce_vector(merged, context)
    raise ValueError(f"unknown reduction {plan.reduction!r}")


def _low_precision_matmul(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The MXU stand-in: integer matmul of chunk matrices with wide accumulation.

    Operands are byte-valued; the product is accumulated in int64 (a superset
    of the MXU's int32 accumulators -- the plan's ``accumulator_bits`` states
    the true requirement and tests assert it stays below 32 for paper-sized
    kernels).
    """
    return lhs.astype(np.int64) @ rhs.astype(np.int64)


def bat_modmatmul_left_known(
    plan: BatMatmulPlan, data: np.ndarray
) -> np.ndarray:
    """Compute ``(A @ data) mod q`` where ``A`` was compiled offline (left side)."""
    if plan.side != "left":
        raise ValueError("plan was compiled for the right-hand side")
    expanded = expand_runtime_right(data, plan)
    chunk_sums = _low_precision_matmul(plan.compiled, expanded)
    return _merge_and_reduce(chunk_sums.astype(np.uint64), plan, "rows")


def bat_modmatmul_right_known(
    data: np.ndarray, plan: BatMatmulPlan
) -> np.ndarray:
    """Compute ``(data @ B) mod q`` where ``B`` was compiled offline (right side)."""
    if plan.side != "right":
        raise ValueError("plan was compiled for the left-hand side")
    expanded = expand_runtime_left(data, plan)
    chunk_sums = _low_precision_matmul(expanded, plan.compiled)
    return _merge_and_reduce(chunk_sums.astype(np.uint64), plan, "cols")
