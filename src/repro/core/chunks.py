"""Byte-chunk decomposition and merging (paper Alg. 2, CHUNKDECOMPOSE/MERGE).

BAT operates on ``K = ceil(log2(q) / bp)`` chunks of ``bp`` bits each (``bp``
is the matrix engine's operand precision, 8 for the TPU MXU).  These helpers
are the runtime half of that machinery: they are cheap bit operations the VPU
performs while the heavy lifting happens in the int8 matrix engine.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CHUNK_BITS = 8


def chunk_count(modulus: int, chunk_bits: int = DEFAULT_CHUNK_BITS) -> int:
    """Number of chunks ``K = ceil(log2(q) / bp)`` needed to hold a residue."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    bit_length = (modulus - 1).bit_length()
    return max(1, -(-bit_length // chunk_bits))


def chunk_decompose(
    values: np.ndarray | int,
    num_chunks: int,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> np.ndarray:
    """Split values into ``num_chunks`` little-endian chunks of ``chunk_bits``.

    Returns an array with a trailing axis of length ``num_chunks`` (chunk 0 is
    the least-significant).  Values must fit in ``num_chunks * chunk_bits``
    bits; anything larger raises, because silently dropping high bits would
    corrupt the BAT result.
    """
    array = np.asarray(values, dtype=np.uint64)
    limit = 1 << (num_chunks * chunk_bits)
    if np.any(array >= np.uint64(limit)):
        raise ValueError(
            f"value does not fit in {num_chunks} chunks of {chunk_bits} bits"
        )
    mask = np.uint64((1 << chunk_bits) - 1)
    chunks = np.empty(array.shape + (num_chunks,), dtype=np.uint64)
    for k in range(num_chunks):
        chunks[..., k] = (array >> np.uint64(k * chunk_bits)) & mask
    return chunks
