"""Exact modular matrix products over word-sized moduli.

A shared helper for every reference-path modular matrix multiplication in the
library (4-step NTT baseline, BConv step 2, MAT plan construction, tests).
Products of two residues below ``2**28`` fit in 56 bits, so partial sums of up
to 128 terms stay below 2**63; the implementation therefore accumulates in
uint64 and reduces modulo ``q`` between chunks of the inner dimension, which
keeps everything exact without resorting to Python-object arithmetic.
"""

from __future__ import annotations

import numpy as np


def _chunk_size_for(modulus: int) -> int:
    """Largest safe number of accumulated products before a reduction is needed."""
    product_bits = 2 * (int(modulus) - 1).bit_length()
    spare_bits = 63 - product_bits
    if spare_bits <= 0:
        return 1
    return 1 << min(spare_bits, 20)


def modmatmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact ``(a @ b) mod q`` for residue matrices with ``q < 2**31``.

    Parameters
    ----------
    a, b:
        Residue matrices (any integer dtype); ``a`` is ``(H, V)`` and ``b`` is
        ``(V, W)`` (1-D operands are treated as a single row / column).
    modulus:
        The word-sized modulus ``q``.
    """
    a = np.atleast_2d(np.asarray(a)).astype(np.uint64) % np.uint64(modulus)
    b = np.atleast_2d(np.asarray(b)).astype(np.uint64) % np.uint64(modulus)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} @ {b.shape}")
    chunk = _chunk_size_for(modulus)
    inner = a.shape[1]
    q = np.uint64(modulus)
    accumulator = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint64)
    for start in range(0, inner, chunk):
        stop = min(start + chunk, inner)
        partial = a[:, start:stop] @ b[start:stop, :]
        accumulator = (accumulator + partial % q) % q
    return accumulator
