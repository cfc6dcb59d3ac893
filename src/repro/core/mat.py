"""Memory-Aligned Transformation (MAT) -- paper section IV-B.

MAT removes *runtime* data reordering (transposes, bit-reverse shuffles, slot
permutations) by observing that any reordering of a vector is multiplication
by a permutation matrix, and that this matrix can be multiplied into the
pre-known parameter matrices *offline*.  At runtime the kernel then produces
its output directly in the desired layout -- "layout invariance" -- with zero
explicit memory-movement cost.

This module provides the two embedding helpers; their user is the
layout-invariant 3-step NTT in :mod:`repro.core.ntt3step`.
"""

from __future__ import annotations

import numpy as np

def embed_permutation_into_rows(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Fold an *output* permutation into a pre-known left matrix.

    If a kernel computes ``y = M @ x`` and the schedule then needs
    ``y' = y[indices]``, MAT instead uses ``M' = M[indices, :]`` offline so the
    kernel directly produces ``y'`` (paper Fig. 9, ``Permute(VecMul)``).
    """
    matrix = np.asarray(matrix)
    return matrix[np.asarray(indices, dtype=np.int64), :]


def embed_permutation_into_cols(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Fold an *input* permutation into a pre-known right matrix.

    If the data arriving at a kernel is permuted (``x' = x[indices]``) but the
    parameter matrix expects natural order, using ``M' = M[:, indices]``
    offline makes ``M' @ x' == M @ x`` -- the runtime never has to undo the
    permutation.
    """
    matrix = np.asarray(matrix)
    # Column fancy-indexing yields an F-contiguous result; materialise it
    # C-contiguous here (offline) so runtime GEMMs never restride per call.
    return np.ascontiguousarray(matrix[:, np.asarray(indices, dtype=np.int64)])
