"""Tests for Memory-Aligned Transformation permutation embedding."""

import numpy as np

from repro.core.mat import embed_permutation_into_cols, embed_permutation_into_rows
from repro.numtheory.bitrev import bit_reverse_indices
from repro.poly.modmat import modmatmul

Q = 65537


class TestPermutationEmbedding:
    def test_row_embedding_equals_runtime_permute(self, rng):
        """MAT's core claim (Fig. 9): P(M @ x) == (P-embedded M) @ x."""
        matrix = rng.integers(0, Q, size=(16, 16), dtype=np.uint64)
        x = rng.integers(0, Q, size=(16, 1), dtype=np.uint64)
        perm = rng.permutation(16)
        runtime = modmatmul(matrix, x, Q).reshape(-1)[perm]
        embedded = modmatmul(embed_permutation_into_rows(matrix, perm), x, Q).reshape(-1)
        assert np.array_equal(runtime, embedded)

    def test_col_embedding_consumes_permuted_input(self, rng):
        """M @ x == (col-embedded M) @ P(x): the kernel accepts permuted layouts."""
        matrix = rng.integers(0, Q, size=(12, 12), dtype=np.uint64)
        x = rng.integers(0, Q, size=12, dtype=np.uint64)
        perm = rng.permutation(12)
        natural = modmatmul(matrix, x.reshape(-1, 1), Q).reshape(-1)
        # x permuted so that x_perm[i] = x[perm[i]]; embed the same indices.
        x_perm = x[perm]
        embedded = modmatmul(
            embed_permutation_into_cols(matrix, perm), x_perm.reshape(-1, 1), Q
        ).reshape(-1)
        assert np.array_equal(natural, embedded)

    def test_permutation_matrix_equivalence(self, rng):
        """Embedding into the identity yields the permutation matrix itself."""
        perm = rng.permutation(10)
        matrix = embed_permutation_into_rows(np.eye(10, dtype=np.int64), perm)
        x = rng.integers(0, 100, size=10)
        assert np.array_equal(matrix @ x, x[perm])

    def test_elementwise_fold(self, rng):
        """A Hadamard stage folds a permutation the same way (twiddle vectors)."""
        values = rng.integers(0, Q, size=20, dtype=np.uint64)
        constants = rng.integers(0, Q, size=20, dtype=np.uint64)
        perm = rng.permutation(20)
        runtime = ((values * constants) % Q)[perm]
        folded = modmatmul(
            embed_permutation_into_rows(np.diag(constants), perm), values[:, None], Q
        ).reshape(-1)
        assert np.array_equal(runtime, folded)


class TestPermutationAlgebra:
    def test_fuse(self, rng):
        """Two row embeddings in turn equal one embedding of the composition."""
        matrix = rng.integers(0, Q, size=(32, 5), dtype=np.uint64)
        first = rng.permutation(32)
        second = rng.permutation(32)
        sequential = embed_permutation_into_rows(
            embed_permutation_into_rows(matrix, first), second
        )
        assert np.array_equal(sequential, embed_permutation_into_rows(matrix, first[second]))

    def test_transpose_stride(self, rng):
        """The 4-step NTT's transpose folds into the left matrix's rows."""
        rows, cols = 4, 6
        matrix = rng.integers(0, Q, size=(rows * cols, rows * cols), dtype=np.uint64)
        x = rng.integers(0, Q, size=(rows * cols, 1), dtype=np.uint64)
        stride = np.arange(rows * cols).reshape(rows, cols).T.reshape(-1)
        runtime = modmatmul(matrix, x, Q).reshape(rows, cols).T.reshape(-1)
        embedded = modmatmul(embed_permutation_into_rows(matrix, stride), x, Q)
        assert np.array_equal(embedded.reshape(-1), runtime)

    def test_bit_reverse_fusion_is_involution(self, rng):
        matrix = rng.integers(0, Q, size=(64, 64), dtype=np.uint64)
        br = bit_reverse_indices(64)
        twice_rows = embed_permutation_into_rows(embed_permutation_into_rows(matrix, br), br)
        twice_cols = embed_permutation_into_cols(embed_permutation_into_cols(matrix, br), br)
        assert np.array_equal(twice_rows, matrix)
        assert np.array_equal(twice_cols, matrix)

    def test_row_and_col_embeddings_are_inverse(self, rng):
        perm = rng.permutation(33)
        identity = np.eye(33, dtype=np.int64)
        rows = embed_permutation_into_rows(identity, perm)
        cols = embed_permutation_into_cols(identity, perm)
        assert np.array_equal(rows @ cols, identity)
        assert np.array_equal(cols @ rows, identity)
