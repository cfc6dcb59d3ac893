"""Tests for the chunked exact modular matrix multiplication helper."""

import numpy as np
import pytest

from repro.poly.modmat import modmatmul


class TestModMatMul:
    def test_matches_object_arithmetic(self, prime, rng):
        a = rng.integers(0, prime, size=(7, 11), dtype=np.uint64)
        b = rng.integers(0, prime, size=(11, 5), dtype=np.uint64)
        expected = (a.astype(object) @ b.astype(object)) % prime
        assert np.array_equal(modmatmul(a, b, prime), expected.astype(np.uint64))

    def test_large_inner_dimension(self, prime, rng):
        # Inner dimension larger than the safe chunk (forces chunked reduction).
        a = rng.integers(0, prime, size=(3, 1000), dtype=np.uint64)
        b = rng.integers(0, prime, size=(1000, 2), dtype=np.uint64)
        expected = (a.astype(object) @ b.astype(object)) % prime
        assert np.array_equal(modmatmul(a, b, prime), expected.astype(np.uint64))

    def test_identity(self, prime, rng):
        a = rng.integers(0, prime, size=(6, 6), dtype=np.uint64)
        identity = np.eye(6, dtype=np.uint64)
        assert np.array_equal(modmatmul(a, identity, prime), a)

    def test_shape_mismatch(self, prime):
        with pytest.raises(ValueError):
            modmatmul(np.zeros((2, 3)), np.zeros((4, 2)), prime)

    def test_unreduced_inputs_are_reduced(self, prime):
        a = np.array([[prime + 1]], dtype=np.uint64)
        b = np.array([[prime + 2]], dtype=np.uint64)
        assert modmatmul(a, b, prime)[0, 0] == 2

    def test_large_modulus_small_chunk(self, rng):
        q = (1 << 30) + 3  # not prime, but modmatmul only needs a modulus
        a = rng.integers(0, q, size=(4, 300), dtype=np.uint64)
        b = rng.integers(0, q, size=(300, 4), dtype=np.uint64)
        expected = (a.astype(object) @ b.astype(object)) % q
        assert np.array_equal(modmatmul(a, b, q), expected.astype(np.uint64))

    def test_matvec(self, prime, rng):
        matrix = rng.integers(0, prime, size=(5, 9), dtype=np.uint64)
        vector = rng.integers(0, prime, size=9, dtype=np.uint64)
        expected = (matrix.astype(object) @ vector.astype(object)) % prime
        result = modmatmul(matrix, vector[:, None], prime)
        assert result.shape == (5, 1)
        assert np.array_equal(result.reshape(-1), expected.astype(np.uint64))
