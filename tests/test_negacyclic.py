"""Tests for schoolbook negacyclic arithmetic (the exactness oracle itself)."""

import numpy as np
import pytest

from repro.poly.negacyclic import (
    negacyclic_convolve,
    poly_add,
    poly_negate,
    poly_sub,
)


class TestElementwise:
    def test_add_sub_inverse(self, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        assert np.array_equal(poly_sub(poly_add(a, b, ring.modulus), b, ring.modulus), a)

    def test_negate(self, ring, rng):
        a = ring.random_uniform(rng)
        zero = poly_add(a, poly_negate(a, ring.modulus), ring.modulus)
        assert np.all(zero == 0)

    def test_negate_zero(self, ring):
        zero = ring.zeros()
        assert np.all(poly_negate(zero, ring.modulus) == 0)


class TestNegacyclicConvolve:
    def test_multiply_by_one(self, ring, rng):
        a = ring.random_uniform(rng)
        one = ring.zeros()
        one[0] = 1
        assert np.array_equal(negacyclic_convolve(a, one, ring.modulus), a)

    def test_multiply_by_x_wraps_negatively(self, ring):
        # x^(N-1) * x = x^N = -1.
        a = ring.zeros()
        a[ring.degree - 1] = 1
        x = ring.zeros()
        x[1] = 1
        product = negacyclic_convolve(a, x, ring.modulus)
        expected = ring.zeros()
        expected[0] = ring.modulus - 1
        assert np.array_equal(product, expected)

    def test_commutativity(self, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        assert np.array_equal(
            negacyclic_convolve(a, b, ring.modulus),
            negacyclic_convolve(b, a, ring.modulus),
        )

    def test_distributivity(self, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        c = ring.random_uniform(rng)
        left = negacyclic_convolve(a, poly_add(b, c, ring.modulus), ring.modulus)
        right = poly_add(
            negacyclic_convolve(a, b, ring.modulus),
            negacyclic_convolve(a, c, ring.modulus),
            ring.modulus,
        )
        assert np.array_equal(left, right)

    def test_length_mismatch(self, ring):
        with pytest.raises(ValueError):
            negacyclic_convolve(np.zeros(4), np.zeros(8), ring.modulus)

    def test_known_small_case(self):
        # (1 + x) * (1 + x) = 1 + 2x + x^2 in Z_17[x]/(x^4+1).
        a = np.array([1, 1, 0, 0], dtype=np.uint64)
        product = negacyclic_convolve(a, a, 17)
        assert product.tolist() == [1, 2, 1, 0]
