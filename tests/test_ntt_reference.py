"""Tests for the reference radix-2 negacyclic NTT."""

import numpy as np
import pytest

from repro.numtheory.modular import primitive_nth_root_of_unity
from repro.numtheory.primes import generate_ntt_prime
from repro.poly.negacyclic import negacyclic_convolve, poly_add
from repro.poly.ntt_reference import (
    negacyclic_evaluate_direct,
    ntt_forward_negacyclic,
    ntt_inverse_negacyclic,
    ntt_pointwise_multiply,
)


class TestForwardInverse:
    def test_roundtrip(self, ring, rng):
        a = ring.random_uniform(rng)
        forward = ntt_forward_negacyclic(a, ring.modulus, ring.psi)
        assert np.array_equal(
            ntt_inverse_negacyclic(forward, ring.modulus, ring.psi), a
        )

    def test_matches_direct_evaluation(self, ring, rng):
        a = ring.random_uniform(rng)
        fast = ntt_forward_negacyclic(a, ring.modulus, ring.psi)
        direct = negacyclic_evaluate_direct(a, ring.modulus, ring.psi)
        assert np.array_equal(fast, direct)

    def test_linear(self, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        lhs = ntt_forward_negacyclic(
            poly_add(a, b, ring.modulus), ring.modulus, ring.psi
        )
        rhs = poly_add(
            ntt_forward_negacyclic(a, ring.modulus, ring.psi),
            ntt_forward_negacyclic(b, ring.modulus, ring.psi),
            ring.modulus,
        )
        assert np.array_equal(lhs, rhs)

    def test_constant_polynomial(self, ring):
        a = ring.zeros()
        a[0] = 7
        forward = ntt_forward_negacyclic(a, ring.modulus, ring.psi)
        assert np.all(forward == 7)

    def test_zero(self, ring):
        zero = ring.zeros()
        assert np.all(ntt_forward_negacyclic(zero, ring.modulus, ring.psi) == 0)

    def test_rejects_non_power_of_two(self, ring):
        with pytest.raises(ValueError):
            ntt_forward_negacyclic(np.zeros(48, dtype=np.uint64), ring.modulus, ring.psi)

    def test_batched_input(self, ring, rng):
        batch = np.stack([ring.random_uniform(rng) for _ in range(3)])
        forward = ntt_forward_negacyclic(batch, ring.modulus, ring.psi)
        for row_in, row_out in zip(batch, forward):
            assert np.array_equal(
                ntt_forward_negacyclic(row_in, ring.modulus, ring.psi), row_out
            )


def ntt_product(a, b, modulus, psi):
    """Negacyclic product through the reference NTT: forward, pointwise, inverse."""
    return ntt_inverse_negacyclic(
        ntt_pointwise_multiply(
            ntt_forward_negacyclic(a, modulus, psi),
            ntt_forward_negacyclic(b, modulus, psi),
            modulus,
        ),
        modulus,
        psi,
    )


class TestConvolutionTheorem:
    def test_pointwise_equals_schoolbook(self, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        fast = ntt_product(a, b, ring.modulus, ring.psi)
        slow = negacyclic_convolve(a, b, ring.modulus)
        assert np.array_equal(fast, slow)

    def test_pointwise_multiply(self, ring, rng):
        a = rng.integers(0, ring.modulus, size=16, dtype=np.uint64)
        b = rng.integers(0, ring.modulus, size=16, dtype=np.uint64)
        expected = (a.astype(object) * b.astype(object)) % ring.modulus
        assert np.array_equal(
            ntt_pointwise_multiply(a, b, ring.modulus), expected.astype(np.uint64)
        )

    @pytest.mark.parametrize("degree_exp", [3, 4, 5, 7])
    def test_multiple_sizes(self, degree_exp, rng):
        degree = 1 << degree_exp
        q = generate_ntt_prime(24, degree)
        psi = primitive_nth_root_of_unity(2 * degree, q)
        a = rng.integers(0, q, size=degree, dtype=np.uint64)
        b = rng.integers(0, q, size=degree, dtype=np.uint64)
        assert np.array_equal(ntt_product(a, b, q, psi), negacyclic_convolve(a, b, q))
