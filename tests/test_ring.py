"""Tests for the PolyRing wrapper."""

import numpy as np
import pytest

from repro.poly.negacyclic import negacyclic_convolve
from repro.poly.ring import PolyRing, automorphism_tables


class TestConstruction:
    def test_rejects_non_power_of_two(self, prime):
        with pytest.raises(ValueError):
            PolyRing(degree=48, modulus=prime)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            PolyRing(degree=64, modulus=2**20)

    def test_rejects_incongruent_prime(self):
        with pytest.raises(ValueError):
            PolyRing(degree=64, modulus=97)  # 97 != 1 mod 128

    def test_root_properties(self, ring):
        assert pow(ring.psi, ring.degree, ring.modulus) == ring.modulus - 1
        assert pow(ring.omega, ring.degree, ring.modulus) == 1


class TestSamplingAndConversion:
    def test_uniform_range(self, ring, rng):
        sample = ring.random_uniform(rng)
        assert sample.shape == (ring.degree,)
        assert int(sample.max()) < ring.modulus

    def test_ternary_values(self, ring, rng):
        sample = ring.random_ternary(rng)
        signed = ring.to_signed(sample)
        assert set(np.unique(signed)).issubset({-1, 0, 1})

    def test_gaussian_small(self, ring, rng):
        sample = ring.random_gaussian(rng)
        signed = ring.to_signed(sample)
        assert np.abs(signed).max() < 30

    def test_signed_roundtrip(self, ring):
        signed = np.array([-5, 0, 5, -1] * (ring.degree // 4), dtype=np.int64)
        assert np.array_equal(ring.to_signed(ring.from_signed(signed)), signed)


class TestArithmetic:
    def test_multiply_matches_schoolbook(self, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        assert np.array_equal(
            ring.multiply(a, b), negacyclic_convolve(a, b, ring.modulus)
        )

    def test_add_sub_negate(self, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        assert np.array_equal(ring.sub(ring.add(a, b), b), a)
        assert np.all(ring.add(a, ring.negate(a)) == 0)

    def test_scalar_mul(self, ring, rng):
        a = ring.random_uniform(rng)
        assert np.array_equal(ring.scalar_mul(a, 3), ring.add(ring.add(a, a), a))

    def test_ntt_intt_roundtrip(self, ring, rng):
        a = ring.random_uniform(rng)
        assert np.array_equal(ring.intt(ring.ntt(a)), a)

    def test_pointwise_mul_is_the_slotwise_product(self, ring, rng):
        a_eval = ring.ntt(ring.random_uniform(rng))
        b_eval = ring.ntt(ring.random_uniform(rng))
        expected = (a_eval.astype(object) * b_eval.astype(object)) % ring.modulus
        assert np.array_equal(ring.pointwise_mul(a_eval, b_eval), expected.astype(np.uint64))

    def test_inverse_of(self, ring):
        assert (ring.inverse_of(7) * 7) % ring.modulus == 1


class TestAutomorphism:
    def test_tables_send_monomials_to_signed_monomials(self):
        degree, exponent = 16, 5
        target, wrap = automorphism_tables(degree, exponent)
        for k in range(degree):
            image = k * exponent % (2 * degree)
            assert target[k] == image % degree
            assert wrap[k] == (image >= degree)
        assert not target.flags.writeable and not wrap.flags.writeable
        assert automorphism_tables(degree, exponent)[0] is target

    def test_identity_exponent(self, ring, rng):
        a = ring.random_uniform(rng)
        assert np.array_equal(ring.automorphism(a, 1), a)

    def test_rejects_even_exponent(self, ring, rng):
        with pytest.raises(ValueError):
            ring.automorphism(ring.random_uniform(rng), 2)

    def test_composition(self, ring, rng):
        a = ring.random_uniform(rng)
        two_n = 2 * ring.degree
        e1, e2 = 5, 7
        composed = ring.automorphism(ring.automorphism(a, e1), e2)
        direct = ring.automorphism(a, (e1 * e2) % two_n)
        assert np.array_equal(composed, direct)

    def test_is_ring_homomorphism(self, ring, rng):
        """automorphism(a*b) == automorphism(a) * automorphism(b)."""
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        exponent = 5
        lhs = ring.automorphism(ring.multiply(a, b), exponent)
        rhs = ring.multiply(
            ring.automorphism(a, exponent), ring.automorphism(b, exponent)
        )
        assert np.array_equal(lhs, rhs)

    def test_inverse_exponent_undoes(self, ring, rng):
        a = ring.random_uniform(rng)
        two_n = 2 * ring.degree
        exponent = 5
        inverse_exponent = pow(exponent, -1, two_n)
        assert np.array_equal(
            ring.automorphism(ring.automorphism(a, exponent), inverse_exponent), a
        )
