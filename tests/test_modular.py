"""Tests for exact modular arithmetic primitives."""

import pytest

from repro.numtheory.modular import (
    find_generator,
    is_primitive_nth_root,
    mod_inv,
    primitive_nth_root_of_unity,
)
from repro.numtheory.primes import generate_ntt_prime


class TestModInv:
    def test_mod_inv_roundtrip(self):
        q = 268369921
        for value in (2, 17, 123456, q - 1):
            inverse = mod_inv(value, q)
            assert (value * inverse) % q == 1

    def test_mod_inv_nonexistent(self):
        with pytest.raises(ValueError):
            mod_inv(6, 12)

    def test_mod_inv_negative_modulus(self):
        with pytest.raises(ValueError):
            mod_inv(3, -5)


class TestRootsOfUnity:
    def test_generator_has_full_order(self):
        q = generate_ntt_prime(20, 64)
        g = find_generator(q)
        assert pow(g, q - 1, q) == 1
        assert pow(g, (q - 1) // 2, q) != 1

    def test_primitive_2n_root(self):
        degree = 128
        q = generate_ntt_prime(28, degree)
        psi = primitive_nth_root_of_unity(2 * degree, q)
        assert is_primitive_nth_root(psi, 2 * degree, q)
        # psi^N must be -1 for a negacyclic transform to exist.
        assert pow(psi, degree, q) == q - 1

    def test_omega_is_nth_root(self):
        degree = 64
        q = generate_ntt_prime(28, degree)
        psi = primitive_nth_root_of_unity(2 * degree, q)
        omega = pow(psi, 2, q)
        assert is_primitive_nth_root(omega, degree, q)

    def test_root_does_not_exist(self):
        with pytest.raises(ValueError):
            primitive_nth_root_of_unity(64, 97)  # 64 does not divide 96

    def test_not_primitive(self):
        q = generate_ntt_prime(20, 64)
        assert not is_primitive_nth_root(1, 64, q)

    def test_find_generator_requires_prime(self):
        with pytest.raises(ValueError):
            find_generator(100)
