"""Tests for primality testing and NTT-friendly prime generation."""

import pytest

from repro.numtheory.primes import (
    generate_ntt_prime,
    generate_rns_primes,
    is_prime,
)


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert is_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 6, 9, 15, 91, 561, 1105):  # includes Carmichael numbers
            assert not is_prime(n)

    def test_negative(self):
        assert not is_prime(-7)

    def test_large_prime(self):
        assert is_prime((1 << 61) - 1)  # Mersenne prime

    def test_large_composite(self):
        assert not is_prime((1 << 61) - 3)

    def test_square_of_prime(self):
        assert not is_prime(10007 * 10007)


class TestNttPrimes:
    @pytest.mark.parametrize("bits,degree", [(20, 64), (28, 256), (28, 4096), (30, 1024)])
    def test_ntt_prime_congruence(self, bits, degree):
        q = generate_ntt_prime(bits, degree)
        assert is_prime(q)
        assert q % (2 * degree) == 1
        assert q.bit_length() == bits

    def test_below_constraint(self):
        q1 = generate_ntt_prime(28, 64)
        q2 = generate_ntt_prime(28, 64, below=q1)
        assert q2 < q1
        assert q2 % 128 == 1

    def test_rns_primes_distinct(self):
        primes = generate_rns_primes(6, 28, 128)
        assert len(set(primes)) == 6
        assert all(p % 256 == 1 for p in primes)
        assert primes == sorted(primes, reverse=True)

    def test_rns_primes_count_validation(self):
        with pytest.raises(ValueError):
            generate_rns_primes(0, 28, 64)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            generate_ntt_prime(1, 64)
