"""Tests for Barrett, Montgomery and Shoup modular reduction (paper Alg. 4/1).

Shoup's method is checked on the companion tables the NTT engine builds for
its integer four-step twist (``ntt_engine._shoup_quotients``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory.barrett import (
    BarrettContext,
    barrett_reduce_vector,
)
from repro.numtheory.montgomery import (
    MontgomeryContext,
    montgomery_reduce,
    montgomery_reduce_lazy,
    montgomery_reduce_vector,
)
from repro.numtheory.primes import generate_ntt_prime
from repro.poly import ntt_engine

Q28 = generate_ntt_prime(28, 4096)
Q30 = generate_ntt_prime(30, 1024)
MODULI = [Q28, Q30, 65537, 12289]


def barrett_mulmod(a, b, context):
    """``a * b mod q`` for operands below ``q < 2**32``: one 64-bit product."""
    product = np.asarray(a, dtype=np.uint64) * np.asarray(b, dtype=np.uint64)
    return barrett_reduce_vector(np.atleast_1d(product), context)


def shoup_mulmod(x, w, q):
    """The engine's lazy Shoup product ``x * w - floor(x * w' / 2**32) * q``.

    ``w'`` comes from the engine's own companion table; the result is in
    ``[0, 2q)`` for any ``x < 2**32`` (the engine feeds lazy ``[0, 2q)`` data).
    """
    x = np.asarray(x, dtype=np.uint64)
    w_arr = np.asarray([w], dtype=np.uint64)
    w_shoup = ntt_engine._shoup_quotients(w_arr, np.uint64(q))
    with np.errstate(over="ignore"):
        quotient = (x * w_shoup) >> np.uint64(32)
        return x * w_arr - quotient * np.uint64(q)


# ---------------------------------------------------------------------- Barrett
class TestBarrett:
    @pytest.mark.parametrize("q", MODULI)
    def test_scalar_reduce(self, q):
        context = BarrettContext.create(q)
        edges = [0, 1, q - 1, q, q + 1, q * q, (1 << 64) - 1]
        values = np.array(edges, dtype=np.uint64)
        expected = np.array([v % q for v in edges], dtype=np.uint64)
        assert np.array_equal(barrett_reduce_vector(values, context), expected)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            BarrettContext.create(1)
        with pytest.raises(ValueError):
            BarrettContext.create(1 << 33)

    @pytest.mark.parametrize("q", MODULI)
    def test_vector_reduce_matches_scalar(self, q, rng):
        context = BarrettContext.create(q)
        values = rng.integers(0, 1 << 63, size=512, dtype=np.uint64) * 2 + 1
        expected = np.array([int(v) % q for v in values], dtype=np.uint64)
        assert np.array_equal(barrett_reduce_vector(values, context), expected)

    def test_mulmod_scalar(self):
        context = BarrettContext.create(Q28)
        assert int(barrett_mulmod(Q28 - 1, Q28 - 1, context)[0]) == ((Q28 - 1) ** 2) % Q28

    def test_mulmod_vector(self, rng):
        context = BarrettContext.create(Q28)
        a = rng.integers(0, Q28, size=256, dtype=np.uint64)
        b = rng.integers(0, Q28, size=256, dtype=np.uint64)
        expected = (a.astype(object) * b.astype(object)) % Q28
        assert np.array_equal(barrett_mulmod(a, b, context), expected.astype(np.uint64))

    @given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=200, deadline=None)
    def test_property_reduce_any_64bit(self, value):
        context = BarrettContext.create(Q28)
        reduced = barrett_reduce_vector(np.array([value], dtype=np.uint64), context)
        assert int(reduced[0]) == value % Q28


# ------------------------------------------------------------------- Montgomery
class TestMontgomery:
    @pytest.mark.parametrize("q", MODULI)
    def test_scalar_reduce(self, q):
        context = MontgomeryContext.create(q)
        r_inv = pow(1 << 32, -1, q)
        for value in (0, 1, q, q * 123457, q * (1 << 32) - 1):
            assert montgomery_reduce(value, context) == (value * r_inv) % q

    def test_lazy_range(self):
        context = MontgomeryContext.create(Q28)
        for value in (0, Q28 * (1 << 32) - 1, 12345678901234):
            lazy = montgomery_reduce_lazy(value, context)
            assert 0 <= lazy < 2 * Q28
            assert lazy % Q28 == (value * pow(1 << 32, -1, Q28)) % Q28

    def test_rejects_out_of_range(self):
        context = MontgomeryContext.create(Q28)
        with pytest.raises(ValueError):
            montgomery_reduce_lazy(Q28 << 32, context)

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            MontgomeryContext.create(2**20)

    def test_form_roundtrip(self):
        context = MontgomeryContext.create(Q28)
        for value in (0, 1, 17, Q28 - 1):
            assert context.from_montgomery(context.to_montgomery(value)) == value

    def test_mulmod_scalar(self):
        context = MontgomeryContext.create(Q28)
        product = context.to_montgomery(123456) * 654321
        assert montgomery_reduce(product, context) == (123456 * 654321) % Q28

    @pytest.mark.parametrize("q", MODULI)
    def test_vector_reduce_matches_scalar(self, q, rng):
        context = MontgomeryContext.create(q)
        values = rng.integers(0, q, size=512, dtype=np.uint64) * np.uint64(
            rng.integers(1, 1 << 31)
        )
        r_inv = pow(1 << 32, -1, q)
        expected = np.array([(int(v) * r_inv) % q for v in values], dtype=np.uint64)
        assert np.array_equal(montgomery_reduce_vector(values, context), expected)

    def test_vector_lazy_bound(self, rng):
        context = MontgomeryContext.create(Q28)
        values = rng.integers(0, Q28, size=256, dtype=np.uint64) * np.uint64(1 << 30)
        lazy = montgomery_reduce_vector(values, context, lazy=True)
        assert int(lazy.max()) < 2 * Q28

    def test_mulmod_vector_with_precomputed_form(self, rng):
        context = MontgomeryContext.create(Q28)
        a = rng.integers(0, Q28, size=128, dtype=np.uint64)
        b = rng.integers(0, Q28, size=128, dtype=np.uint64)
        a_mont = np.array([context.to_montgomery(int(x)) for x in a], dtype=np.uint64)
        expected = (a.astype(object) * b.astype(object)) % Q28
        assert np.array_equal(
            montgomery_reduce_vector(a_mont * b, context), expected.astype(np.uint64)
        )

    @given(value=st.integers(min_value=0, max_value=Q28 * (1 << 32) - 1))
    @settings(max_examples=200, deadline=None)
    def test_property_reduce(self, value):
        context = MontgomeryContext.create(Q28)
        assert montgomery_reduce(value, context) == (value * pow(1 << 32, -1, Q28)) % Q28


# ------------------------------------------------------------------------ Shoup
class TestShoup:
    def test_scalar(self):
        w = 123456789 % Q28
        for x in (0, 1, Q28 - 1, 424242):
            lazy = int(shoup_mulmod([x], w, Q28)[0])
            assert lazy < 2 * Q28
            assert lazy % Q28 == (x * w) % Q28

    def test_lazy_input_range(self):
        """Inputs up to ``2q`` (the engine's lazily reduced data) stay exact."""
        w = Q28 - 1
        xs = np.array([Q28, 2 * Q28 - 1], dtype=np.uint64)
        lazy = shoup_mulmod(xs, w, Q28)
        assert int(lazy.max()) < 2 * Q28
        assert [int(v) % Q28 for v in lazy] == [(int(x) * w) % Q28 for x in xs]

    @pytest.mark.parametrize("q", MODULI)
    def test_vector_matches_scalar(self, q, rng):
        w = int(rng.integers(1, q))
        xs = rng.integers(0, 2 * q, size=512, dtype=np.uint64)
        lazy = shoup_mulmod(xs, w, q)
        assert int(lazy.max()) < 2 * q
        expected = (xs.astype(object) * w) % q
        assert np.array_equal(lazy % np.uint64(q), expected.astype(np.uint64))

    @given(
        x=st.integers(min_value=0, max_value=2 * Q28 - 1),
        w=st.integers(min_value=0, max_value=Q28 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_shoup(self, x, w):
        lazy = int(shoup_mulmod([x], w, Q28)[0])
        assert 0 <= lazy < 2 * Q28 and lazy % Q28 == (x * w) % Q28

    def test_narrow_moduli_pack_shoup_tables(self, rng):
        q_col = np.array([[Q28], [Q30]], dtype=np.uint64)
        twist = rng.integers(0, Q28, size=(2, 8), dtype=np.uint64)
        kind, table, companions = ntt_engine._twist_pack(twist, (Q28, Q30), 16, q_col)
        assert kind == "shoup"
        assert table.dtype == companions.dtype == np.uint32
        assert np.array_equal(companions, (twist << np.uint64(32)) // q_col)

    def test_wide_modulus_falls_back_to_split(self, rng):
        wide = generate_ntt_prime(31, 1024)
        q_col = np.array([[Q28], [wide]], dtype=np.uint64)
        twist = rng.integers(0, Q28, size=(2, 8), dtype=np.uint64)
        packed = ntt_engine._twist_pack(twist, (Q28, wide), 16, q_col)
        assert packed[0] == "split"


# ------------------------------------------------------ cross-algorithm agreement
class TestReductionAgreement:
    def test_all_three_agree(self, rng):
        """Barrett, Montgomery and Shoup must all compute the same product."""
        q = Q28
        barrett = BarrettContext.create(q)
        montgomery = MontgomeryContext.create(q)
        for _ in range(50):
            a = int(rng.integers(0, q))
            b = int(rng.integers(0, q))
            expected = (a * b) % q
            assert int(barrett_mulmod(a, b, barrett)[0]) == expected
            assert montgomery_reduce(montgomery.to_montgomery(a) * b, montgomery) == expected
            assert int(shoup_mulmod([b], a, q)[0]) % q == expected
