"""Tests for 64-bit word arithmetic helpers (the 128-bit product emulation)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory.wordops import mul_hi_u64, mul_wide_u64, split_u64

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestSplit:
    def test_split_basic(self):
        hi, lo = split_u64(np.array([0x1234567890ABCDEF], dtype=np.uint64))
        assert int(hi[0]) == 0x12345678
        assert int(lo[0]) == 0x90ABCDEF

    def test_split_zero(self):
        hi, lo = split_u64(np.array([0], dtype=np.uint64))
        assert int(hi[0]) == 0 and int(lo[0]) == 0


class TestWideMultiply:
    @given(a=U64, b=U64)
    @settings(max_examples=300, deadline=None)
    def test_property_wide_product(self, a, b):
        hi, lo = mul_wide_u64(np.uint64(a), np.uint64(b))
        assert (int(hi) << 64) + int(lo) == a * b

    @given(a=U64, b=U64)
    @settings(max_examples=200, deadline=None)
    def test_property_hi_lo_consistent(self, a, b):
        assert int(mul_hi_u64(np.uint64(a), np.uint64(b))) == (a * b) >> 64

    def test_vectorized(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 1 << 63, size=1000, dtype=np.uint64) * 2 + 1
        b = rng.integers(0, 1 << 63, size=1000, dtype=np.uint64) * 2 + 1
        hi, lo = mul_wide_u64(a, b)
        for i in range(0, 1000, 97):
            product = int(a[i]) * int(b[i])
            assert (int(hi[i]) << 64) + int(lo[i]) == product

    def test_extremes(self):
        top = np.uint64((1 << 64) - 1)
        hi, lo = mul_wide_u64(top, top)
        expected = ((1 << 64) - 1) ** 2
        assert (int(hi) << 64) + int(lo) == expected
