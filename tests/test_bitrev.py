"""Tests for bit-reversal and permutation utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory.bitrev import (
    bit_reverse_indices,
    bit_reverse_value,
    is_power_of_two,
)


class TestPowerOfTwo:
    def test_powers(self):
        assert all(is_power_of_two(1 << k) for k in range(20))

    def test_non_powers(self):
        assert not any(is_power_of_two(n) for n in (0, 3, 6, 12, 100, -8))


class TestBitReverse:
    def test_value(self):
        assert bit_reverse_value(0b001, 3) == 0b100
        assert bit_reverse_value(0b110, 3) == 0b011
        assert bit_reverse_value(5, 4) == 10

    def test_indices_involution(self):
        indices = bit_reverse_indices(64)
        assert np.array_equal(indices[indices], np.arange(64))

    def test_indices_is_permutation(self):
        indices = bit_reverse_indices(32)
        assert sorted(indices.tolist()) == list(range(32))

    def test_non_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reverse_indices(12)

    def test_permute_roundtrip(self, rng):
        values = rng.integers(0, 100, size=128)
        indices = bit_reverse_indices(128)
        assert np.array_equal(values[indices][indices], values)

    @given(bits=st.integers(min_value=1, max_value=12), value=st.integers(min_value=0))
    @settings(max_examples=100, deadline=None)
    def test_property_double_reverse(self, bits, value):
        value = value % (1 << bits)
        assert bit_reverse_value(bit_reverse_value(value, bits), bits) == value
