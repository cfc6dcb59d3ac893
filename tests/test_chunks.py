"""Tests for byte-chunk decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import chunk_count, chunk_decompose


def merged(chunks, chunk_bits=8):
    """Recombine the trailing chunk axis with Python integers."""
    return sum(int(c) << (k * chunk_bits) for k, c in enumerate(chunks))


class TestChunkCount:
    def test_paper_default(self):
        # 28-bit moduli on an 8-bit MXU need K = 4 chunks.
        assert chunk_count((1 << 28) - 57) == 4

    @pytest.mark.parametrize(
        "modulus,expected", [(255, 1), (257, 2), (65535, 2), ((1 << 24) + 1, 4), ((1 << 32) - 1, 4)]
    )
    def test_various(self, modulus, expected):
        assert chunk_count(modulus) == expected

    def test_custom_chunk_bits(self):
        assert chunk_count((1 << 28) - 57, chunk_bits=16) == 2

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            chunk_count(1)


class TestDecomposeMerge:
    def test_known_value(self):
        chunks = chunk_decompose(0x0A0B0C0D, 4)
        assert chunks.tolist() == [0x0D, 0x0C, 0x0B, 0x0A]

    def test_merge_inverse(self):
        value = np.array([123456789, 0, 1, (1 << 32) - 1], dtype=np.uint64)
        chunks = chunk_decompose(value, 4)
        assert [merged(row) for row in chunks] == value.tolist()

    def test_overflow_detected(self):
        with pytest.raises(ValueError):
            chunk_decompose(1 << 32, 4)

    def test_matrix_input(self, rng):
        values = rng.integers(0, 1 << 32, size=(5, 7), dtype=np.uint64)
        chunks = chunk_decompose(values, 4)
        assert chunks.shape == (5, 7, 4)
        assert [merged(c) for c in chunks.reshape(-1, 4)] == values.reshape(-1).tolist()

    def test_sixteen_bit_chunks(self):
        chunks = chunk_decompose(0xDEADBEEF, 2, chunk_bits=16)
        assert chunks.tolist() == [0xBEEF, 0xDEAD]

    @given(value=st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200, deadline=None)
    def test_property_roundtrip(self, value):
        assert merged(chunk_decompose(value, 4)) == value

    @given(
        value=st.integers(min_value=0, max_value=(1 << 48) - 1),
        chunk_bits=st.sampled_from([4, 8, 12, 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_roundtrip_any_width(self, value, chunk_bits):
        num = -(-48 // chunk_bits)
        assert merged(chunk_decompose(value, num, chunk_bits), chunk_bits) == value
