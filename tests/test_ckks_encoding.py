"""Tests for CKKS encoding (canonical embedding)."""

import tracemalloc

import numpy as np
import pytest

from repro.ckks import CkksEncoder, CkksParameters
from repro.ckks.encoding import (
    DENSE_EMBEDDING_MAX_DEGREE,
    constant_coefficients,
    embedding_matrix,
    embedding_tables,
    fft_embedding,
    fft_inverse_embedding,
    slot_exponents,
)


@pytest.fixture(scope="module")
def setup(ckks_setup):
    return ckks_setup["params"], ckks_setup["encoder"]


class TestEncodeDecode:
    def test_roundtrip_complex(self, setup, rng):
        params, encoder = setup
        values = rng.uniform(-1, 1, params.slot_count) + 1j * rng.uniform(-1, 1, params.slot_count)
        decoded = encoder.decode(encoder.encode(values))
        assert np.abs(decoded - values).max() < 1e-4

    def test_roundtrip_real(self, setup, rng):
        params, encoder = setup
        values = rng.uniform(-10, 10, params.slot_count)
        decoded = encoder.decode(encoder.encode_real(values))
        assert np.abs(decoded.real - values).max() < 1e-3
        assert np.abs(decoded.imag).max() < 1e-3

    def test_short_vector_zero_padded(self, setup):
        params, encoder = setup
        decoded = encoder.decode(encoder.encode([1.0, 2.0, 3.0]))
        assert np.abs(decoded[:3] - np.array([1, 2, 3])).max() < 1e-4
        assert np.abs(decoded[3:]).max() < 1e-4

    def test_too_many_values_rejected(self, setup):
        params, encoder = setup
        with pytest.raises(ValueError):
            encoder.encode(np.ones(params.slot_count + 1))

    def test_scale_respected(self, setup):
        params, encoder = setup
        plaintext = encoder.encode([1.0], scale=2.0**15)
        assert plaintext.scale == 2.0**15
        assert np.abs(encoder.decode(plaintext)[0] - 1.0) < 1e-2

    def test_additivity(self, setup, rng):
        """encode(a) + encode(b) decodes to a + b (the scheme's homomorphism)."""
        params, encoder = setup
        a = rng.uniform(-1, 1, params.slot_count)
        b = rng.uniform(-1, 1, params.slot_count)
        summed = encoder.encode(a).poly.add(encoder.encode(b).poly)
        from repro.ckks.ciphertext import Plaintext

        decoded = encoder.decode(Plaintext(poly=summed, scale=params.scale, level=params.limbs))
        assert np.abs(decoded.real - (a + b)).max() < 1e-3

    def test_level_parameter(self, setup):
        params, encoder = setup
        plaintext = encoder.encode([1.0], level=2)
        assert plaintext.poly.limb_count == 2

    def test_rotation_exponents(self, setup):
        params, encoder = setup
        assert encoder.slot_rotation_exponent(1) == 5
        assert encoder.conjugation_exponent == 2 * params.degree - 1

    def test_larger_ring(self):
        params = CkksParameters.create(degree=128, limbs=2, log_q=28, scale_bits=22)
        encoder = CkksEncoder(params)
        values = np.linspace(-2, 2, params.slot_count)
        decoded = encoder.decode(encoder.encode_real(values))
        assert np.abs(decoded.real - values).max() < 1e-3


# ------------------------------------------------------ FFT vs dense embedding
POWER_OF_TWO_DEGREES = [1 << k for k in range(2, 12)]  # 4 ... 2048


def relative_gap(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


class TestSlotLayout:
    @pytest.mark.parametrize("degree", [8, 64, 1024])
    def test_slot_exponents_are_every_odd_residue(self, degree):
        exponents = slot_exponents(degree)
        slots = degree // 2
        assert sorted(exponents.tolist()) == list(range(1, 2 * degree, 2))
        assert exponents[1] == 5 % (2 * degree)
        assert np.all(exponents[:slots] + exponents[slots:] == 2 * degree)

    def test_constant_coefficients_touch_two_coefficients(self):
        coefficients = constant_coefficients(1.5 - 0.25j, 2.0**10, 16)
        assert coefficients[0] == 1536 and coefficients[8] == -256
        assert np.count_nonzero(coefficients) == 2

    def test_constant_coefficients_decode_to_the_constant(self):
        degree, scale, value = 16, 2.0**20, 0.75 + 0.5j
        slots = embedding_matrix(degree) @ constant_coefficients(value, scale, degree)
        half = degree // 2
        assert np.allclose(slots[:half] / scale, value, atol=1e-6)
        assert np.allclose(slots[half:] / scale, np.conj(value), atol=1e-6)


class TestFftEmbeddingAgainstDenseOracle:
    @pytest.mark.parametrize("degree", POWER_OF_TWO_DEGREES)
    def test_forward_matches_vandermonde(self, degree):
        rng = np.random.default_rng(degree)
        positions, twist = embedding_tables(degree)
        coeffs = np.round(rng.uniform(-(2.0**40), 2.0**40, degree))
        dense = embedding_matrix(degree)[: degree // 2] @ coeffs
        fast = fft_embedding(coeffs, positions[: degree // 2], twist)
        assert relative_gap(fast, dense) <= 1e-9

    @pytest.mark.parametrize("degree", POWER_OF_TWO_DEGREES)
    def test_inverse_matches_vandermonde(self, degree):
        rng = np.random.default_rng(degree + 1)
        positions, twist = embedding_tables(degree)
        slots = rng.uniform(-1, 1, degree // 2) + 1j * rng.uniform(-1, 1, degree // 2)
        full = np.concatenate([slots, np.conj(slots)])
        dense = np.conj(embedding_matrix(degree).T) @ full / degree
        fast = fft_inverse_embedding(full, positions, twist)
        assert relative_gap(fast, dense) <= 1e-9
        # Conjugate-extended input lands on real coefficients.
        assert np.abs(fast.imag).max() < 1e-9
        # At 2^28 both paths round alike up to ties; at 2^40 the oracle's own
        # error (np.vander's running products, ~2e-12 at N=1024) exceeds a unit.
        drift = np.round(fast.real * 2.0**28) - np.round(dense.real * 2.0**28)
        assert np.abs(drift).max() <= 1

    def test_positions_are_a_permutation(self):
        positions, _ = embedding_tables(256)
        assert sorted(positions.tolist()) == list(range(256))

    @pytest.mark.parametrize(
        "degree",
        [DENSE_EMBEDDING_MAX_DEGREE // 2, DENSE_EMBEDDING_MAX_DEGREE,
         2 * DENSE_EMBEDDING_MAX_DEGREE, 4 * DENSE_EMBEDDING_MAX_DEGREE],
    )
    def test_encoder_agrees_with_oracle_either_side_of_the_base_case(self, degree):
        """The degree-selected path is invisible through the public pair."""
        params = CkksParameters.create(degree=degree, limbs=1, log_q=28, scale_bits=20)
        encoder = CkksEncoder(params)
        rng = np.random.default_rng(degree)
        dense = embedding_matrix(degree)
        coeffs = np.round(rng.uniform(-(2.0**30), 2.0**30, degree))
        assert relative_gap(
            encoder.embedding(coeffs), dense[: degree // 2] @ coeffs
        ) <= 1e-9
        slots = rng.uniform(-1, 1, degree // 2) + 1j * rng.uniform(-1, 1, degree // 2)
        full = np.concatenate([slots, np.conj(slots)])
        expected = np.real(np.conj(dense.T) @ full / degree)
        assert relative_gap(encoder.inverse_embedding(slots), expected) <= 1e-9


@pytest.fixture(scope="module")
def fft_setup():
    """A ring above the dense base case, with room for scale 2^70."""
    params = CkksParameters.create(degree=512, limbs=4, log_q=28, scale_bits=28)
    return params, CkksEncoder(params)


class TestFftSizedRing:
    @pytest.mark.parametrize("scale_bits", [28, 40])
    def test_roundtrip_within_existing_bound(self, fft_setup, scale_bits):
        params, encoder = fft_setup
        rng = np.random.default_rng(scale_bits)
        values = rng.uniform(-1, 1, params.slot_count) + 1j * rng.uniform(
            -1, 1, params.slot_count
        )
        decoded = encoder.decode(encoder.encode(values, scale=2.0**scale_bits))
        assert np.abs(decoded - values).max() < 1e-4

    def test_short_vector_zero_padded(self, fft_setup):
        _, encoder = fft_setup
        decoded = encoder.decode(encoder.encode([1.0, 2.0, 3.0]))
        assert np.abs(decoded[:3] - np.array([1, 2, 3])).max() < 1e-4
        assert np.abs(decoded[3:]).max() < 1e-4
        assert encoder.decode(encoder.encode([1.0, 2.0]), slots=2).shape == (2,)

    def test_encode_constant_agreement(self, fft_setup):
        params, encoder = fft_setup
        value = 0.75 - 0.5j
        constant = encoder.encode_constant(value)
        embedded = encoder.encode(np.full(params.slot_count, value))
        drift = np.array(constant.poly.to_signed_coefficients()) - np.array(
            embedded.poly.to_signed_coefficients()
        )
        assert np.abs(drift).max() <= 1

    def test_cached_encoding_is_shared_and_read_only(self, fft_setup):
        params, encoder = fft_setup
        values = np.linspace(-1, 1, params.slot_count)
        first = encoder.encode(values, cache=True)
        assert encoder.encode(values, cache=True).poly is first.poly
        with pytest.raises(ValueError):
            first.poly.residues[0, 0] = 1
        fresh = encoder.encode(values)
        assert fresh.poly is not first.poly
        assert np.array_equal(fresh.poly.residues, first.poly.residues)

    def test_bigint_branch_still_reached_above_2_62(self, fft_setup):
        params, encoder = fft_setup
        plaintext = encoder.encode(np.ones(params.slot_count), scale=2.0**70)
        signed = plaintext.poly.to_signed_coefficients()
        assert abs(signed[0] - 2**70) < 2**30  # no int64 wrap
        assert np.abs(encoder.decode(plaintext) - 1.0).max() < 1e-9

    def test_encode_at_basis_covers_the_extended_basis(self, fft_setup):
        params, encoder = fft_setup
        values = np.linspace(-1, 1, params.slot_count)
        level = params.limbs
        narrow = encoder.encode(values, level=level).poly
        wide = encoder.encode_at_basis(
            values, params.scale, params.extended_basis(level)
        )
        assert wide.limb_count == level + len(params.special_basis.moduli)
        assert np.array_equal(wide.residues[:level], narrow.residues)
        with pytest.raises(ValueError):
            encoder.encode_at_basis(
                np.ones(params.slot_count + 1), params.scale, narrow.basis
            )


class TestEncoderFootprint:
    def test_production_ring_encoder_stays_linear_in_degree(self):
        """A dense N x N table (256 MiB at N=4096) cannot come back unnoticed."""
        params = CkksParameters.create(degree=4096, limbs=1, log_q=28, scale_bits=20)
        tracemalloc.start()
        try:
            encoder = CkksEncoder(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(
            value.nbytes
            for value in vars(encoder).values()
            if isinstance(value, np.ndarray)
        )
        assert held == encoder.table_bytes
        assert held <= 1 << 20
        assert peak < 4 << 20
