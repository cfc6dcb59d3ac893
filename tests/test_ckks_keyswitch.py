"""Tests for hybrid key switching and ModDown."""

import numpy as np
import pytest

from repro.ckks.keyswitch import mod_down, switch_key
from repro.poly.rns_poly import RnsPolynomial


class TestModDown:
    def test_divides_by_special_product(self, ckks_setup, rng):
        params = ckks_setup["params"]
        level = params.limbs
        extended = params.extended_basis(level)
        p_product = params.special_product
        # A polynomial that is an exact multiple of P reduces exactly.
        small = [int(v) for v in rng.integers(0, 1000, size=params.degree)]
        coeffs = [c * p_product for c in small]
        poly = RnsPolynomial.from_int_coefficients(coeffs, extended)
        reduced = mod_down(poly, params, level)
        assert reduced.to_int_coefficients() == small

    def test_special_product_column_lifts_to_the_extended_basis(self, ckks_setup, rng):
        """``x * [P]_{q_i}`` on the level limbs is ``P * x`` over the extended basis."""
        params = ckks_setup["params"]
        level = params.limbs
        column = params.special_product_column(level)
        moduli = params.basis_at_level(level).moduli
        assert column.shape == (level, 1) and not column.flags.writeable
        assert column[:, 0].tolist() == [params.special_product % q for q in moduli]
        assert params.special_product_column(level) is column
        small = [int(v) for v in rng.integers(0, 1000, size=params.degree)]
        poly = RnsPolynomial.from_int_coefficients(small, params.basis_at_level(level))
        lifted = (poly.residues * column) % params.basis_at_level(level).moduli_array[:, None]
        scaled = RnsPolynomial.from_int_coefficients(
            [c * params.special_product for c in small], params.extended_basis(level)
        )
        assert np.array_equal(lifted, scaled.residues[:level])
        assert not scaled.residues[level:].any()

    def test_rounding_error_is_small(self, ckks_setup, rng):
        params = ckks_setup["params"]
        level = params.limbs
        extended = params.extended_basis(level)
        p_product = params.special_product
        coeffs = [
            int(high) * p_product + int(low)
            for high, low in zip(
                rng.integers(0, 1000, size=params.degree),
                rng.integers(0, 2**40, size=params.degree),
            )
        ]
        poly = RnsPolynomial.from_int_coefficients(coeffs, extended)
        reduced = mod_down(poly, params, level)
        # Signed: a quotient of 0 may round to -1, which is Q - 1 unsigned.
        for result, original in zip(reduced.to_signed_coefficients(), coeffs):
            assert abs(result - original // p_product) <= params.limbs + 1

    def test_basis_validation(self, ckks_setup):
        params = ckks_setup["params"]
        wrong = RnsPolynomial.zero(params.modulus_basis)
        with pytest.raises(ValueError):
            mod_down(wrong, params, params.limbs)


class TestSwitchKey:
    def test_switches_to_canonical_secret(self, ckks_setup, rng):
        """ks0 + ks1*s ~= d * s^2 when using the relinearisation key."""
        params = ckks_setup["params"]
        keygen = ckks_setup["keygen"]
        relin = ckks_setup["evaluator"].relin_key
        level = params.limbs
        basis = params.basis_at_level(level)
        secret = keygen.secret_key.polynomial(basis)
        secret_squared = secret.multiply(secret).to_coeff()

        d = RnsPolynomial.from_signed_coefficients(
            rng.integers(-1000, 1000, size=params.degree, dtype=np.int64), basis
        )
        ks0, ks1 = switch_key(d, relin, params, level)
        switched = ks0.add(ks1.multiply(secret).to_coeff())
        expected = d.multiply(secret_squared).to_coeff()
        error = switched.sub(expected)
        signed_error = np.array(error.to_signed_coefficients(), dtype=np.float64)
        # The switching error must be tiny relative to the modulus (noise only).
        assert np.abs(signed_error).max() < 2**24

    def test_level_mismatch_rejected(self, ckks_setup, rng):
        params = ckks_setup["params"]
        relin = ckks_setup["evaluator"].relin_key
        basis = params.basis_at_level(params.limbs)
        d = RnsPolynomial.zero(basis)
        with pytest.raises(ValueError):
            switch_key(d, relin, params, params.limbs - 1)

    def test_lower_level_switching(self, ckks_setup, rng):
        params = ckks_setup["params"]
        keygen = ckks_setup["keygen"]
        relin = ckks_setup["evaluator"].relin_key
        level = params.limbs - 1
        basis = params.basis_at_level(level)
        secret = keygen.secret_key.polynomial(basis)
        secret_squared = secret.multiply(secret).to_coeff()
        d = RnsPolynomial.from_signed_coefficients(
            rng.integers(-100, 100, size=params.degree, dtype=np.int64), basis
        )
        ks0, ks1 = switch_key(d, relin, params, level)
        switched = ks0.add(ks1.multiply(secret).to_coeff())
        error = switched.sub(d.multiply(secret_squared).to_coeff())
        signed_error = np.array(error.to_signed_coefficients(), dtype=np.float64)
        assert np.abs(signed_error).max() < 2**24
