"""Tests for CRT composition/decomposition and the RnsBasis container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory.crt import RnsBasis, crt_compose, crt_decompose, garner_compose

MODULI = [97, 101, 103, 107]
PRODUCT = 97 * 101 * 103 * 107


class TestCrtFunctions:
    def test_roundtrip(self):
        value = 123456789
        residues = crt_decompose(value, MODULI)
        assert crt_compose(residues, MODULI) == value % PRODUCT

    def test_garner_matches_crt(self):
        value = 987654321
        residues = crt_decompose(value, MODULI)
        assert garner_compose(residues, MODULI) == crt_compose(residues, MODULI)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crt_compose([1, 2], MODULI)
        with pytest.raises(ValueError):
            garner_compose([1, 2], MODULI)

    @given(value=st.integers(min_value=0, max_value=PRODUCT - 1))
    @settings(max_examples=200, deadline=None)
    def test_property_roundtrip(self, value):
        assert crt_compose(crt_decompose(value, MODULI), MODULI) == value

    @given(value=st.integers(min_value=0, max_value=PRODUCT - 1))
    @settings(max_examples=200, deadline=None)
    def test_property_garner_roundtrip(self, value):
        assert garner_compose(crt_decompose(value, MODULI), MODULI) == value


class TestRnsBasis:
    def test_generation(self, rns_basis):
        assert rns_basis.size == 4
        assert len(set(rns_basis.moduli)) == 4
        assert all(q % (2 * rns_basis.degree) == 1 for q in rns_basis.moduli)

    def test_modulus_product(self, rns_basis):
        product = 1
        for q in rns_basis.moduli:
            product *= q
        assert rns_basis.modulus_product == product

    def test_hat_inverse_property(self, rns_basis):
        big_q = rns_basis.modulus_product
        for i, q in enumerate(rns_basis.moduli):
            hat = big_q // q
            assert (hat * rns_basis.hat_inverse(i)) % q == 1

    def test_keep_limbs_and_drop_last_build_no_hat_inverses(self, rns_basis):
        """Level drops and limb slices pay no big-int hat-inverse build; the
        constants appear on first use and match a fresh basis'."""
        from repro.poly.rns_poly import RnsPolynomial

        kept = RnsPolynomial.zero(rns_basis).keep_limbs(3).basis
        dropped = rns_basis.drop_last()
        for basis in (kept, dropped, rns_basis.sub_basis(1, 3)):
            assert "_hat_inverses" not in vars(basis)
        fresh = RnsBasis(moduli=dropped.moduli, degree=dropped.degree)
        assert [dropped.hat_inverse(i) for i in range(dropped.size)] == [
            fresh.hat_inverse(i) for i in range(fresh.size)
        ]
        assert "_hat_inverses" in vars(dropped)

    def test_hat_modulo(self, rns_basis):
        big_q = rns_basis.modulus_product
        for i, q in enumerate(rns_basis.moduli):
            assert rns_basis.hat_modulo(i, 65537) == (big_q // q) % 65537

    def test_compose_decompose(self, rns_basis, rng):
        value = int(rng.integers(0, 2**60))
        assert rns_basis.compose(rns_basis.decompose(value)) == value

    def test_decompose_array_shape(self, rns_basis):
        values = [1, 2, 3, 4, 5]
        matrix = rns_basis.decompose_array(values)
        assert matrix.shape == (rns_basis.size, 5)

    def test_compose_array_roundtrip(self, rns_basis, rng):
        values = [int(v) for v in rng.integers(0, 2**50, size=8)]
        matrix = rns_basis.decompose_array(values)
        assert rns_basis.compose_array(matrix) == values

    def test_compose_array_shape_check(self, rns_basis):
        with pytest.raises(ValueError):
            rns_basis.compose_array(np.zeros((2, 3), dtype=np.uint64))

    def test_drop_last(self, rns_basis):
        smaller = rns_basis.drop_last()
        assert smaller.size == rns_basis.size - 1
        assert smaller.moduli == rns_basis.moduli[:-1]
        with pytest.raises(ValueError):
            rns_basis.drop_last(rns_basis.size)

    def test_extend(self, rns_basis):
        extra = RnsBasis.generate(2, 26, rns_basis.degree)
        extended = rns_basis.extend(extra)
        assert extended.size == rns_basis.size + 2
        assert extended.moduli[: rns_basis.size] == rns_basis.moduli

    def test_extend_degree_mismatch(self, rns_basis):
        other = RnsBasis.generate(1, 28, rns_basis.degree * 2)
        with pytest.raises(ValueError):
            rns_basis.extend(other)

    def test_duplicate_moduli_rejected(self):
        with pytest.raises(ValueError):
            RnsBasis(moduli=(97, 97), degree=8)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            RnsBasis(moduli=(), degree=8)
