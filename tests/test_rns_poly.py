"""Tests for RNS polynomials (limb-parallel ring elements)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory.crt import RnsBasis
from repro.poly import ntt_engine
from repro.poly.negacyclic import negacyclic_convolve
from repro.poly.rns_poly import (
    COEFF_DOMAIN,
    EVAL_DOMAIN,
    RnsPolynomial,
    basis_plan,
    ring_for,
    stacked_ntt_forward,
)


@pytest.fixture(scope="module")
def poly_pair(rns_basis, rng):
    big_q = rns_basis.modulus_product
    coeffs_a = [int(v) for v in rng.integers(0, 2**60, size=rns_basis.degree)]
    coeffs_b = [int(v) for v in rng.integers(0, 2**60, size=rns_basis.degree)]
    a = RnsPolynomial.from_int_coefficients([c % big_q for c in coeffs_a], rns_basis)
    b = RnsPolynomial.from_int_coefficients([c % big_q for c in coeffs_b], rns_basis)
    return a, b


class TestConstruction:
    def test_zero(self, rns_basis):
        zero = RnsPolynomial.zero(rns_basis)
        assert np.all(zero.residues == 0)
        assert zero.domain == COEFF_DOMAIN

    def test_shape_validation(self, rns_basis):
        with pytest.raises(ValueError):
            RnsPolynomial(rns_basis, np.zeros((2, 2), dtype=np.uint64))

    def test_bad_domain(self, rns_basis):
        with pytest.raises(ValueError):
            RnsPolynomial(
                rns_basis,
                np.zeros((rns_basis.size, rns_basis.degree), dtype=np.uint64),
                "weird",
            )

    def test_int_roundtrip(self, rns_basis, rng):
        coeffs = [int(v) % rns_basis.modulus_product for v in rng.integers(0, 2**62, size=rns_basis.degree)]
        poly = RnsPolynomial.from_int_coefficients(coeffs, rns_basis)
        assert poly.to_int_coefficients() == coeffs

    def test_signed_roundtrip(self, rns_basis):
        signed = np.array([-3, -1, 0, 2] * (rns_basis.degree // 4), dtype=np.int64)
        poly = RnsPolynomial.from_signed_coefficients(signed, rns_basis)
        assert poly.to_signed_coefficients() == signed.tolist()

    def test_wrong_length(self, rns_basis):
        with pytest.raises(ValueError):
            RnsPolynomial.from_int_coefficients([1, 2, 3], rns_basis)

    def test_ring_cache(self, rns_basis):
        r1 = ring_for(rns_basis.degree, rns_basis.moduli[0])
        r2 = ring_for(rns_basis.degree, rns_basis.moduli[0])
        assert r1 is r2


LIFT_DEGREE = 8
LIFT_BASIS = RnsBasis.generate(4, 28, LIFT_DEGREE)
LIFT_Q = LIFT_BASIS.modulus_product
LIFT_PAIR = LIFT_BASIS.moduli[0] * LIFT_BASIS.moduli[1]
#: Largest magnitude the two-limb candidate can represent.
LIFT_PAIR_EDGE = (LIFT_PAIR - 1) // 2


def bigint_signed_lift(poly: RnsPolynomial) -> list[int]:
    """Per-coefficient big-integer CRT, centred: the lift's oracle."""
    big_q = poly.basis.modulus_product
    values = [
        poly.basis.compose([int(r) for r in column]) for column in poly.residues.T
    ]
    return [v - big_q if v > big_q // 2 else v for v in values]


lift_coefficient = st.one_of(
    st.integers(-(LIFT_BASIS.moduli[0] // 2), LIFT_BASIS.moduli[0] // 2),
    st.sampled_from([LIFT_PAIR_EDGE, -LIFT_PAIR_EDGE]),
    st.sampled_from([LIFT_PAIR_EDGE + 1, -LIFT_PAIR_EDGE - 1]),
    st.integers(-(LIFT_Q // 2), LIFT_Q // 2),
)


class TestSignedLift:
    @given(
        coefficients=st.lists(
            lift_coefficient, min_size=LIFT_DEGREE, max_size=LIFT_DEGREE
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bigint_crt_in_every_regime(self, coefficients):
        poly = RnsPolynomial.from_int_coefficients(
            [c % LIFT_Q for c in coefficients], LIFT_BASIS
        )
        lifted = poly.to_signed_coefficients()
        assert lifted == coefficients == bigint_signed_lift(poly)
        assert all(type(c) is int for c in lifted)
        # The vectorised path answers exactly when two limbs hold every value.
        fits = all(abs(c) <= LIFT_PAIR_EDGE for c in coefficients)
        small = LIFT_BASIS.compose_signed_small(poly.residues)
        assert (small is not None) == fits

    def test_one_wide_coefficient_sends_the_whole_element_to_the_fallback(self):
        coefficients = [1, -1, 0, 2, -2, 3, -3, LIFT_PAIR_EDGE + 1]
        poly = RnsPolynomial.from_int_coefficients(
            [c % LIFT_Q for c in coefficients], LIFT_BASIS
        )
        assert LIFT_BASIS.compose_signed_small(poly.residues) is None
        assert poly.to_signed_coefficients() == coefficients

    def test_batched_input_still_rejected(self):
        stacked = RnsPolynomial(
            LIFT_BASIS,
            np.zeros((2, LIFT_BASIS.size, LIFT_DEGREE), dtype=np.uint64),
        )
        with pytest.raises(ValueError):
            stacked.to_signed_coefficients()

    def test_eval_domain_still_rejected(self):
        with pytest.raises(ValueError):
            RnsPolynomial.zero(LIFT_BASIS, EVAL_DOMAIN).to_signed_coefficients()

    def test_wide_moduli_take_the_fallback(self):
        basis = RnsBasis.generate(3, 32, LIFT_DEGREE)
        assert min(basis.moduli) >= 1 << 31
        signed = np.array([-3, -1, 0, 2, 5, -7, 11, 1 << 40], dtype=np.int64)
        poly = RnsPolynomial.from_signed_coefficients(signed, basis)
        assert basis.compose_signed_small(poly.residues) is None
        assert poly.to_signed_coefficients() == signed.tolist()

    def test_short_bases_keep_their_existing_path(self):
        basis = RnsBasis(moduli=LIFT_BASIS.moduli[:2], degree=LIFT_DEGREE)
        signed = np.array([-3, -1, 0, 2, 5, -7, 11, 1 << 40], dtype=np.int64)
        poly = RnsPolynomial.from_signed_coefficients(signed, basis)
        assert basis.compose_signed_small(poly.residues) is None
        assert poly.to_signed_coefficients() == signed.tolist()


class TestArithmetic:
    def test_add_matches_integer_add(self, poly_pair, rns_basis):
        a, b = poly_pair
        big_q = rns_basis.modulus_product
        expected = [
            (x + y) % big_q
            for x, y in zip(a.to_int_coefficients(), b.to_int_coefficients())
        ]
        assert a.add(b).to_int_coefficients() == expected

    def test_sub_negate(self, poly_pair):
        a, b = poly_pair
        assert a.sub(b).add(b).to_int_coefficients() == a.to_int_coefficients()
        assert np.all(a.add(a.negate()).residues == 0)

    def test_scalar_mul(self, poly_pair, rns_basis):
        a, _ = poly_pair
        big_q = rns_basis.modulus_product
        expected = [(3 * c) % big_q for c in a.to_int_coefficients()]
        assert a.scalar_mul(3).to_int_coefficients() == expected

    def test_multiply_matches_schoolbook_per_limb(self, poly_pair, rns_basis):
        a, b = poly_pair
        product = a.multiply(b).to_coeff()
        for index, q in enumerate(rns_basis.moduli):
            expected = negacyclic_convolve(a.residues[index], b.residues[index], q)
            assert np.array_equal(product.residues[index], expected)

    def test_domain_mismatch_rejected(self, poly_pair):
        a, b = poly_pair
        with pytest.raises(ValueError):
            a.add(b.to_eval())

    def test_basis_mismatch_rejected(self, poly_pair, rns_basis):
        a, _ = poly_pair
        other = RnsPolynomial.zero(
            RnsBasis(moduli=rns_basis.moduli[:2], degree=rns_basis.degree)
        )
        with pytest.raises(ValueError):
            a.add(other)


class TestDomains:
    def test_eval_roundtrip(self, poly_pair):
        a, _ = poly_pair
        assert np.array_equal(a.to_eval().to_coeff().residues, a.residues)

    def test_to_eval_idempotent(self, poly_pair):
        a, _ = poly_pair
        eval_once = a.to_eval()
        assert np.array_equal(eval_once.to_eval().residues, eval_once.residues)

    def test_reconstruction_requires_coeff_domain(self, poly_pair):
        a, _ = poly_pair
        with pytest.raises(ValueError):
            a.to_eval().to_int_coefficients()


class TestLimbOperations:
    def test_keep_limbs(self, poly_pair):
        a, _ = poly_pair
        truncated = a.keep_limbs(2)
        assert truncated.limb_count == 2
        assert np.array_equal(truncated.residues, a.residues[:2])

    def test_keep_limbs_validation(self, poly_pair):
        a, _ = poly_pair
        with pytest.raises(ValueError):
            a.keep_limbs(0)
        with pytest.raises(ValueError):
            a.keep_limbs(a.limb_count + 1)

    def test_automorphism_limbwise(self, poly_pair):
        a, _ = poly_pair
        rotated = a.automorphism(5)
        for index in range(a.limb_count):
            expected = a.ring(index).automorphism(a.residues[index], 5)
            assert np.array_equal(rotated.residues[index], expected)


class TestBasisPlan:
    def test_cached_basis_skips_the_exactness_check(self, rns_basis, rng, monkeypatch):
        """A chain-less basis' second transform reads the plan cache: the
        exactness check (``_split_shifts``) runs on a cache miss only."""
        residues = np.stack(
            [rng.integers(0, q, rns_basis.degree, dtype=np.uint64) for q in rns_basis.moduli]
        )
        first = stacked_ntt_forward(rns_basis, residues)
        calls = []
        honest = ntt_engine._split_shifts

        def spy(*args):
            calls.append(args)
            return honest(*args)

        monkeypatch.setattr(ntt_engine, "_split_shifts", spy)
        assert np.array_equal(stacked_ntt_forward(rns_basis, residues), first)
        assert basis_plan(rns_basis) is not None
        assert calls == []
