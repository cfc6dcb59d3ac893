"""Tests for fast RNS basis conversion (BConv)."""

import numpy as np
import pytest

from repro.numtheory.crt import RnsBasis
from repro.poly.basis_conversion import BasisConversion
from repro.poly.rns_poly import RnsPolynomial


@pytest.fixture(scope="module")
def conversion(rns_basis):
    target = RnsBasis.generate(6, 30, rns_basis.degree)
    return BasisConversion(source=rns_basis, target=target)


@pytest.fixture(scope="module")
def sample_poly(rns_basis):
    rng = np.random.default_rng(2101)
    coeffs = [
        int(v) % rns_basis.modulus_product
        for v in rng.integers(0, 2**62, size=rns_basis.degree)
    ]
    return RnsPolynomial.from_int_coefficients(coeffs, rns_basis)


class TestConstruction:
    def test_constant_matrix_shape(self, conversion, rns_basis):
        assert conversion.conversion_matrix.shape == (6, rns_basis.size)

    def test_degree_mismatch(self, rns_basis):
        with pytest.raises(ValueError):
            BasisConversion(
                source=rns_basis, target=RnsBasis.generate(2, 28, rns_basis.degree * 2)
            )

    def test_hat_inverse_constants(self, conversion, rns_basis):
        big_q = rns_basis.modulus_product
        for i, q in enumerate(rns_basis.moduli):
            assert (int(conversion.hat_inverses[i]) * ((big_q // q) % q)) % q == 1


class TestConversion:
    def test_fast_conversion_error_bound(self, conversion, sample_poly, rns_basis):
        """Fast BConv equals exact conversion plus e*Q with 0 <= e < L."""
        fast = conversion.convert(sample_poly)
        exact = conversion.convert_exact(sample_poly)
        big_q = rns_basis.modulus_product
        limbs = rns_basis.size
        for j, p_j in enumerate(conversion.target.moduli):
            allowed = {
                (int(x) + e * big_q) % p_j
                for e in range(limbs + 1)
                for x in [0]
            }
            for exact_val, fast_val in zip(exact.residues[j], fast.residues[j]):
                candidates = {(int(exact_val) + e * big_q) % p_j for e in range(limbs + 1)}
                assert int(fast_val) in candidates

    def test_exact_conversion_matches_crt(self, conversion, sample_poly):
        exact = conversion.convert_exact(sample_poly)
        integers = sample_poly.to_int_coefficients()
        for j, p_j in enumerate(conversion.target.moduli):
            expected = np.array([c % p_j for c in integers], dtype=np.uint64)
            assert np.array_equal(exact.residues[j], expected)

    def test_overshoot_is_multiple_of_q(self, conversion, rns_basis):
        """The fast/exact discrepancy is always e*Q for an integer 0 <= e < L."""
        coeffs = list(range(rns_basis.degree))
        poly = RnsPolynomial.from_int_coefficients(coeffs, rns_basis)
        fast = conversion.convert(poly)
        exact = conversion.convert_exact(poly)
        big_q = rns_basis.modulus_product
        for j, p_j in enumerate(conversion.target.moduli):
            q_inv = pow(big_q % p_j, -1, p_j)
            for fast_val, exact_val in zip(fast.residues[j], exact.residues[j]):
                overshoot = ((int(fast_val) - int(exact_val)) * q_inv) % p_j
                assert overshoot < rns_basis.size

    def test_zero_converts_to_zero(self, conversion, rns_basis):
        zero = RnsPolynomial.zero(rns_basis)
        assert np.all(conversion.convert(zero).residues == 0)

    def test_requires_coeff_domain(self, conversion, sample_poly):
        with pytest.raises(ValueError):
            conversion.convert(sample_poly.to_eval())

    def test_requires_matching_source(self, conversion, rns_basis):
        other_basis = RnsBasis.generate(3, 26, rns_basis.degree)
        other = RnsPolynomial.zero(other_basis)
        with pytest.raises(ValueError):
            conversion.convert(other)

    def test_step1_step2_composition(self, conversion, sample_poly):
        direct = conversion.convert_residues(sample_poly.residues)
        staged = conversion.step2(conversion.step1(sample_poly.residues))
        assert np.array_equal(direct, staged)

    def test_output_domain_and_basis(self, conversion, sample_poly):
        converted = conversion.convert(sample_poly)
        assert converted.domain == "coeff"
        assert converted.basis.moduli == conversion.target.moduli


class TestWideModuli:
    """Step 2 at moduli of 33 bits and more: the shared split GEMM while a
    three-way split is exact, the Python-int path beyond it."""

    @staticmethod
    def _row_reference(conversion, scaled):
        """Each output row's ``sum_i M[j, i] * s_i mod p_j`` in Python ints."""
        moduli = conversion._target_col[:, 0].tolist()
        matrix = conversion.conversion_matrix.astype(object)
        return np.array(
            [(row @ scaled.astype(object)) % p for row, p in zip(matrix, moduli)],
            dtype=np.uint64,
        )

    @pytest.mark.parametrize(
        "bits,partitions,on_gemm",
        [
            (33, (), True),
            (36, ((0, 1), (1, 3)), True),
            (40, (), False),
            (40, ((0, 2), (2, 3)), False),
            (50, (), False),
        ],
    )
    def test_step2_matches_per_row_reference(self, rng, bits, partitions, on_gemm):
        primes = RnsBasis.generate(5, bits, 64).moduli
        source = RnsBasis(moduli=primes[:3], degree=64)
        target = RnsBasis(moduli=primes[3:], degree=64)
        conversion = BasisConversion(source, target, partitions)
        assert (conversion._gemm is not None) == on_gemm
        scaled = np.stack([rng.integers(0, q, 64, dtype=np.uint64) for q in primes[:3]])
        got = conversion.step2(scaled)
        assert got.shape == (len(conversion.partitions) * target.size, 64)
        assert np.array_equal(got, self._row_reference(conversion, scaled))
        batched = conversion.step2(np.stack([scaled, scaled[:, ::-1].copy()]))
        assert np.array_equal(batched[0], got)
        assert np.array_equal(
            batched[1], self._row_reference(conversion, scaled[:, ::-1])
        )
