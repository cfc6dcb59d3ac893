"""Property tests for the cached-plan NTT engine against the reference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.params import CkksParameters
from repro.core.config import PARAMETER_SETS
from repro.numtheory.bitrev import bit_reverse_indices
from repro.numtheory.crt import RnsBasis, crt_compose
from repro.poly.basis_conversion import conversion_for
from repro.errors import ParameterError
from repro.poly.ntt_engine import (
    MAX_PLAN_MODULUS,
    NttPlanStack,
    plan_stack_for,
    supports,
)
from repro.poly.ntt_reference import (
    ntt_forward_negacyclic,
    ntt_inverse_negacyclic,
)
from repro.poly.rns_poly import EVAL_DOMAIN, RnsPolynomial
from repro.poly.ring import PolyRing

DEGREES = [2**4, 2**5, 2**6, 2**8, 2**10, 2**12]


def _random_matrix(rng, moduli, degree):
    return np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli], axis=0
    )


def _ring(degree):
    return PolyRing(degree=degree, modulus=RnsBasis.generate(1, 24, degree).moduli[0])


class TestPlanBitExactness:
    """A single-modulus ring transforms through its one-limb plan stack."""

    @pytest.mark.parametrize("degree", DEGREES)
    def test_forward_matches_reference(self, degree, rng):
        ring = _ring(degree)
        x = ring.random_uniform(rng)
        expected = ntt_forward_negacyclic(x, ring.modulus, ring.psi)
        assert np.array_equal(ring.ntt(x), expected)

    @pytest.mark.parametrize("degree", DEGREES)
    def test_inverse_matches_reference(self, degree, rng):
        ring = _ring(degree)
        x = ring.random_uniform(rng)
        expected = ntt_inverse_negacyclic(x, ring.modulus, ring.psi)
        assert np.array_equal(ring.intt(x), expected)

    @pytest.mark.parametrize("degree", DEGREES)
    def test_roundtrip(self, degree, rng):
        ring = _ring(degree)
        x = ring.random_uniform(rng)
        assert np.array_equal(ring.intt(ring.ntt(x)), x)

    def test_matches_polyring_psi(self, ring):
        """The stack derives the same deterministic root PolyRing finds."""
        assert plan_stack_for((ring.modulus,), ring.degree).psis == (ring.psi,)

    def test_batched_leading_dims(self, ring, rng):
        batch = rng.integers(0, ring.modulus, (3, 2, ring.degree), dtype=np.uint64)
        fwd = ring.ntt(batch)
        assert fwd.shape == batch.shape
        for i in range(3):
            for j in range(2):
                assert np.array_equal(
                    fwd[i, j],
                    ntt_forward_negacyclic(batch[i, j], ring.modulus, ring.psi),
                )
        assert np.array_equal(ring.intt(fwd), batch)

    def test_multiply_matches_reference_path(self, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        q, psi = ring.modulus, ring.psi
        expected = ntt_inverse_negacyclic(
            (ntt_forward_negacyclic(a, q, psi) * ntt_forward_negacyclic(b, q, psi))
            % np.uint64(q),
            q,
            psi,
        )
        assert np.array_equal(ring.multiply(a, b), expected)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_degree_64(self, seed):
        ring = _ring(64)
        x = np.random.default_rng(seed).integers(0, ring.modulus, 64, dtype=np.uint64)
        assert np.array_equal(ring.intt(ring.ntt(x)), x)


class TestParameterSetModuli:
    @pytest.mark.parametrize("name", sorted(PARAMETER_SETS))
    def test_stacked_forward_bit_exact(self, name, rng):
        """Engine output is bit-exact for every paper parameter set's moduli."""
        params = PARAMETER_SETS[name]
        limbs = min(params.limbs, 2)  # reference path is slow; 2 limbs suffice
        basis = RnsBasis.generate(limbs, params.log_q, params.degree)
        stack = plan_stack_for(basis.moduli, params.degree)
        matrix = _random_matrix(rng, basis.moduli, params.degree)
        fwd = stack.forward(matrix)
        for i, q in enumerate(basis.moduli):
            psi = stack.psis[i]
            assert np.array_equal(fwd[i], ntt_forward_negacyclic(matrix[i], q, psi))
        assert np.array_equal(stack.inverse(fwd), matrix)


class TestPlanStack:
    def test_batched_matches_per_limb(self, rns_basis, rng):
        stack = plan_stack_for(rns_basis.moduli, rns_basis.degree)
        matrix = _random_matrix(rng, rns_basis.moduli, rns_basis.degree)
        fwd = stack.forward(matrix)
        for i, q in enumerate(rns_basis.moduli):
            ring = PolyRing(degree=rns_basis.degree, modulus=q)
            assert np.array_equal(fwd[i], ring.ntt(matrix[i]))
            assert np.array_equal(stack.inverse(fwd)[i], ring.intt(fwd[i]))

    def test_shape_validation(self, rns_basis):
        stack = plan_stack_for(rns_basis.moduli, rns_basis.degree)
        with pytest.raises(ValueError):
            stack.forward(np.zeros((1, rns_basis.degree), dtype=np.uint64))

    def test_rns_polynomial_uses_stack(self, rns_basis, rng):
        matrix = _random_matrix(rng, rns_basis.moduli, rns_basis.degree)
        poly = RnsPolynomial(rns_basis, matrix)
        stack = plan_stack_for(rns_basis.moduli, rns_basis.degree)
        assert np.array_equal(poly.to_eval().residues, stack.forward(matrix))


class TestCaching:
    def test_stack_cache_returns_same_object(self, rns_basis):
        first = plan_stack_for(rns_basis.moduli, rns_basis.degree)
        second = plan_stack_for(rns_basis.moduli, rns_basis.degree)
        assert first is second

    def test_bitrev_cache_returns_same_object(self):
        assert bit_reverse_indices(256) is bit_reverse_indices(256)
        assert not bit_reverse_indices(256).flags.writeable

    def test_conversion_cache_returns_same_object(self, rns_basis):
        """BConv tables are memoised on the chain both bases are drawn from."""
        params = CkksParameters(
            degree=rns_basis.degree,
            modulus_basis=rns_basis.sub_basis(0, 2),
            special_basis=rns_basis.sub_basis(2, rns_basis.size),
            scale=2.0**20,
            dnum=2,
        )
        source, target = params.modulus_basis, params.special_basis
        assert conversion_for(source, target) is conversion_for(source, target)

    def test_polyring_delegates_to_cached_plan(self, ring):
        assert ring.plan is plan_stack_for((ring.modulus,), ring.degree)
        assert ring.plan.limb_count == 1


class TestFallbacks:
    def test_plan_rejects_modulus_too_wide_for_any_backend(self):
        # Past the 64-bit word's q**2 bound: no split serves it.
        wide = MAX_PLAN_MODULUS + 3
        assert not supports((wide,), 1 << 13)
        with pytest.raises(ParameterError):
            NttPlanStack((wide,), 1 << 13)

    def test_supports_bound(self, rns_basis):
        assert supports(rns_basis.moduli, rns_basis.degree)
        assert not supports((MAX_PLAN_MODULUS + 1,), rns_basis.degree)

    def test_wide_modulus_small_degree_plans_four_step(self, rng, monkeypatch):
        """A 31-bit prime takes the float twist and PolyRing plans it
        (four-step), bit-exact."""
        from repro.numtheory.primes import generate_ntt_prime
        from repro.poly.ntt_engine import BACKEND_FOUR_STEP

        # Auto-dispatch semantics under test: clear any matrix-leg pin.
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)

        prime = generate_ntt_prime(31, 64)
        assert prime >= 1 << 30
        assert supports((prime,), 64)
        ring = PolyRing(degree=64, modulus=prime)
        assert ring.plan is not None
        assert ring.plan.resolve_backend() == BACKEND_FOUR_STEP
        x = ring.random_uniform(rng)
        assert np.array_equal(ring.ntt(x), ntt_forward_negacyclic(x, prime, ring.psi))
        assert np.array_equal(ring.intt(ring.ntt(x)), x)

    def test_oversized_basis_falls_back_per_limb(self, rng):
        from repro.numtheory.primes import generate_ntt_prime

        prime = generate_ntt_prime(31, 64)
        basis = RnsBasis(moduli=(prime,), degree=64)
        poly = RnsPolynomial(basis, rng.integers(0, prime, (1, 64), dtype=np.uint64))
        transformed = poly.to_eval()
        assert transformed.domain == EVAL_DOMAIN
        assert np.array_equal(poly.to_eval().to_coeff().residues, poly.residues)


class TestRnsPolynomialFastPaths:
    def test_to_eval_noop_returns_self(self, rns_basis, rng):
        poly = RnsPolynomial(
            rns_basis, _random_matrix(rng, rns_basis.moduli, rns_basis.degree)
        )
        evaluated = poly.to_eval()
        assert evaluated.to_eval() is evaluated
        assert poly.to_coeff() is poly

    def test_signed_coefficients_vectorized_matches_bigint(self, rng):
        basis = RnsBasis.generate(2, 24, 32)
        assert basis.modulus_product < 2**63  # vectorized centering path
        matrix = _random_matrix(rng, basis.moduli, 32)
        poly = RnsPolynomial(basis, matrix)
        big_q = basis.modulus_product
        half = big_q // 2
        expected = [
            c - big_q if c > half else c for c in poly.to_int_coefficients()
        ]
        assert poly.to_signed_coefficients() == expected

    def test_automorphism_batched_matches_per_limb(self, rns_basis, rng):
        poly = RnsPolynomial(
            rns_basis, _random_matrix(rng, rns_basis.moduli, rns_basis.degree)
        )
        rotated = poly.automorphism(7)
        for index in range(poly.limb_count):
            expected = poly.ring(index).automorphism(poly.residues[index], 7)
            assert np.array_equal(rotated.residues[index], expected)


class TestComposeArrayFastPath:
    @pytest.mark.parametrize("limbs", [1, 2])
    def test_small_basis_matches_generic_crt(self, limbs, rng):
        basis = RnsBasis.generate(limbs, 28, 16)
        residues = _random_matrix(rng, basis.moduli, 16)
        fast = basis.compose_array(residues)
        expected = [
            crt_compose([int(residues[i, j]) for i in range(limbs)], list(basis.moduli))
            for j in range(16)
        ]
        assert fast == expected
        assert all(isinstance(v, int) for v in fast)

    def test_unreduced_residues_still_compose(self):
        basis = RnsBasis.generate(2, 20, 4)
        q0, q1 = basis.moduli
        residues = np.array(
            [[q0 + 3] * 4, [q1 + 5] * 4], dtype=np.uint64
        )
        expected = crt_compose([3, 5], list(basis.moduli))
        assert basis.compose_array(residues) == [expected] * 4

    def test_signed_residues_use_exact_path(self):
        """Negative residues must reduce like Python ints, not wrap as uint64."""
        basis = RnsBasis.generate(2, 20, 3)
        residues = np.full((2, 3), -1, dtype=np.int64)
        expected = crt_compose([-1, -1], list(basis.moduli))
        assert basis.compose_array(residues) == [expected] * 3
