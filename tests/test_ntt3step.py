"""Tests for the paper's Fig. 10 NTT plans: the explicit-transpose 4-step
baseline and the layout-invariant 3-step NTT (MAT + BAT)."""

import numpy as np
import pytest

from repro.core.ntt3step import FourStepNttPlan, ThreeStepNttPlan
from repro.poly.gemm_mod import modular_matmul
from repro.poly.negacyclic import negacyclic_convolve


def make_plan(ring, rows=8, cols=8, **kwargs):
    return ThreeStepNttPlan(
        degree=ring.degree, modulus=ring.modulus, psi=ring.psi, rows=rows, cols=cols, **kwargs
    )


@pytest.fixture(scope="module", params=[(8, 8), (4, 16), (16, 4)])
def four_step(request, ring):
    rows, cols = request.param
    return FourStepNttPlan(
        degree=ring.degree, modulus=ring.modulus, psi=ring.psi, rows=rows, cols=cols
    )


class TestFourStep:
    def test_matches_reference(self, four_step, ring, rng):
        a = ring.random_uniform(rng)
        assert np.array_equal(four_step.forward(a), ring.ntt(a))

    def test_inverse_roundtrip(self, four_step, ring, rng):
        a = ring.random_uniform(rng)
        assert np.array_equal(four_step.inverse(four_step.forward(a)), a)

    def test_zero_and_constant(self, four_step, ring):
        zero = ring.zeros()
        assert np.all(four_step.forward(zero) == 0)
        const = ring.zeros()
        const[0] = 5
        assert np.all(four_step.forward(const) == 5)

    def test_shape_validation(self, ring):
        with pytest.raises(ValueError):
            FourStepNttPlan(
                degree=ring.degree, modulus=ring.modulus, psi=ring.psi, rows=8, cols=16
            )

    def test_linearity(self, four_step, ring, rng):
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        lhs = four_step.forward(ring.add(a, b))
        rhs = ring.add(four_step.forward(a), four_step.forward(b))
        assert np.array_equal(lhs, rhs)


class TestPlanConstruction:
    def test_shape_validation(self, ring):
        with pytest.raises(ValueError):
            make_plan(ring, rows=8, cols=16)

    def test_bad_output_order(self, ring):
        with pytest.raises(ValueError):
            make_plan(ring, output_order="weird")

    @pytest.mark.parametrize("output_order", ["cross", "bitrev"])
    def test_inverse_parameters_invert_the_forward_ones(self, ring, output_order):
        """The analytic inverses, permutations embedded, are exact inverses."""
        plan = make_plan(ring, rows=4, cols=16, output_order=output_order)
        q = ring.modulus
        assert np.array_equal(
            modular_matmul(plan.inv_step1_matrix, plan.step1_matrix, q),
            np.eye(4, dtype=np.uint64),
        )
        assert np.array_equal(
            modular_matmul(plan.step3_matrix, plan.inv_step3_matrix, q),
            np.eye(16, dtype=np.uint64),
        )
        assert np.all(plan.step2_twiddle * plan.inv_step2_twiddle % np.uint64(q) == 1)

    def test_evaluation_permutation_is_permutation(self, ring):
        plan = make_plan(ring)
        perm = plan.evaluation_permutation
        assert sorted(perm.tolist()) == list(range(ring.degree))


class TestForwardInverse:
    @pytest.mark.parametrize("use_bat", [False, True])
    @pytest.mark.parametrize("output_order", ["cross", "bitrev"])
    def test_matches_reference_under_permutation(self, ring, rng, use_bat, output_order):
        plan = make_plan(ring, use_bat=use_bat, output_order=output_order,
                         reduction="montgomery")
        coeffs = ring.random_uniform(rng)
        reference = ring.ntt(coeffs)
        layout = plan.forward(coeffs)
        assert np.array_equal(layout, reference[plan.evaluation_permutation])
        assert np.array_equal(plan.to_reference_order(layout), reference)
        assert np.array_equal(plan.from_reference_order(reference), layout)

    @pytest.mark.parametrize("use_bat", [False, True])
    def test_inverse_roundtrip(self, ring, rng, use_bat):
        plan = make_plan(ring, use_bat=use_bat, reduction="barrett")
        coeffs = ring.random_uniform(rng)
        assert np.array_equal(plan.inverse(plan.forward(coeffs)), coeffs)

    @pytest.mark.parametrize("rows,cols", [(4, 16), (16, 4), (8, 8), (2, 32)])
    def test_all_tile_shapes(self, ring, rng, rows, cols):
        plan = make_plan(ring, rows=rows, cols=cols)
        coeffs = ring.random_uniform(rng)
        assert np.array_equal(
            plan.to_reference_order(plan.forward(coeffs)), ring.ntt(coeffs)
        )

    def test_wrong_length_rejected(self, ring):
        plan = make_plan(ring)
        with pytest.raises(ValueError):
            plan.forward(np.zeros(32, dtype=np.uint64))
        with pytest.raises(ValueError):
            plan.inverse(np.zeros(32, dtype=np.uint64))

    def test_batch_interface(self, ring, rng):
        plan = make_plan(ring)
        batch = np.stack([ring.random_uniform(rng) for _ in range(3)])
        forward = plan.forward_batch(batch)
        assert forward.shape == batch.shape
        assert np.array_equal(plan.inverse_batch(forward), batch)


class TestLayoutInvariantMultiplication:
    """Pointwise multiplication in the MAT layout realises negacyclic convolution."""

    @pytest.mark.parametrize("use_bat", [False, True])
    def test_convolution_through_layout_domain(self, ring, rng, use_bat):
        plan = make_plan(ring, use_bat=use_bat, reduction="montgomery")
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        a_layout = plan.forward(a)
        b_layout = plan.forward(b)
        product_layout = (a_layout * b_layout) % np.uint64(ring.modulus)
        product = plan.inverse(product_layout)
        assert np.array_equal(product, negacyclic_convolve(a, b, ring.modulus))

    def test_cross_and_bitrev_orders_hold_same_values(self, ring, rng):
        coeffs = ring.random_uniform(rng)
        cross = make_plan(ring, output_order="cross")
        bitrev = make_plan(ring, output_order="bitrev")
        assert np.array_equal(
            cross.to_reference_order(cross.forward(coeffs)),
            bitrev.to_reference_order(bitrev.forward(coeffs)),
        )

    def test_bat_and_exact_paths_identical(self, ring, rng):
        """BAT is a lossless transformation: identical outputs, bit for bit."""
        coeffs = ring.random_uniform(rng)
        exact_plan = make_plan(ring, use_bat=False)
        bat_plan = make_plan(ring, use_bat=True, reduction="barrett")
        assert np.array_equal(exact_plan.forward(coeffs), bat_plan.forward(coeffs))
