"""Tests for homomorphic polynomial evaluation (Chebyshev + PS + EvalMod).

Three layers: exact algebra (Chebyshev division checked against Clenshaw
over ``fractions.Fraction``), series fitting
(NumPy ``chebval`` is the reference everywhere), and the homomorphic
evaluators on the real CKKS stack -- including the operation-counter
consistency the schedule model relies on.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import (
    CkksEncoder,
    CkksEvaluator,
    CkksParameters,
    Decryptor,
    Encryptor,
    KeyGenerator,
)
from repro.ckks.poly_eval import (
    COEFFICIENT_TOLERANCE,
    ChebyshevPowerBasis,
    ChebyshevSeries,
    EvalModPoly,
    chebyshev_divmod,
    clenshaw,
    eval_mod,
    evaluate_chebyshev,
    evaluate_chebyshev_horner,
    ps_operation_counts,
)

# ---------------------------------------------------------------------------
# Exact algebra (no ciphertexts)
# ---------------------------------------------------------------------------

rational_coefficients = st.lists(
    st.integers(min_value=-999, max_value=999).map(lambda n: Fraction(n, 64)),
    min_size=2,
    max_size=48,
)


class TestChebyshevAlgebra:
    @given(coefficients=rational_coefficients, n=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity_exact(self, coefficients, n):
        """``f = q * T_n + r`` holds exactly over the rationals."""
        quotient, remainder = chebyshev_divmod(coefficients, n)
        assert len(remainder) == min(n, len(coefficients))
        t = Fraction(7, 19)
        t_n = clenshaw([Fraction(0)] * n + [Fraction(1)], t)
        lhs = clenshaw(coefficients, t)
        rhs = clenshaw(quotient, t) * t_n + clenshaw(remainder, t)
        assert lhs == rhs

    def test_divmod_short_dividend(self):
        quotient, remainder = chebyshev_divmod([1.0, 2.0], 4)
        assert quotient == [0.0]
        assert remainder == [1.0, 2.0]

    def test_divmod_rejects_degree_zero_divisor(self):
        with pytest.raises(ValueError):
            chebyshev_divmod([1.0, 2.0, 3.0], 0)

    def test_clenshaw_matches_numpy(self):
        rng = np.random.default_rng(3)
        coefficients = rng.normal(size=24)
        t = 0.37
        assert clenshaw(list(coefficients), t) == pytest.approx(
            np.polynomial.chebyshev.chebval(t, coefficients), rel=1e-12
        )


class TestPsPlan:
    @pytest.mark.parametrize("degree", [3, 7, 15, 31, 63, 127])
    def test_mult_count_near_two_sqrt_d(self, degree):
        plan = ps_operation_counts(degree)
        assert plan["he_mult"] <= 2 * np.sqrt(degree) + 4
        assert plan["he_mult"] >= np.sqrt(degree) - 1

    def test_explicit_baby_count_respected(self):
        plan = ps_operation_counts(31, baby_count=4)
        assert plan["baby_count"] == 4

    def test_search_beats_or_ties_fixed_splits(self):
        best = ps_operation_counts(63)
        for m in (2, 4, 8, 16, 32):
            assert best["he_mult"] <= ps_operation_counts(63, baby_count=m)["he_mult"]


class TestChebyshevSeries:
    def test_fit_reproduces_smooth_function(self):
        series = ChebyshevSeries.fit(np.sin, 23, (-3.0, 3.0))
        x = np.linspace(-3, 3, 257)
        assert np.abs(series(x) - np.sin(x)).max() < 1e-10

    def test_fit_is_exact_on_polynomials(self):
        series = ChebyshevSeries.fit(lambda x: 2 * x**3 - x + 0.5, 5, (-2.0, 2.0))
        truncated = series.truncated()
        assert truncated.degree == 3
        x = np.linspace(-2, 2, 33)
        assert np.abs(series(x) - (2 * x**3 - x + 0.5)).max() < 1e-12

    def test_fit_intervals_concentrates_accuracy(self):
        intervals = [(-2.1, -1.9), (-0.1, 0.1), (1.9, 2.1)]
        series = ChebyshevSeries.fit_intervals(
            lambda x: np.sin(np.pi * x), 21, (-2.5, 2.5), intervals
        )
        for lo, hi in intervals:
            x = np.linspace(lo, hi, 65)
            assert np.abs(series(x) - np.sin(np.pi * x)).max() < 1e-8

    def test_fit_intervals_validates_bounds(self):
        with pytest.raises(ValueError):
            ChebyshevSeries.fit_intervals(np.sin, 7, (-1.0, 1.0), [(0.5, 1.5)])

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ChebyshevSeries(np.array([1.0]), (1.0, 1.0))

    def test_truncated_keeps_leading(self):
        series = ChebyshevSeries(np.array([1.0, 0.5, 1e-16, 1e-17]), (-1, 1))
        assert series.truncated().degree == 1


# ---------------------------------------------------------------------------
# Homomorphic evaluation on the real CKKS stack
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def he_env():
    """A deep functional rig: 20 x 29-bit limbs at degree 64, scale = q.

    ``scale_bits = log_q`` keeps the scale stationary through deep rescale
    chains -- the regime polynomial evaluation (and bootstrapping) runs in.
    """
    params = CkksParameters.create(
        degree=64, limbs=20, log_q=29, dnum=10, scale_bits=29, special_limbs=3
    )
    params.error_stddev = 1.0
    keygen = KeyGenerator(params, rng=np.random.default_rng(17))
    encoder = CkksEncoder(params)
    evaluator = CkksEvaluator(params, relin_key=keygen.relinearization_key())
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    decryptor = Decryptor(params, keygen.secret_key)
    return {
        "params": params,
        "encoder": encoder,
        "evaluator": evaluator,
        "encryptor": encryptor,
        "decryptor": decryptor,
    }


def _encrypt(env, values, level=None):
    return env["encryptor"].encrypt(env["encoder"].encode(values, level=level))


def _decode(env, ciphertext):
    return env["encoder"].decode(env["decryptor"].decrypt(ciphertext))


#: Scale-derived tolerance: the rig's Delta = 2^29 puts the noise floor per
#: operation around 2^-29 * sqrt(ops); tens of operations on O(1) values stay
#: far below 1e-4 absolute.
HE_TOLERANCE = 1e-4


class TestHomomorphicChebyshev:
    def test_ps_matches_chebval_degree_15(self, he_env):
        env = he_env
        series = ChebyshevSeries.fit(np.sin, 15, (-3.0, 3.0))
        rng = np.random.default_rng(5)
        x = rng.uniform(-2.5, 2.5, env["params"].slot_count)
        result = evaluate_chebyshev(env["evaluator"], series, _encrypt(env, x))
        assert np.abs(_decode(env, result) - series(x)).max() < HE_TOLERANCE

    def test_ps_matches_chebval_degree_63(self, he_env):
        """The benchmark shape: degree 63, ~16 non-scalar multiplications."""
        env = he_env
        rng = np.random.default_rng(7)
        coefficients = rng.normal(size=64) / np.arange(1, 65)
        series = ChebyshevSeries(coefficients, (-1.0, 1.0))
        x = rng.uniform(-1, 1, env["params"].slot_count)
        env["evaluator"].reset_operation_counts()
        result = evaluate_chebyshev(env["evaluator"], series, _encrypt(env, x))
        measured = env["evaluator"].operation_counts["he_mult"]
        assert measured == ps_operation_counts(series.truncated().degree)["he_mult"]
        assert np.abs(_decode(env, result) - series(x)).max() < HE_TOLERANCE

    def test_ps_and_horner_agree(self, he_env):
        """Homomorphic PS vs the Clenshaw oracle on the same ciphertext."""
        env = he_env
        series = ChebyshevSeries.fit(lambda x: 1.0 / (1.0 + x**2), 11, (-2.0, 2.0))
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.8, 1.8, env["params"].slot_count)
        ct = _encrypt(env, x)
        ps = evaluate_chebyshev(env["evaluator"], series, ct)
        naive = evaluate_chebyshev_horner(env["evaluator"], series, ct)
        assert np.abs(_decode(env, ps) - _decode(env, naive)).max() < HE_TOLERANCE

    def test_horner_counts_match_degree(self, he_env):
        env = he_env
        series = ChebyshevSeries.fit(np.exp, 9, (-1.0, 1.0))
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, env["params"].slot_count)
        env["evaluator"].reset_operation_counts()
        evaluate_chebyshev_horner(env["evaluator"], series, _encrypt(env, x))
        # Clenshaw: one ciphertext multiplication per step, b_{d-1} is scalar.
        effective = series.truncated().degree
        assert env["evaluator"].operation_counts["he_mult"] == effective - 1

    def test_sparse_series_with_constant_remainder(self, he_env):
        """Regression: ``1 + T_4`` leaves a constant-only divmod remainder."""
        env = he_env
        rng = np.random.default_rng(33)
        x = rng.uniform(-1, 1, env["params"].slot_count)
        series = ChebyshevSeries(np.array([1.0, 0.0, 0.0, 0.0, 1.0]), (-1.0, 1.0))
        for baby_count in (None, 2, 4):
            result = evaluate_chebyshev(
                env["evaluator"], series, _encrypt(env, x), baby_count=baby_count
            )
            assert np.abs(_decode(env, result) - series(x)).max() < HE_TOLERANCE

    def test_degree_one_and_zero(self, he_env):
        env = he_env
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, env["params"].slot_count)
        ct = _encrypt(env, x)
        linear = ChebyshevSeries(np.array([0.25, -1.5]), (-1.0, 1.0))
        constant = ChebyshevSeries(np.array([0.75]), (-1.0, 1.0))
        for series in (linear, constant):
            for evaluate in (evaluate_chebyshev, evaluate_chebyshev_horner):
                result = evaluate(env["evaluator"], series, ct)
                assert np.abs(_decode(env, result) - series(x)).max() < HE_TOLERANCE

    @pytest.mark.slow
    @given(
        degree=st.integers(2, 9),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_random_series_decode(self, he_env, degree, seed):
        """Random coefficients/degrees/intervals vs chebval (hypothesis)."""
        env = he_env
        rng = np.random.default_rng(seed)
        coefficients = rng.uniform(-1, 1, degree + 1)
        coefficients[-1] = coefficients[-1] + np.sign(coefficients[-1] + 0.5)
        half_width = float(rng.uniform(0.5, 4.0))
        series = ChebyshevSeries(coefficients, (-half_width, half_width))
        x = rng.uniform(-half_width, half_width, env["params"].slot_count)
        result = evaluate_chebyshev(env["evaluator"], series, _encrypt(env, x))
        scale_tolerance = HE_TOLERANCE * max(1.0, np.abs(series(x)).max())
        assert np.abs(_decode(env, result) - series(x)).max() < scale_tolerance

    def test_power_basis_cache_shares_multiplications(self, he_env):
        env = he_env
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, env["params"].slot_count)
        basis = ChebyshevPowerBasis(env["evaluator"], _encrypt(env, x))
        basis.power(8)
        after_eight = basis.multiplications
        basis.power(4)  # already computed on the way to T_8
        assert basis.multiplications == after_eight
        decoded = _decode(env, basis.power(8))
        expected = np.polynomial.chebyshev.chebval(x, [0] * 8 + [1])
        assert np.abs(decoded - expected).max() < HE_TOLERANCE


class TestEvaluatorAlignment:
    """The level/scale helpers the polynomial engine runs on."""

    def test_mul_plain_scalar(self, he_env):
        env = he_env
        rng = np.random.default_rng(19)
        x = rng.uniform(-1, 1, env["params"].slot_count)
        ct = _encrypt(env, x)
        scaled = env["evaluator"].rescale(
            env["evaluator"].mul_plain_scalar(ct, -0.375)
        )
        assert np.abs(_decode(env, scaled) - (-0.375 * x)).max() < HE_TOLERANCE

    def test_add_sub_scalar_complex(self, he_env):
        env = he_env
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, env["params"].slot_count)
        ct = _encrypt(env, x)
        shifted = env["evaluator"].add_scalar(ct, 0.5 - 0.25j)
        assert np.abs(_decode(env, shifted) - (x + 0.5 - 0.25j)).max() < HE_TOLERANCE
        restored = env["evaluator"].sub_scalar(shifted, 0.5 - 0.25j)
        assert np.abs(_decode(env, restored) - x).max() < HE_TOLERANCE

    def test_rescale_to_deep_drop(self, he_env):
        env = he_env
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, env["params"].slot_count)
        ct = _encrypt(env, x)
        target_scale = float(env["params"].scale)
        dropped = env["evaluator"].rescale_to(ct, 3, target_scale)
        assert dropped.level == 3
        assert dropped.scale == target_scale
        assert np.abs(_decode(env, dropped) - x).max() < HE_TOLERANCE

    def test_rescale_to_rejects_level_raise(self, he_env):
        env = he_env
        ct = _encrypt(env, np.zeros(env["params"].slot_count), level=2)
        with pytest.raises(ValueError):
            env["evaluator"].rescale_to(ct, 5)

    def test_align_pair_mixed_depths(self, he_env):
        env = he_env
        rng = np.random.default_rng(25)
        x = rng.uniform(-1, 1, env["params"].slot_count)
        y = rng.uniform(-1, 1, env["params"].slot_count)
        deep = _encrypt(env, x)
        shallow = env["evaluator"].rescale_to(
            _encrypt(env, y), 6, float(env["params"].scale)
        )
        lhs, rhs = env["evaluator"].align_pair(deep, shallow)
        assert lhs.level == rhs.level == 6
        assert lhs.scale == pytest.approx(rhs.scale)
        total = env["evaluator"].add(lhs, rhs)
        assert np.abs(_decode(env, total) - (x + y)).max() < HE_TOLERANCE

    def test_encode_constant_matches_dense_encode(self, he_env):
        env = he_env
        encoder = env["encoder"]
        slots = env["params"].slot_count
        for value in (0.5, -0.25 + 0.75j, 1j):
            direct = encoder.encode_constant(value, level=4)
            dense = encoder.encode(np.full(slots, value), level=4)
            assert np.abs(
                encoder.decode(direct) - encoder.decode(dense)
            ).max() < 1e-9


class TestEvalMod:
    PERIOD = 2.0

    def make(self, **kwargs):
        defaults = dict(
            k_bound=3, degree=31, double_angle=1, message_width=0.02
        )
        defaults.update(kwargs)
        return EvalModPoly.create(self.PERIOD, **defaults)

    def test_reference_reduces_near_multiples(self):
        evalmod = self.make()
        for i in range(-3, 4):
            m = np.linspace(-0.02, 0.02, 41)
            reduced = evalmod.reference(i * self.PERIOD + m)
            # Sine approximation bound: (2 pi w / P)^2 / 6 relative.
            bound = (2 * np.pi * 0.02 / self.PERIOD) ** 2 / 6 * 0.02 + 1e-9
            assert np.abs(reduced - m).max() < bound * 2

    def test_double_angle_halves_fitted_degree(self):
        folded = self.make(double_angle=1, degree=31)
        flat = self.make(double_angle=0, degree=63)
        assert folded.effective_degree <= flat.effective_degree
        x = np.linspace(-0.02, 0.02, 101)
        assert np.abs(folded.reference(x) - flat.reference(x)).max() < 1e-6

    def test_output_scaling_and_addition_plan(self):
        """Each double-angle step costs one squaring and two additions."""
        evalmod = self.make()
        assert evalmod.output_scaling == pytest.approx(self.PERIOD / (2 * np.pi))
        flat = self.make(double_angle=0)
        assert evalmod.addition_count() == flat.addition_count() + 2
        assert evalmod.multiplication_count() == flat.multiplication_count() + 1

    def test_create_validations(self):
        with pytest.raises(ValueError):
            EvalModPoly.create(-1.0, k_bound=3, degree=15)
        with pytest.raises(ValueError):
            EvalModPoly.create(2.0, k_bound=0, degree=15)
        with pytest.raises(ValueError):
            EvalModPoly.create(2.0, k_bound=3, degree=15, message_width=1.5)

    def test_homomorphic_eval_mod_near_multiples(self, he_env):
        """The accuracy satellite: inputs near multiples of the period."""
        env = he_env
        evalmod = self.make()
        rng = np.random.default_rng(27)
        slots = env["params"].slot_count
        ladder = rng.integers(-3, 4, slots)
        message = rng.uniform(-0.02, 0.02, slots)
        x = ladder * self.PERIOD + message
        env["evaluator"].reset_operation_counts()
        result = eval_mod(env["evaluator"], _encrypt(env, x), evalmod)
        decoded = _decode(env, result).real
        relative = np.abs(decoded - message).max() / np.abs(message).max()
        assert relative < 2.0**-10
        # Counter consistency: the plan prices exactly what ran.
        assert (
            env["evaluator"].operation_counts["he_mult"]
            == evalmod.multiplication_count()
        )

    def test_homomorphic_matches_reference_not_just_exact(self, he_env):
        env = he_env
        evalmod = self.make()
        rng = np.random.default_rng(31)
        slots = env["params"].slot_count
        x = rng.integers(-3, 4, slots) * self.PERIOD + rng.uniform(
            -0.02, 0.02, slots
        )
        result = eval_mod(env["evaluator"], _encrypt(env, x), evalmod)
        assert np.abs(_decode(env, result).real - evalmod.reference(x)).max() < HE_TOLERANCE
