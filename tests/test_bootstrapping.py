"""Tests for packed bootstrapping: executable C2S/S2C + the schedule model.

The schedule-model tests mirror the paper's Table IX methodology; the
executable-transform tests pin down the special-FFT factorisation of the
encoder's Vandermonde embedding and the homomorphic
CoeffToSlot -> SlotToCoeff round trip on the exact CKKS stack.
"""

from math import sqrt

import numpy as np
import pytest

from repro.ckks import (
    CkksEncoder,
    CkksEvaluator,
    CkksParameters,
    Decryptor,
    Encryptor,
    KeyGenerator,
)
from repro.ckks.bootstrapping import (
    BootstrappingSchedule,
    CkksBootstrapper,
    _dense,
    build_bootstrapping_transforms,
    coeff_to_slot,
    coeff_to_slot_split,
    collapsed_fft_factors,
    composed_matrix,
    mod_raise,
    slot_permutation,
    slot_to_coeff,
    slot_to_coeff_merge,
    special_fft_matrix,
    special_fft_stage_diagonals,
)
from repro.ckks.poly_eval import ps_operation_counts
from repro.core.compiler import CompilerOptions, CrossCompiler, estimate_bootstrapping
from repro.core.config import PARAMETER_SETS
from repro.numtheory.bitrev import bit_reverse_indices, permutation_matrix
from repro.tpu import TensorCoreDevice

#: Acceptance bar for the homomorphic round trip at the functional set.
ROUNDTRIP_RELATIVE_ERROR = 2.0**-20


@pytest.fixture(scope="module")
def functional_env():
    """The functional parameter set for executable-bootstrapping tests.

    Ten 30-bit limbs at degree 64 (scale 2^29) leave enough level and
    precision budget for a depth-(3+2) transform ladder; ``dnum = 5`` keeps
    the per-digit modulus far below the special product so hoisted-BConv
    noise stays out of the way, and the reduced error width is the standard
    functional-rig concession (a 64-degree ring is insecure regardless -- the
    suite tests arithmetic, not security).
    """
    params = CkksParameters.create(
        degree=64, limbs=10, log_q=30, dnum=5, scale_bits=29, special_limbs=3
    )
    params.error_stddev = 1.0
    keygen = KeyGenerator(params, rng=np.random.default_rng(3))
    encoder = CkksEncoder(params)
    transforms = build_bootstrapping_transforms(encoder, c2s_depth=3, s2c_depth=2)
    galois_keys = keygen.galois_keys_for_steps(
        transforms.rotation_steps(), conjugation=True
    )
    evaluator = CkksEvaluator(params, galois_keys=galois_keys)
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    decryptor = Decryptor(params, keygen.secret_key)
    rng = np.random.default_rng(5)
    z = rng.uniform(-1, 1, params.slot_count) + 1j * rng.uniform(
        -1, 1, params.slot_count
    )
    ciphertext = encryptor.encrypt(encoder.encode(z))
    return {
        "params": params,
        "encoder": encoder,
        "transforms": transforms,
        "evaluator": evaluator,
        "encryptor": encryptor,
        "decryptor": decryptor,
        "z": z,
        "ct": ciphertext,
    }


def decode(env, ciphertext):
    return env["encoder"].decode(env["decryptor"].decrypt(ciphertext))


@pytest.fixture(scope="module")
def compiler():
    return CrossCompiler(PARAMETER_SETS["D"], CompilerOptions.cross_default())


@pytest.fixture(scope="module")
def device():
    return TensorCoreDevice.for_generation("TPUv6e")


class TestSchedule:
    def test_counts_positive(self):
        schedule = BootstrappingSchedule(degree=2**16)
        counts = schedule.operator_counts()
        assert all(count > 0 for count in counts.values())
        assert set(counts) == {"rotate", "he_mult", "rescale", "he_add"}

    def test_rotations_dominate(self):
        """The linear transforms make Rotate the most frequent operator."""
        counts = BootstrappingSchedule(degree=2**16).operator_counts()
        assert counts["rotate"] > counts["he_mult"]

    def test_scaling_with_degree(self):
        small = BootstrappingSchedule(degree=2**13).rotation_count
        large = BootstrappingSchedule(degree=2**16).rotation_count
        assert large >= small


class TestEstimate:
    def test_estimate_structure(self, compiler, device):
        estimate = estimate_bootstrapping(compiler, device, tensor_cores=8)
        assert estimate.latency_ms > 0
        assert set(estimate.operator_latencies) == {"rotate", "he_mult", "rescale", "he_add"}
        assert abs(sum(estimate.breakdown.values()) - 1.0) < 1e-9

    def test_more_cores_lower_latency(self, compiler, device):
        one = estimate_bootstrapping(compiler, device, tensor_cores=1)
        eight = estimate_bootstrapping(compiler, device, tensor_cores=8)
        assert eight.latency_s == pytest.approx(one.latency_s / 8)

    def test_cross_beats_gpu_baseline_schedule(self, compiler, device):
        baseline_compiler = CrossCompiler(PARAMETER_SETS["D"], CompilerOptions.gpu_baseline())
        cross = estimate_bootstrapping(compiler, device, tensor_cores=8)
        baseline = estimate_bootstrapping(baseline_compiler, device, tensor_cores=8)
        assert cross.latency_s < baseline.latency_s

    def test_newer_tpu_is_faster(self, compiler):
        v4 = estimate_bootstrapping(compiler, TensorCoreDevice.for_generation("TPUv4"), tensor_cores=8)
        v6e = estimate_bootstrapping(compiler, TensorCoreDevice.for_generation("TPUv6e"), tensor_cores=8)
        assert v6e.latency_s < v4.latency_s

    def test_breakdown_has_vec_and_permutation_costs(self, compiler, device):
        estimate = estimate_bootstrapping(compiler, device, tensor_cores=8)
        assert "VecModOps" in estimate.breakdown
        assert "Automorphism" in estimate.breakdown


class TestPerPhaseScheduleCounts:
    """The satellite fix: SlotToCoeff is priced from its own depth."""

    def test_symmetric_schedule_unchanged(self):
        schedule = BootstrappingSchedule(degree=2**16)
        per_level = schedule.rotations_per_linear_level
        assert schedule.rotation_count == 6 * per_level

    def test_asymmetric_phases_priced_separately(self):
        schedule = BootstrappingSchedule(degree=2**16, c2s_levels=3, s2c_levels=1)
        assert schedule.c2s_rotation_count == 3 * schedule.rotations_per_level(3)
        assert schedule.s2c_rotation_count == 1 * schedule.rotations_per_level(1)
        # A depth-1 SlotToCoeff is one dense transform: far more rotations
        # per level than the depth-3 factorisation.
        assert schedule.rotations_per_level(1) > schedule.rotations_per_level(3)
        assert (
            schedule.rotation_count
            == schedule.c2s_rotation_count + schedule.s2c_rotation_count
        )

    def test_s2c_levels_affect_total(self):
        shallow = BootstrappingSchedule(degree=2**16, c2s_levels=3, s2c_levels=1)
        deep = BootstrappingSchedule(degree=2**16, c2s_levels=3, s2c_levels=3)
        assert shallow.s2c_rotation_count != deep.s2c_rotation_count
        assert shallow.c2s_rotation_count == deep.c2s_rotation_count

    def test_measured_overrides(self):
        schedule = BootstrappingSchedule(
            degree=2**16, c2s_rotations=100, s2c_rotations=50,
            plain_multiplications=321,
        )
        assert schedule.rotation_count == 150
        assert schedule.plain_multiplication_count == 321

    def test_rescales_count_both_phases(self):
        schedule = BootstrappingSchedule(degree=2**16, c2s_levels=4, s2c_levels=2)
        assert schedule.rescale_count == 4 + 2 + schedule.multiplication_count

    def test_evalmod_counts_come_from_ps_plan(self):
        """The bugfix: no hard-coded EvalMod guesses in the analytic model."""
        schedule = BootstrappingSchedule(degree=2**16)
        plan = ps_operation_counts(schedule.evalmod_degree)
        assert schedule.evalmod_multiplications is None
        assert schedule.multiplication_count == plan["he_mult"]
        assert schedule.evalmod_addition_count == plan["he_add"]
        # The degree-63 plan lands at ~2*sqrt(63), where the old guess of 16
        # happened to sit -- now computed, not asserted.
        assert abs(schedule.multiplication_count - 2 * sqrt(63)) <= 4

    def test_evalmod_measured_overrides(self):
        schedule = BootstrappingSchedule(
            degree=2**16, evalmod_multiplications=40, evalmod_additions=80
        )
        assert schedule.multiplication_count == 40
        assert schedule.evalmod_addition_count == 80
        assert schedule.rescale_count == 3 + 3 + 40


class TestSpecialFftFactorisation:
    """The embedding ``W = F @ P`` factors into radix-2 butterfly stages."""

    @pytest.mark.parametrize("slots", [4, 8, 32])
    def test_stages_compose_to_embedding(self, slots):
        stages = [
            _dense(special_fft_stage_diagonals(slots, 1 << (s + 1)), slots)
            for s in range(int(np.log2(slots)))
        ]
        product = np.eye(slots, dtype=complex)
        for stage in stages:
            product = stage @ product
        bitrev = permutation_matrix(bit_reverse_indices(slots)).astype(float)
        assert np.allclose(product @ bitrev, special_fft_matrix(slots))

    @pytest.mark.parametrize("slots", [8, 32])
    def test_stage_inverses(self, slots):
        for s in range(int(np.log2(slots))):
            length = 1 << (s + 1)
            stage = _dense(special_fft_stage_diagonals(slots, length), slots)
            inverse = _dense(
                special_fft_stage_diagonals(slots, length, inverse=True), slots
            )
            assert np.allclose(inverse @ stage, np.eye(slots))

    def test_stages_are_three_diagonal(self):
        slots = 32
        for s in range(int(np.log2(slots)) - 1):  # top stage merges +/-h
            diagonals = special_fft_stage_diagonals(slots, 1 << (s + 1))
            assert len(diagonals) == 3
        top = special_fft_stage_diagonals(slots, slots)
        assert set(top) == {0, slots // 2}

    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_collapsed_factors_compose_exactly(self, depth):
        slots = 32
        forward = collapsed_fft_factors(slots, depth)
        product = np.eye(slots, dtype=complex)
        for factor in forward:
            product = _dense(factor, slots) @ product
        full = collapsed_fft_factors(slots, int(np.log2(slots)))
        reference = np.eye(slots, dtype=complex)
        for factor in full:
            reference = _dense(factor, slots) @ reference
        assert np.allclose(product, reference)
        inverse = collapsed_fft_factors(slots, depth, inverse=True)
        inv_product = np.eye(slots, dtype=complex)
        for factor in inverse:
            inv_product = _dense(factor, slots) @ inv_product
        assert np.allclose(inv_product @ product, np.eye(slots))

    def test_normalised_factors_scale_by_sqrt_slots(self):
        slots = 32
        plain = collapsed_fft_factors(slots, 3, inverse=True)
        normalised = collapsed_fft_factors(slots, 3, inverse=True, normalised=True)
        scale = np.sqrt(slots)
        product_plain = np.eye(slots, dtype=complex)
        for factor in plain:
            product_plain = _dense(factor, slots) @ product_plain
        product_norm = np.eye(slots, dtype=complex)
        for factor in normalised:
            product_norm = _dense(factor, slots) @ product_norm
        assert np.allclose(product_norm, scale * product_plain)

    def test_depth_bounds_enforced(self):
        with pytest.raises(ValueError):
            collapsed_fft_factors(32, 0)
        with pytest.raises(ValueError):
            collapsed_fft_factors(32, 6)


class TestHomomorphicTransforms:
    """CoeffToSlot / SlotToCoeff running on the exact CKKS stack."""

    def test_c2s_matches_numpy_ladder(self, functional_env):
        env = functional_env
        result = coeff_to_slot(env["evaluator"], env["transforms"], env["ct"])
        expected = composed_matrix(env["transforms"].coeff_to_slot) @ env["z"]
        assert np.abs(decode(env, result) - expected).max() < 1e-4
        assert result.level == env["ct"].level - env["transforms"].c2s_depth

    def test_c2s_slots_hold_bit_reversed_coefficients(self, functional_env):
        """The C2S output genuinely *is* the coefficient vector, packed."""
        env = functional_env
        encoder, params = env["encoder"], env["params"]
        slots = params.slot_count
        plain = encoder.encode(env["z"])
        coefficients = (
            np.array(
                [float(c) for c in plain.poly.to_coeff().to_signed_coefficients()]
            )
            / plain.scale
        )
        packed = coefficients[:slots] + 1j * coefficients[slots:]
        expected = env["transforms"].coefficient_scaling * packed[
            slot_permutation(env["transforms"])
        ]
        result = coeff_to_slot(env["evaluator"], env["transforms"], env["ct"])
        assert np.abs(decode(env, result) - expected).max() < 1e-4

    def test_scale_invariant_across_ladder(self, functional_env):
        """Level-matched plaintext scales keep the ciphertext scale fixed."""
        env = functional_env
        result = coeff_to_slot(env["evaluator"], env["transforms"], env["ct"])
        assert result.scale == pytest.approx(env["ct"].scale, rel=1e-12)

    def test_roundtrip_within_precision_bar(self, functional_env):
        """S2C(C2S(ct)) decodes to the input within 2^-20 relative error."""
        env = functional_env
        mid = coeff_to_slot(env["evaluator"], env["transforms"], env["ct"])
        back = slot_to_coeff(env["evaluator"], env["transforms"], mid)
        decoded = decode(env, back)
        relative = np.abs(decoded - env["z"]).max() / np.abs(env["z"]).max()
        assert relative < ROUNDTRIP_RELATIVE_ERROR

    def test_roundtrip_second_message(self, functional_env):
        env = functional_env
        rng = np.random.default_rng(23)
        z = rng.uniform(-1, 1, env["params"].slot_count) + 1j * rng.uniform(
            -1, 1, env["params"].slot_count
        )
        ct = env["encryptor"].encrypt(env["encoder"].encode(z))
        back = slot_to_coeff(
            env["evaluator"],
            env["transforms"],
            coeff_to_slot(env["evaluator"], env["transforms"], ct),
        )
        relative = np.abs(decode(env, back) - z).max() / np.abs(z).max()
        assert relative < ROUNDTRIP_RELATIVE_ERROR

    def test_conjugation_split_yields_real_halves(self, functional_env):
        env = functional_env
        lo, hi = coeff_to_slot_split(env["evaluator"], env["transforms"], env["ct"])
        lo_slots, hi_slots = decode(env, lo), decode(env, hi)
        assert np.abs(lo_slots.imag).max() < 1e-3
        assert np.abs(hi_slots.imag).max() < 1e-3
        packed = coeff_to_slot(env["evaluator"], env["transforms"], env["ct"])
        packed_slots = decode(env, packed)
        assert np.abs(lo_slots.real - packed_slots.real).max() < 1e-3
        assert np.abs(hi_slots.real - packed_slots.imag).max() < 1e-3

    def test_split_merge_roundtrip(self, functional_env):
        env = functional_env
        lo, hi = coeff_to_slot_split(env["evaluator"], env["transforms"], env["ct"])
        back = slot_to_coeff_merge(env["evaluator"], env["transforms"], lo, hi)
        relative = np.abs(decode(env, back) - env["z"]).max() / np.abs(
            env["z"]
        ).max()
        # Two extra plaintext multiplications widen the error bar slightly.
        assert relative < 2.0**-16


class TestScheduleValidatedAgainstMeasurement:
    """The analytic cost model vs the real ladders' rotation counts."""

    def test_from_transforms_uses_measured_counts(self, functional_env):
        env = functional_env
        transforms = env["transforms"]
        schedule = BootstrappingSchedule.from_transforms(
            env["params"].degree, transforms
        )
        assert schedule.c2s_rotation_count == transforms.c2s_rotation_count()
        assert schedule.s2c_rotation_count == transforms.s2c_rotation_count()
        assert schedule.c2s_levels == transforms.c2s_depth
        assert schedule.s2c_levels == transforms.s2c_depth
        assert (
            schedule.plain_multiplication_count
            == transforms.plain_multiplication_count()
        )

    def test_analytic_model_within_factor_two_of_measured(self, functional_env):
        env = functional_env
        transforms = env["transforms"]
        measured = BootstrappingSchedule.from_transforms(
            env["params"].degree, transforms
        )
        analytic = BootstrappingSchedule(
            degree=env["params"].degree,
            c2s_levels=transforms.c2s_depth,
            s2c_levels=transforms.s2c_depth,
        )
        for phase in ("c2s_rotation_count", "s2c_rotation_count"):
            measured_count = getattr(measured, phase)
            analytic_count = getattr(analytic, phase)
            ratio = measured_count / analytic_count
            assert 0.5 <= ratio <= 2.0, (phase, measured_count, analytic_count)

    def test_transform_rotation_steps_cover_factors(self, functional_env):
        transforms = functional_env["transforms"]
        union = set(transforms.rotation_steps())
        for factor in (*transforms.coeff_to_slot, *transforms.slot_to_coeff):
            assert set(factor.rotation_steps()) <= union


# ---------------------------------------------------------------------------
# End-to-end bootstrapping: ModRaise -> C2S -> EvalMod -> S2C
# ---------------------------------------------------------------------------

#: Acceptance bar for the full pipeline at the functional set (ISSUE 4).
BOOTSTRAP_RELATIVE_ERROR = 2.0**-10


@pytest.fixture(scope="module")
def bootstrap_env():
    """A full bootstrapping rig at the functional parameter set.

    Twenty 29-bit limbs at degree 64 cover the pipeline's minimum level
    (1 + c2s 2 + split 1 + EvalMod ~10 + merge 1 + s2c 2); ``scale_bits =
    log_q`` keeps the scale stationary under the deep rescale chain, and the
    sparse secret (``hamming_weight=4``) bounds ModRaise's overflow by
    ``(||s||_1 + 1)/2 <= 2.5`` so EvalMod's ``k_bound=3`` sine fit covers it
    -- the standard sparse-secret bootstrapping assumption.
    """
    params = CkksParameters.create(
        degree=64, limbs=20, log_q=29, dnum=10, scale_bits=29, special_limbs=3
    )
    params.error_stddev = 1.0
    keygen = KeyGenerator(params, rng=np.random.default_rng(11), hamming_weight=4)
    encoder = CkksEncoder(params)
    bootstrapper = CkksBootstrapper.create(encoder)
    assert bootstrapper.minimum_level() <= params.limbs
    galois_keys = keygen.galois_keys_for_steps(
        bootstrapper.rotation_steps(), conjugation=True
    )
    evaluator = CkksEvaluator(
        params, relin_key=keygen.relinearization_key(), galois_keys=galois_keys
    )
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    decryptor = Decryptor(params, keygen.secret_key)
    rng = np.random.default_rng(13)
    amplitude = 0.01
    z = amplitude * (
        rng.uniform(-1, 1, params.slot_count)
        + 1j * rng.uniform(-1, 1, params.slot_count)
    )
    exhausted = encryptor.encrypt(encoder.encode(z, level=1))
    return {
        "params": params,
        "encoder": encoder,
        "bootstrapper": bootstrapper,
        "evaluator": evaluator,
        "encryptor": encryptor,
        "decryptor": decryptor,
        "z": z,
        "ct": exhausted,
    }


class TestModRaise:
    def test_requires_exhausted_ciphertext(self, bootstrap_env):
        env = bootstrap_env
        fresh = env["encryptor"].encrypt(env["encoder"].encode(env["z"]))
        with pytest.raises(ValueError):
            mod_raise(fresh, env["params"])

    def test_raised_decryption_is_message_plus_q0_ladder(self, bootstrap_env):
        """decrypt(ModRaise(ct)) = m + q_0 * I with small integer I."""
        env = bootstrap_env
        params = env["params"]
        q0 = params.modulus_basis.moduli[0]
        raised = mod_raise(env["ct"], params)
        assert raised.level == params.limbs
        assert raised.scale == env["ct"].scale
        base = np.array(
            [
                int(c)
                for c in env["decryptor"].decrypt(env["ct"]).poly.to_signed_coefficients()
            ],
            dtype=object,
        )
        lifted = np.array(
            [
                int(c)
                for c in env["decryptor"]
                .decrypt(raised)
                .poly.to_signed_coefficients()
            ],
            dtype=object,
        )
        overflow = lifted - base
        assert all(int(v) % q0 == 0 for v in overflow)
        ladder = np.array([int(v) // q0 for v in overflow], dtype=np.int64)
        # Sparse secret (h=4): |I| <= (||s||_1 + 1)/2 + 1 slack.
        assert np.abs(ladder).max() <= 3

    def test_raise_to_partial_chain(self, bootstrap_env):
        env = bootstrap_env
        raised = mod_raise(env["ct"], env["params"], level=5)
        assert raised.level == 5


class TestEndToEndBootstrap:
    def test_bootstrap_refreshes_exhausted_ciphertext(self, bootstrap_env):
        """The acceptance criterion: full pipeline, <= 2^-10 relative error."""
        env = bootstrap_env
        refreshed = env["bootstrapper"].bootstrap(env["evaluator"], env["ct"])
        assert refreshed.level > env["ct"].level
        decoded = env["encoder"].decode(env["decryptor"].decrypt(refreshed))
        relative = np.abs(decoded - env["z"]).max() / np.abs(env["z"]).max()
        assert relative < BOOTSTRAP_RELATIVE_ERROR

    def test_refreshed_ciphertext_has_multiplicative_budget(self, bootstrap_env):
        """The point of bootstrapping: the output supports further levels."""
        env = bootstrap_env
        refreshed = env["bootstrapper"].bootstrap(env["evaluator"], env["ct"])
        assert refreshed.level >= 3
        # Spend one of the regained levels on a plaintext multiplication.
        two = env["encoder"].encode_constant(
            2.0, level=refreshed.level, scale=env["params"].scale
        )
        doubled = env["evaluator"].rescale(
            env["evaluator"].multiply_plain(refreshed, two)
        )
        decoded = env["encoder"].decode(env["decryptor"].decrypt(doubled))
        relative = np.abs(decoded - 2.0 * env["z"]).max() / np.abs(
            2.0 * env["z"]
        ).max()
        assert relative < 2.0**-8

    @pytest.mark.slow
    def test_bootstrap_second_message(self, bootstrap_env):
        env = bootstrap_env
        rng = np.random.default_rng(29)
        z = 0.005 * (
            rng.uniform(-1, 1, env["params"].slot_count)
            + 1j * rng.uniform(-1, 1, env["params"].slot_count)
        )
        ct = env["encryptor"].encrypt(env["encoder"].encode(z, level=1))
        refreshed = env["bootstrapper"].bootstrap(env["evaluator"], ct)
        decoded = env["encoder"].decode(env["decryptor"].decrypt(refreshed))
        relative = np.abs(decoded - z).max() / np.abs(z).max()
        assert relative < BOOTSTRAP_RELATIVE_ERROR

    def test_bootstrap_real_message(self, bootstrap_env):
        """A purely real message exercises the hi-half zero path."""
        env = bootstrap_env
        rng = np.random.default_rng(31)
        z = 0.01 * rng.uniform(-1, 1, env["params"].slot_count)
        ct = env["encryptor"].encrypt(env["encoder"].encode(z, level=1))
        refreshed = env["bootstrapper"].bootstrap(env["evaluator"], ct)
        decoded = env["encoder"].decode(env["decryptor"].decrypt(refreshed))
        assert np.abs(decoded - z).max() / np.abs(z).max() < BOOTSTRAP_RELATIVE_ERROR


class TestScheduleGroundedInMeasurement:
    """The satellite bugfix: EvalMod counts measured, not guessed."""

    def test_measured_he_mults_match_schedule(self, bootstrap_env):
        """Run the real pipeline under the operation counter and compare."""
        env = bootstrap_env
        evaluator = env["evaluator"]
        bootstrapper = env["bootstrapper"]
        evaluator.reset_operation_counts()
        bootstrapper.bootstrap(evaluator, env["ct"])
        measured = dict(evaluator.operation_counts)
        evaluator.reset_operation_counts()
        schedule = bootstrapper.schedule()
        # Ciphertext x ciphertext multiplications come only from the two
        # EvalMod halves, and the schedule takes them from the PS plan.
        assert measured["he_mult"] == schedule.multiplication_count
        assert measured["rotate"] == schedule.rotation_count

    def test_analytic_vs_planned_evalmod_within_factor_two(self, bootstrap_env):
        """The ~2*sqrt(d) analytic model vs the exact plan of the real fit."""
        env = bootstrap_env
        evalmod = env["bootstrapper"].evalmod
        planned = evalmod.multiplication_count()
        analytic = 2 * sqrt(evalmod.series.degree)
        assert 0.5 <= planned / analytic <= 2.0

    def test_from_transforms_with_evalmod(self, bootstrap_env):
        env = bootstrap_env
        bootstrapper = env["bootstrapper"]
        schedule = BootstrappingSchedule.from_transforms(
            env["params"].degree,
            bootstrapper.transforms,
            evalmod=bootstrapper.evalmod,
        )
        assert (
            schedule.multiplication_count
            == 2 * bootstrapper.evalmod.multiplication_count()
        )
        assert schedule.evalmod_degree == bootstrapper.evalmod.series.degree
        assert schedule.c2s_levels == bootstrapper.transforms.c2s_depth
