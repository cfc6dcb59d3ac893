"""Tests for the fused key-switch pipeline and hoisted rotations.

Covers the three tentpole claims:

* stacked BConv is bit-exact against the per-digit ``convert`` loop,
* fused ``switch_key`` matches the digit-loop oracle bit-for-bit while
  running exactly one forward and two inverse transform passes regardless of
  ``dnum``, and
* hoisted rotations decrypt to the same slots as sequential ``rotate``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks.encoding import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import CkksEvaluator, _rotation_exponent
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear_transform import DiagonalLinearTransform
from repro.ckks.keyswitch import (
    mod_down,
    mod_down_stacked,
    switch_key,
    switch_key_unfused,
)
from repro.ckks.params import CkksParameters
from repro.poly.basis_conversion import (
    BasisConversion,
    conversion_for,
    stacked_conversion_for,
)
from repro.poly import ntt_engine
from repro.poly.ntt_engine import reset_transform_counts, transform_counts
from repro.poly.ring import automorphism_eval_indices
from repro.poly.rns_poly import RnsBasis, RnsPolynomial


@pytest.fixture(scope="module")
def env(ckks_setup):
    rng = np.random.default_rng(2104)
    z1 = rng.uniform(-1, 1, ckks_setup["params"].slot_count) + 1j * rng.uniform(
        -1, 1, ckks_setup["params"].slot_count
    )
    ct1 = ckks_setup["encryptor"].encrypt(ckks_setup["encoder"].encode(z1))
    return {**ckks_setup, "z1": z1, "ct1": ct1}


@pytest.fixture(scope="module")
def dnum3_setup():
    """A second small instance with three digits (odd digit count coverage)."""
    params = CkksParameters.create(degree=64, limbs=3, log_q=28, dnum=3, scale_bits=21)
    keygen = KeyGenerator(params, rng=np.random.default_rng(11))
    relin_key = keygen.relinearization_key()
    return {"params": params, "keygen": keygen, "relin_key": relin_key}


def decrypt_decode(env, ciphertext):
    return env["encoder"].decode(env["decryptor"].decrypt(ciphertext))


def random_poly(params, level, rng, bound=1000):
    basis = params.basis_at_level(level)
    return RnsPolynomial.from_signed_coefficients(
        rng.integers(-bound, bound, size=params.degree, dtype=np.int64), basis
    )


class TestStackedBConv:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_bit_exact_vs_per_digit_convert(self, ckks_setup, rng, level):
        params = ckks_setup["params"]
        level_basis = params.basis_at_level(level)
        extended = params.extended_basis(level)
        partitions = params.digit_partition(level)
        conversion = stacked_conversion_for(level_basis, extended, partitions)

        poly = random_poly(params, level, rng)
        stacked = conversion.convert_stacked(poly.residues)
        assert stacked.shape == (len(partitions), extended.size, params.degree)

        for d, (start, stop) in enumerate(partitions):
            digit_basis = RnsBasis(
                moduli=level_basis.moduli[start:stop], degree=params.degree
            )
            digit_poly = RnsPolynomial(
                digit_basis, poly.residues[start:stop], "coeff"
            )
            expected = conversion_for(digit_basis, extended).convert(digit_poly)
            assert np.array_equal(stacked[d], expected.residues)

    def test_one_digit_stack_is_the_plain_conversion(self, ckks_setup, rng):
        """A conversion is the stacked one with one digit: ``convert_stacked``
        of a one-digit partition is ``(1, L', N)`` and equals ``convert``;
        a multi-digit conversion has no single-polynomial ``convert``."""
        params = ckks_setup["params"]
        level = params.limbs
        level_basis = params.basis_at_level(level)
        extended = params.extended_basis(level)
        poly = random_poly(params, level, rng)
        one_digit = stacked_conversion_for(level_basis, extended, ((0, level),))
        stacked = one_digit.convert_stacked(poly.residues)
        assert stacked.shape == (1, extended.size, params.degree)
        plain = conversion_for(level_basis, extended).convert(poly)
        assert np.array_equal(stacked[0], plain.residues)
        assert np.array_equal(
            one_digit.conversion_matrix,
            conversion_for(level_basis, extended).conversion_matrix,
        )
        all_digits = stacked_conversion_for(
            level_basis, extended, params.digit_partition(level)
        )
        with pytest.raises(ValueError):
            all_digits.convert(poly)

    def test_chain_holds_no_per_digit_conversions(self):
        """The stacked block is built straight from each digit's constants:
        after three HE-Mult + rescale rounds the chain memoises only the
        ModDown conversions (source: the special limbs), no per-digit one."""
        params = CkksParameters.create(
            degree=4096, limbs=8, log_q=28, dnum=3, scale_bits=26
        )
        keygen = KeyGenerator(params, rng=np.random.default_rng(5))
        encoder = CkksEncoder(params)
        encryptor = Encryptor(params, keygen.public_key(), keygen)
        evaluator = CkksEvaluator(params, relin_key=keygen.relinearization_key())
        ct = encryptor.encrypt(encoder.encode(np.full(params.slot_count, 0.5)))
        for _ in range(3):
            ct = evaluator.rescale(evaluator.multiply(ct, ct))
        chain = params.plan_stack()
        special = ((params.limbs, chain.limb_count),)
        sources = [
            key[1] for key in chain._constants if isinstance(key, tuple) and key[0] == "bconv"
        ]
        assert sources == [special] * 3

    def test_partitions_must_tile_the_source(self, ckks_setup):
        params = ckks_setup["params"]
        level_basis = params.basis_at_level(3)
        extended = params.extended_basis(3)
        for bad in [((0, 1), (2, 3)), ((0, 2),), ((0, 1), (1, 2), (2, 4))]:
            with pytest.raises(ValueError):
                BasisConversion(source=level_basis, target=extended, partitions=bad)


class TestFusedSwitchKey:
    @pytest.mark.parametrize("level_offset", [0, 1, 2])
    def test_bit_exact_vs_unfused(self, ckks_setup, rng, level_offset):
        """Every level, including the cut digits of levels below the top."""
        params = ckks_setup["params"]
        relin = ckks_setup["evaluator"].relin_key
        level = params.limbs - level_offset
        d = random_poly(params, level, rng)
        fused0, fused1 = switch_key(d, relin, params, level)
        loop0, loop1 = switch_key_unfused(d, relin, params, level)
        assert np.array_equal(fused0.residues, loop0.residues)
        assert np.array_equal(fused1.residues, loop1.residues)

    def test_bit_exact_with_three_digits(self, dnum3_setup, rng):
        params = dnum3_setup["params"]
        relin = dnum3_setup["relin_key"]
        level = params.limbs
        assert len(params.digit_partition(level)) == 3
        d = random_poly(params, level, rng)
        fused = switch_key(d, relin, params, level)
        loop = switch_key_unfused(d, relin, params, level)
        for fused_poly, loop_poly in zip(fused, loop):
            assert np.array_equal(fused_poly.residues, loop_poly.residues)

    @pytest.mark.parametrize("backend", ntt_engine.BACKENDS)
    @pytest.mark.parametrize("setup_name", ["two_digits", "three_digits"])
    def test_exactly_one_forward_one_inverse_pass(
        self, ckks_setup, dnum3_setup, rng, setup_name, backend, monkeypatch
    ):
        """Lazy ModDown: 1 batched forward + 1 batched inverse for any dnum,
        on every NTT rung.

        The limb-pass counters pin down that the single stacked calls are not
        hiding extra work: the forward transforms the ``(dnum, L', N)`` digit
        tensor (``dnum * L'`` rows) and the inverse the stacked ``(2, L', N)``
        accumulator pair (``2 * L'`` rows).
        """
        monkeypatch.setenv("REPRO_NTT_BACKEND", backend)
        if setup_name == "two_digits":
            params, relin = ckks_setup["params"], ckks_setup["evaluator"].relin_key
        else:
            params, relin = dnum3_setup["params"], dnum3_setup["relin_key"]
        level = params.limbs
        extended_size = params.extended_basis(level).size
        dnum = len(params.digit_partition(level))
        d = random_poly(params, level, rng)
        switch_key(d, relin, params, level)  # warm caches (key eval stacks)
        reset_transform_counts()
        switch_key(d, relin, params, level)
        counts = transform_counts()
        assert counts["forward"] == 1
        assert counts["inverse"] == 1
        assert counts["forward_limbs"] == dnum * extended_size
        assert counts["inverse_limbs"] == 2 * extended_size

    def test_basis_mismatch_rejected(self, ckks_setup):
        params = ckks_setup["params"]
        relin = ckks_setup["evaluator"].relin_key
        d = RnsPolynomial.zero(params.basis_at_level(params.limbs))
        with pytest.raises(ValueError):
            switch_key(d, relin, params, params.limbs - 1)

    def test_switches_to_canonical_secret(self, ckks_setup, rng):
        """End-to-end correctness: ks0 + ks1*s ~= d * s^2 (noise only)."""
        params = ckks_setup["params"]
        keygen = ckks_setup["keygen"]
        relin = ckks_setup["evaluator"].relin_key
        level = params.limbs
        basis = params.basis_at_level(level)
        secret = keygen.secret_key.polynomial(basis)
        secret_squared = secret.multiply(secret).to_coeff()
        d = random_poly(params, level, rng)
        ks0, ks1 = switch_key(d, relin, params, level)
        switched = ks0.add(ks1.multiply(secret).to_coeff())
        error = switched.sub(d.multiply(secret_squared).to_coeff())
        signed_error = np.array(error.to_signed_coefficients(), dtype=np.float64)
        assert np.abs(signed_error).max() < 2**24


class TestLazyModDown:
    def test_stacked_matches_per_polynomial_mod_down(self, ckks_setup, rng):
        """The stacked kernel is bit-identical to ModDown-ing each operand."""
        params = ckks_setup["params"]
        level = params.limbs
        extended = params.extended_basis(level)
        stacked = np.stack(
            [
                np.stack(
                    [rng.integers(0, q, params.degree, dtype=np.uint64) for q in extended.moduli]
                )
                for _ in range(2)
            ]
        )
        down = mod_down_stacked(stacked, params, level)
        for index in range(2):
            poly = RnsPolynomial(extended, stacked[index], "coeff")
            expected = mod_down(poly, params, level)
            assert np.array_equal(down[index], expected.residues)

    def test_stacked_rejects_wrong_basis(self, ckks_setup):
        params = ckks_setup["params"]
        level = params.limbs
        with pytest.raises(ValueError):
            mod_down_stacked(
                np.zeros((2, level, params.degree), dtype=np.uint64), params, level
            )


class TestEvalDomainAutomorphism:
    @pytest.mark.parametrize("exponent_steps", [1, 2, 3])
    def test_permutation_matches_coefficient_automorphism(
        self, ckks_setup, rng, exponent_steps
    ):
        params = ckks_setup["params"]
        exponent = pow(5, exponent_steps, 2 * params.degree)
        poly = random_poly(params, params.limbs, rng)
        indices = automorphism_eval_indices(params.degree, exponent)
        direct = poly.automorphism(exponent).to_eval()
        permuted = np.take(poly.to_eval().residues, indices, axis=-1)
        assert np.array_equal(direct.residues, permuted)

    def test_conjugation_exponent(self, ckks_setup, rng):
        params = ckks_setup["params"]
        exponent = 2 * params.degree - 1
        poly = random_poly(params, params.limbs, rng)
        indices = automorphism_eval_indices(params.degree, exponent)
        direct = poly.automorphism(exponent).to_eval()
        assert np.array_equal(
            direct.residues, np.take(poly.to_eval().residues, indices, axis=-1)
        )

    def test_even_exponent_rejected(self):
        with pytest.raises(ValueError):
            automorphism_eval_indices(64, 6)


class TestHoistedRotation:
    @pytest.mark.parametrize("steps", [1, 2])
    def test_decrypts_to_same_slots_as_sequential(self, env, steps):
        evaluator = env["evaluator"]
        hoisted = evaluator.hoist(env["ct1"])
        via_hoist = evaluator.rotate_hoisted(hoisted, steps)
        sequential = evaluator.rotate(env["ct1"], steps)
        expected = np.roll(env["z1"], -steps)
        assert np.abs(decrypt_decode(env, via_hoist) - expected).max() < 1e-2
        assert (
            np.abs(
                decrypt_decode(env, via_hoist) - decrypt_decode(env, sequential)
            ).max()
            < 1e-2
        )

    def test_one_hoist_many_rotations(self, env):
        evaluator = env["evaluator"]
        hoisted = evaluator.hoist(env["ct1"])
        for steps in (1, 2):
            rotated = evaluator.rotate_hoisted(hoisted, steps)
            expected = np.roll(env["z1"], -steps)
            assert np.abs(decrypt_decode(env, rotated) - expected).max() < 1e-2

    def test_conjugate_hoisted(self, env):
        evaluator = env["evaluator"]
        hoisted = evaluator.hoist(env["ct1"])
        conjugated = evaluator.conjugate_hoisted(hoisted)
        assert np.abs(decrypt_decode(env, conjugated) - np.conj(env["z1"])).max() < 1e-2

    def test_hoisted_rotation_pays_no_forward_transform(self, env):
        evaluator = env["evaluator"]
        hoisted = evaluator.hoist(env["ct1"])
        evaluator.rotate_hoisted(hoisted, 1)  # warm key eval stacks
        reset_transform_counts()
        evaluator.rotate_hoisted(hoisted, 2)
        counts = transform_counts()
        assert counts["forward"] == 0
        assert counts["inverse"] == 1

    def test_hoist_requires_galois_keys(self, env):
        bare = CkksEvaluator(env["params"], relin_key=env["evaluator"].relin_key)
        with pytest.raises(ValueError):
            bare.hoist(env["ct1"])


class TestSquareSpecialisation:
    def test_bit_exact_vs_generic_multiply(self, env):
        evaluator = env["evaluator"]
        squared = evaluator.square(env["ct1"])
        generic = evaluator.multiply(env["ct1"], env["ct1"])
        assert np.array_equal(squared.c0.residues, generic.c0.residues)
        assert np.array_equal(squared.c1.residues, generic.c1.residues)
        assert squared.scale == generic.scale
        assert squared.level == generic.level

    def test_decrypts_to_square(self, env):
        squared = env["evaluator"].square(env["ct1"])
        assert np.abs(decrypt_decode(env, squared) - env["z1"] ** 2).max() < 5e-2


class TestRotationExponentMemoised:
    def test_matches_pow(self, ckks_setup):
        degree = ckks_setup["params"].degree
        for steps in (-2, -1, 1, 2, 5):
            assert _rotation_exponent(steps, degree) == pow(5, steps, 2 * degree)

    def test_cache_hits(self, ckks_setup):
        degree = ckks_setup["params"].degree
        _rotation_exponent(1, degree)
        before = _rotation_exponent.cache_info().hits
        _rotation_exponent(1, degree)
        assert _rotation_exponent.cache_info().hits == before + 1


class TestWorkloadRotationBatches:
    def test_rotate_many_sum(self, env):
        evaluator = env["evaluator"]
        terms = evaluator.rotate_many(env["ct1"], [0, 1, 2])
        result = evaluator.add(evaluator.add(terms[0], terms[1]), terms[2])
        expected = env["z1"] + np.roll(env["z1"], -1) + np.roll(env["z1"], -2)
        assert np.abs(decrypt_decode(env, result) - expected).max() < 5e-2

    def test_rotate_many_rejects_empty(self, env):
        with pytest.raises(ValueError):
            env["evaluator"].rotate_many(env["ct1"], [])

    def test_conv_taps_matvec(self, env, rng):
        params = env["params"]
        w0 = rng.uniform(-1, 1, params.slot_count)
        w1 = rng.uniform(-1, 1, params.slot_count)
        transform = DiagonalLinearTransform.from_diagonals(
            env["encoder"], {0: w0, 1: w1}, n1=params.slot_count
        )
        result = env["evaluator"].matvec(env["ct1"], transform, rescale=True)
        expected = w0 * env["z1"] + w1 * np.roll(env["z1"], -1)
        assert np.abs(decrypt_decode(env, result) - expected).max() < 5e-2
