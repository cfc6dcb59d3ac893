"""Tests for CKKS key generation and key-switching key structure."""

import math

import numpy as np
import pytest

from repro.ckks.keys import KeyGenerator, digit_partition
from repro.ckks.params import CkksParameters
from repro.poly.ntt_engine import reset_transform_counts, transform_counts


class TestDigitPartition:
    def test_exact_split(self):
        assert digit_partition(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_uneven_split(self):
        assert digit_partition(5, 3) == [(0, 2), (2, 4), (4, 5)]

    def test_fewer_limbs_than_digits(self):
        assert digit_partition(2, 3) == [(0, 1), (1, 2)]

    def test_single_digit(self):
        assert digit_partition(4, 1) == [(0, 4)]


class TestParameters:
    def test_create_defaults(self, ckks_setup):
        params = ckks_setup["params"]
        assert params.slot_count == params.degree // 2
        assert params.special_limbs >= 1
        assert params.modulus_product > 0
        assert set(params.special_basis.moduli).isdisjoint(params.modulus_basis.moduli)

    def test_basis_at_level(self, ckks_setup):
        params = ckks_setup["params"]
        assert params.basis_at_level(2).size == 2
        with pytest.raises(ValueError):
            params.basis_at_level(0)
        with pytest.raises(ValueError):
            params.basis_at_level(params.limbs + 1)

    def test_extended_basis(self, ckks_setup):
        params = ckks_setup["params"]
        extended = params.extended_basis(params.limbs)
        assert extended.size == params.limbs + params.special_limbs

    def test_from_security_params(self):
        from repro.core.config import PARAMETER_SETS

        scaled = PARAMETER_SETS["A"].scaled(degree=32, limbs=2)
        params = CkksParameters.from_security_params(scaled)
        assert params.degree == 32
        assert params.limbs == 2


class TestSecretAndPublicKeys:
    def test_secret_is_ternary(self, ckks_setup):
        secret = ckks_setup["keygen"].secret_key
        assert set(np.unique(secret.coefficients)).issubset({-1, 0, 1})

    def test_public_key_is_encryption_of_zero(self, ckks_setup):
        params = ckks_setup["params"]
        keygen = ckks_setup["keygen"]
        pk = keygen.public_key()
        secret = keygen.secret_key.polynomial(params.modulus_basis)
        noise = pk.b.add(pk.a.multiply(secret).to_coeff())
        signed = np.array(noise.to_signed_coefficients(), dtype=np.float64)
        # b + a*s = e: the residual must be key-generation noise, not data.
        assert np.abs(signed).max() < 64

    def test_galois_key_lookup(self, ckks_setup):
        keys = ckks_setup["evaluator"].galois_keys
        with pytest.raises(KeyError):
            keys.key_for(9999)

    def test_missing_level_raises(self, ckks_setup):
        relin = ckks_setup["evaluator"].relin_key
        with pytest.raises(KeyError):
            relin.at_level(99)
        with pytest.raises(KeyError):
            relin.at_level(0)


@pytest.fixture(scope="module")
def five_limb_keys():
    """L = 5 in digits of 3: levels 5 and 4 keep a partial second digit,
    levels 3..1 one (partial) digit."""
    params = CkksParameters.create(degree=64, limbs=5, log_q=28, dnum=2, scale_bits=21)
    keygen = KeyGenerator(params, rng=np.random.default_rng(3))
    exponent = pow(5, 3, 2 * params.degree)
    return params, keygen, keygen.relinearization_key(), keygen.galois_key(exponent)


class TestSwitchingKey:
    """One key over ``Q_L * P``; every level reads views of it."""

    def test_level_partitions_are_cuts_of_the_top_one(self, five_limb_keys):
        params = five_limb_keys[0]
        assert params.digit_partition(5) == ((0, 3), (3, 5))
        assert params.digit_partition(4) == ((0, 3), (3, 4))
        assert params.digit_partition(3) == ((0, 3),)
        assert params.digit_partition(2) == ((0, 2),)
        assert params.digit_partition(1) == ((0, 1),)
        with pytest.raises(ValueError):
            params.digit_partition(6)

    def test_one_read_only_tensor_and_zero_copy_levels(self, five_limb_keys):
        params, _, relin, _ = five_limb_keys
        limbs, alpha = params.limbs, params.special_limbs
        assert relin.stacks.shape == (2, 2, limbs + alpha, params.degree)
        assert not relin.stacks.flags.writeable
        for level in range(1, limbs + 1):
            digits = len(params.digit_partition(level))
            level_part, special_part = relin.at_level(level)
            assert level_part.shape == (2, digits, level, params.degree)
            assert special_part.shape == (2, digits, alpha, params.degree)
            for view in (level_part, special_part):
                assert np.shares_memory(view, relin.stacks)
                assert not view.flags.writeable

    def test_generated_once_in_the_evaluation_domain(self, five_limb_keys):
        """No per-level loop: a key costs the secret's forward rows plus one
        stacked pass over its digits' errors, and no inverse row."""
        params, keygen, _, _ = five_limb_keys
        extended = params.limbs + params.special_limbs
        digits = len(params.digit_partition(params.limbs))
        for make in (keygen.relinearization_key, lambda: keygen.galois_key(5)):
            reset_transform_counts()
            make()
            counts = transform_counts()
            assert counts["forward_limbs"] == (1 + digits) * extended
            assert counts["inverse_limbs"] == 0

    @pytest.mark.parametrize("which", ["relin", "galois"])
    def test_every_level_encrypts_its_gadget(self, five_limb_keys, which):
        """``b_j + a_j * s = P * g_j * s_source + e_j`` over every level's
        extended basis, with ``g_j`` computed from that level's own chain by
        big-integer CRT (independent of how the key was built)."""
        params, keygen, relin, galois = five_limb_keys
        for level in range(1, params.limbs + 1):
            extended = params.extended_basis(level)
            q_level = params.basis_at_level(level).modulus_product
            secret = keygen.secret_key.polynomial(extended)
            if which == "relin":
                key, source = relin, secret.multiply(secret).to_coeff()
            else:
                key, source = galois, secret.automorphism(galois.exponent)
            pairs = key.to_coeff(level)
            assert len(pairs) == len(params.digit_partition(level))
            for (start, stop), (b_j, a_j) in zip(params.digit_partition(level), pairs):
                digit_product = math.prod(params.modulus_basis.moduli[start:stop])
                complement = q_level // digit_product
                gadget = complement * pow(complement % digit_product, -1, digit_product)
                payload = source.scalar_mul(params.special_product * gadget)
                error = b_j.add(a_j.multiply(secret).to_coeff()).sub(payload)
                signed = np.array(error.to_signed_coefficients(), dtype=np.float64)
                assert np.abs(signed).max() < 64
