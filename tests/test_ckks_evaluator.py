"""End-to-end tests for the CKKS evaluator (HE-Add/Mult/Rescale/Rotate)."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def env(ckks_setup):
    rng = np.random.default_rng(2103)
    params = ckks_setup["params"]
    slots = params.slot_count
    z1 = rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
    z2 = rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
    encoder = ckks_setup["encoder"]
    encryptor = ckks_setup["encryptor"]
    ct1 = encryptor.encrypt(encoder.encode(z1))
    ct2 = encryptor.encrypt(encoder.encode(z2))
    return {**ckks_setup, "z1": z1, "z2": z2, "ct1": ct1, "ct2": ct2}


def decrypt_decode(env, ciphertext):
    return env["encoder"].decode(env["decryptor"].decrypt(ciphertext))


class TestEncryptionRoundtrip:
    def test_decrypt_fresh(self, env):
        assert np.abs(decrypt_decode(env, env["ct1"]) - env["z1"]).max() < 1e-2

    def test_fresh_ciphertext_is_linear(self, env):
        assert env["ct1"].is_linear
        assert env["ct1"].level == env["params"].limbs


class TestAdditiveOperators:
    def test_add(self, env):
        result = env["evaluator"].add(env["ct1"], env["ct2"])
        assert np.abs(decrypt_decode(env, result) - (env["z1"] + env["z2"])).max() < 1e-2

    def test_sub(self, env):
        result = env["evaluator"].sub(env["ct1"], env["ct2"])
        assert np.abs(decrypt_decode(env, result) - (env["z1"] - env["z2"])).max() < 1e-2

    def test_add_plain(self, env):
        plain = env["encoder"].encode(env["z2"])
        result = env["evaluator"].add_plain(env["ct1"], plain)
        assert np.abs(decrypt_decode(env, result) - (env["z1"] + env["z2"])).max() < 1e-2

    def test_level_mismatch_rejected(self, env):
        lowered = env["evaluator"].level_down(env["ct1"])
        with pytest.raises(ValueError):
            env["evaluator"].add(lowered, env["ct2"])


class TestMultiplicativeOperators:
    def test_multiply_with_relinearisation(self, env):
        product = env["evaluator"].multiply(env["ct1"], env["ct2"])
        assert product.is_linear
        expected = env["z1"] * env["z2"]
        assert np.abs(decrypt_decode(env, product) - expected).max() < 5e-2

    def test_multiply_without_relinearisation(self, env):
        product = env["evaluator"].multiply(env["ct1"], env["ct2"], relinearize=False)
        assert not product.is_linear
        expected = env["z1"] * env["z2"]
        assert np.abs(decrypt_decode(env, product) - expected).max() < 5e-2

    def test_multiply_plain(self, env):
        plain = env["encoder"].encode(env["z2"])
        product = env["evaluator"].multiply_plain(env["ct1"], plain)
        expected = env["z1"] * env["z2"]
        assert np.abs(decrypt_decode(env, product) - expected).max() < 5e-2

    def test_square(self, env):
        squared = env["evaluator"].square(env["ct1"])
        assert np.abs(decrypt_decode(env, squared) - env["z1"] ** 2).max() < 5e-2

    def test_relinearize_without_key(self, env):
        from repro.ckks.evaluator import CkksEvaluator

        bare = CkksEvaluator(env["params"])
        product = env["evaluator"].multiply(env["ct1"], env["ct2"], relinearize=False)
        with pytest.raises(ValueError):
            bare.relinearize(product)

    def test_scale_grows_multiplicatively(self, env):
        product = env["evaluator"].multiply(env["ct1"], env["ct2"])
        assert product.scale == pytest.approx(env["ct1"].scale * env["ct2"].scale)


class TestRescale:
    def test_rescale_preserves_value(self, env):
        product = env["evaluator"].multiply(env["ct1"], env["ct2"])
        rescaled = env["evaluator"].rescale(product)
        assert rescaled.level == product.level - 1
        assert rescaled.scale < product.scale
        expected = env["z1"] * env["z2"]
        assert np.abs(decrypt_decode(env, rescaled) - expected).max() < 5e-2

    def test_rescale_at_bottom_rejected(self, env):
        ct = env["evaluator"].level_down(env["ct1"], env["ct1"].level - 1)
        with pytest.raises(ValueError):
            env["evaluator"].rescale(ct)

    def test_level_down(self, env):
        lowered = env["evaluator"].level_down(env["ct1"])
        assert lowered.level == env["ct1"].level - 1
        assert np.abs(decrypt_decode(env, lowered) - env["z1"]).max() < 1e-2


class TestRotation:
    @pytest.mark.parametrize("steps", [1, 2])
    def test_rotate(self, env, steps):
        rotated = env["evaluator"].rotate(env["ct1"], steps)
        expected = np.roll(env["z1"], -steps)
        assert np.abs(decrypt_decode(env, rotated) - expected).max() < 1e-2

    def test_conjugate(self, env):
        conjugated = env["evaluator"].conjugate(env["ct1"])
        assert np.abs(decrypt_decode(env, conjugated) - np.conj(env["z1"])).max() < 1e-2

    def test_rotate_without_keys(self, env):
        from repro.ckks.evaluator import CkksEvaluator

        bare = CkksEvaluator(env["params"], relin_key=env["evaluator"].relin_key)
        with pytest.raises(ValueError):
            bare.rotate(env["ct1"], 1)

    def test_missing_rotation_step(self, env):
        with pytest.raises(KeyError):
            env["evaluator"].rotate(env["ct1"], 7)


class TestComposedCircuits:
    def test_mult_then_add(self, env):
        ev = env["evaluator"]
        result = ev.add(
            ev.rescale(ev.multiply(env["ct1"], env["ct2"])),
            ev.rescale(ev.multiply(env["ct2"], env["ct1"])),
        )
        expected = 2 * env["z1"] * env["z2"]
        assert np.abs(decrypt_decode(env, result) - expected).max() < 0.1

    def test_rotate_then_multiply(self, env):
        ev = env["evaluator"]
        rotated = ev.rotate(env["ct1"], 1)
        product = ev.multiply(rotated, env["ct2"])
        expected = np.roll(env["z1"], -1) * env["z2"]
        assert np.abs(decrypt_decode(env, product) - expected).max() < 5e-2

    def test_depth_two_circuit(self, env):
        """(z1*z2) * z1 across two levels with rescaling in between."""
        ev = env["evaluator"]
        first = ev.rescale(ev.multiply(env["ct1"], env["ct2"]))
        ct1_lowered = ev.level_down(env["ct1"], env["ct1"].level - first.level)
        second = ev.multiply(first, ct1_lowered)
        expected = env["z1"] ** 2 * env["z2"]
        assert np.abs(decrypt_decode(env, second) - expected).max() < 0.2


class TestPairTransforms:
    """``multiply_plain`` and ``square`` transform ``(c0, c1)`` as one stacked
    call: the pair shares calls, not rows, and the results are the per-half
    ones bit for bit."""

    def test_multiply_plain_is_the_per_half_product(self, env):
        from repro.poly.ntt_engine import reset_transform_counts, transform_counts

        ciphertext, level = env["ct1"], env["ct1"].level
        plain = env["encoder"].encode(env["z2"])
        reset_transform_counts()
        product = env["evaluator"].multiply_plain(ciphertext, plain)
        counts = transform_counts()
        assert (counts["forward"], counts["inverse"]) == (2, 1)
        assert (counts["forward_limbs"], counts["inverse_limbs"]) == (3 * level, 2 * level)
        poly = plain.poly.to_eval()
        for half, expected in ((product.c0, ciphertext.c0), (product.c1, ciphertext.c1)):
            per_half = expected.multiply(poly).to_coeff()
            assert half.domain == per_half.domain
            assert np.array_equal(half.residues, per_half.residues)

    def test_n64_linear_square_request_pays_nine_calls(self, rng):
        """The serving ring's ``(w * x + b)^2`` request: 12 calls with one
        per half, 9 with one per pair; its limb rows do not move."""
        from types import SimpleNamespace

        from repro.ckks import CkksEncoder, CkksEvaluator, Encryptor, KeyGenerator
        from repro.ckks.params import CkksParameters
        from repro.poly.ntt_engine import reset_transform_counts, transform_counts
        from repro.testing.chaos import LinearSquareCircuit

        params = CkksParameters.create(degree=64, limbs=4, log_q=28, dnum=2, scale_bits=26)
        keygen = KeyGenerator(params, rng=np.random.default_rng(1))
        encoder = CkksEncoder(params)
        session = SimpleNamespace(
            evaluator=CkksEvaluator(params, relin_key=keygen.relinearization_key()),
            encoder=encoder,
        )
        slots = params.slot_count
        payload = Encryptor(params, keygen.public_key(), keygen).encrypt(
            encoder.encode(rng.uniform(-1.0, 1.0, slots))
        )
        circuit = LinearSquareCircuit(
            weights=rng.uniform(-1.0, 1.0, slots), bias=rng.uniform(-0.2, 0.2, slots)
        )
        circuit(session, payload)
        reset_transform_counts()
        circuit(session, payload)
        counts = transform_counts()
        assert counts["forward"] + counts["inverse"] == 9
        assert (counts["forward_limbs"], counts["inverse_limbs"]) == (25, 21)
