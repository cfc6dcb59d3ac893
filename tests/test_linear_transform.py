"""Tests for the unified BSGS homomorphic linear-transform engine.

Covers the tentpole claims:

* ``DiagonalLinearTransform.apply`` matches the NumPy matrix-vector product
  on random dense/sparse matrices, BSGS splits and levels;
* the engine is bit-exact against the naive replay of its lazily
  ModDown'd dataflow (``bsgs_reference.py``) and decodes to the same slots
  as the hand-rolled hoisted rotate/multiply/add loop it replaced (which
  rounds once per rotation);
* the rotation-step bookkeeping generates exactly the Galois keys needed;
* the encoder's vectorized coefficient reduction and plaintext memoisation
  are transparent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks.encoding import (
    CkksEncoder,
    matrix_diagonals,
    matrix_from_diagonals,
    rotate_slots,
)
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear_transform import (
    DiagonalLinearTransform,
    cached_transform,
    required_rotation_steps,
)
from repro.ckks.params import CkksParameters
from repro.poly.rns_poly import RnsPolynomial

from bsgs_reference import reference_apply


@pytest.fixture(scope="module")
def env():
    """A small CKKS instance with Galois keys for every slot rotation."""
    params = CkksParameters.create(
        degree=64, limbs=4, log_q=28, dnum=2, scale_bits=22, special_limbs=3
    )
    keygen = KeyGenerator(params, rng=np.random.default_rng(42))
    encoder = CkksEncoder(params)
    evaluator = CkksEvaluator(
        params,
        relin_key=keygen.relinearization_key(),
        galois_keys=keygen.galois_keys_for_steps(
            range(1, params.slot_count), conjugation=True
        ),
    )
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    decryptor = Decryptor(params, keygen.secret_key)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1, 1, params.slot_count) + 1j * rng.uniform(
        -1, 1, params.slot_count
    )
    ciphertext = encryptor.encrypt(encoder.encode(z))
    return {
        "params": params,
        "keygen": keygen,
        "encoder": encoder,
        "evaluator": evaluator,
        "encryptor": encryptor,
        "decryptor": decryptor,
        "rng": rng,
        "z": z,
        "ct": ciphertext,
    }


def decode(env, ciphertext):
    return env["encoder"].decode(env["decryptor"].decrypt(ciphertext))


def random_matrix(rng, size, density=1.0):
    matrix = rng.uniform(-1, 1, (size, size)) + 1j * rng.uniform(-1, 1, (size, size))
    if density < 1.0:
        matrix *= rng.random((size, size)) < density
    return matrix / size  # keep outputs O(1)


class TestSlotUtilities:
    def test_rotate_slots_matches_homomorphic_rotate(self, env):
        rotated = env["evaluator"].rotate(env["ct"], 2)
        expected = rotate_slots(env["z"], 2)
        assert np.abs(decode(env, rotated) - expected).max() < 1e-2

    def test_matrix_diagonals_roundtrip(self, env):
        rng = env["rng"]
        size = env["params"].slot_count
        matrix = random_matrix(rng, size, density=0.3)
        diagonals = matrix_diagonals(matrix)
        assert np.allclose(matrix_from_diagonals(diagonals, size), matrix)

    def test_matrix_diagonals_drops_zero_diagonals(self):
        matrix = np.zeros((8, 8))
        matrix[0, 3] = 1.0  # only diagonal k=3 is populated
        diagonals = matrix_diagonals(matrix)
        assert set(diagonals) == {3}

    def test_matrix_diagonals_identity(self):
        diagonals = matrix_diagonals(np.eye(8))
        assert set(diagonals) == {0}
        assert np.allclose(diagonals[0], 1.0)

    def test_matrix_diagonals_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_diagonals(np.zeros((4, 8)))


class TestConstruction:
    def test_from_matrix_reconstructs_matrix(self, env):
        matrix = random_matrix(env["rng"], env["params"].slot_count)
        transform = DiagonalLinearTransform.from_matrix(env["encoder"], matrix)
        assert np.allclose(transform.matrix(), matrix)

    def test_diagonal_indices_normalised(self, env):
        slots = env["params"].slot_count
        vec = np.ones(slots)
        transform = DiagonalLinearTransform.from_diagonals(
            env["encoder"], {-1: vec}
        )
        assert set(transform.diagonals) == {slots - 1}

    def test_rejects_empty(self, env):
        with pytest.raises(ValueError):
            DiagonalLinearTransform.from_diagonals(env["encoder"], {})
        with pytest.raises(ValueError):
            DiagonalLinearTransform.from_diagonals(
                env["encoder"], {0: np.zeros(env["params"].slot_count)}
            )

    def test_rejects_wrong_length(self, env):
        with pytest.raises(ValueError):
            DiagonalLinearTransform.from_diagonals(env["encoder"], {0: np.ones(3)})

    def test_rejects_duplicate_indices(self, env):
        slots = env["params"].slot_count
        with pytest.raises(ValueError):
            DiagonalLinearTransform.from_diagonals(
                env["encoder"], {1: np.ones(slots), 1 + slots: np.ones(slots)}
            )

    def test_bsgs_split_covers_all_diagonals(self, env):
        slots = env["params"].slot_count
        transform = DiagonalLinearTransform.from_matrix(
            env["encoder"], random_matrix(env["rng"], slots)
        )
        reconstructed = set()
        for g, babies in transform._groups.items():
            for b in babies:
                reconstructed.add(g * transform.n1 + b)
        assert reconstructed == set(transform.diagonals)

    def test_dense_split_near_square_root(self, env):
        slots = env["params"].slot_count
        transform = DiagonalLinearTransform.from_matrix(
            env["encoder"], random_matrix(env["rng"], slots)
        )
        assert transform.rotation_count() <= 2 * int(np.ceil(np.sqrt(slots)))
        assert transform.n1 * (slots // transform.n1) <= slots


class TestApply:
    @pytest.mark.parametrize("density", [1.0, 0.25, 0.05])
    def test_matches_numpy_matvec(self, env, density):
        slots = env["params"].slot_count
        matrix = random_matrix(env["rng"], slots, density=density)
        transform = DiagonalLinearTransform.from_matrix(env["encoder"], matrix)
        result = env["evaluator"].matvec(env["ct"], transform, rescale=True)
        expected = matrix @ env["z"]
        assert np.abs(decode(env, result) - expected).max() < 5e-2
        assert np.abs(transform.apply_plain(env["z"]) - expected).max() < 1e-9

    @pytest.mark.parametrize("n1", [1, 2, 8, 32])
    def test_every_bsgs_split_agrees(self, env, n1):
        slots = env["params"].slot_count
        matrix = random_matrix(env["rng"], slots, density=0.3)
        transform = DiagonalLinearTransform.from_matrix(
            env["encoder"], matrix, n1=n1
        )
        result = env["evaluator"].matvec(env["ct"], transform, rescale=True)
        assert np.abs(decode(env, result) - matrix @ env["z"]).max() < 5e-2

    def test_apply_at_lower_level(self, env):
        slots = env["params"].slot_count
        matrix = random_matrix(env["rng"], slots)
        transform = DiagonalLinearTransform.from_matrix(env["encoder"], matrix)
        lowered = env["evaluator"].level_down(env["ct"])
        result = env["evaluator"].matvec(lowered, transform, rescale=True)
        assert result.level == lowered.level - 1
        assert np.abs(decode(env, result) - matrix @ env["z"]).max() < 5e-2

    def test_single_diagonal_is_plain_multiply(self, env):
        slots = env["params"].slot_count
        weights = env["rng"].uniform(-1, 1, slots)
        transform = DiagonalLinearTransform.from_diagonals(
            env["encoder"], {0: weights}
        )
        assert transform.rotation_count() == 0
        result = env["evaluator"].matvec(env["ct"], transform, rescale=True)
        assert np.abs(decode(env, result) - weights * env["z"]).max() < 5e-2

    def test_permutation_matrix_rotation(self, env):
        """A pure rotation matrix reduces to one diagonal of ones."""
        slots = env["params"].slot_count
        rows = np.arange(slots)
        matrix = np.zeros((slots, slots))
        matrix[rows, (rows + 3) % slots] = 1.0
        transform = DiagonalLinearTransform.from_matrix(env["encoder"], matrix)
        assert set(transform.diagonals) == {3}
        result = env["evaluator"].matvec(env["ct"], transform, rescale=True)
        assert np.abs(decode(env, result) - rotate_slots(env["z"], 3)).max() < 5e-2

    def test_scale_bookkeeping(self, env):
        slots = env["params"].slot_count
        transform = DiagonalLinearTransform.from_matrix(
            env["encoder"], random_matrix(env["rng"], slots)
        )
        unrescaled = transform.apply(env["evaluator"], env["ct"])
        assert unrescaled.scale == pytest.approx(
            env["ct"].scale * env["params"].scale
        )
        assert unrescaled.level == env["ct"].level

    def test_plaintext_cache_reused_across_applies(self, env):
        slots = env["params"].slot_count
        transform = DiagonalLinearTransform.from_matrix(
            env["encoder"], random_matrix(env["rng"], slots, density=0.2)
        )
        first = transform.apply(env["evaluator"], env["ct"])
        cache = transform._extended_plain_cache[env["ct"].level]
        second = transform.apply(env["evaluator"], env["ct"])
        assert transform._extended_plain_cache[env["ct"].level] is cache
        assert np.array_equal(first.c0.residues, second.c0.residues)

    def test_slot_count_mismatch_rejected(self, env):
        other = CkksParameters.create(degree=32, limbs=2, log_q=28, dnum=2)
        transform = DiagonalLinearTransform.from_diagonals(
            CkksEncoder(other), {0: np.ones(other.slot_count)}
        )
        with pytest.raises(ValueError):
            transform.apply(env["evaluator"], env["ct"])


class TestBitExactness:
    def legacy_loop(self, env, ciphertext, diagonals):
        """The pre-engine hoisted rotate/multiply/add loop (scale Delta)."""
        evaluator, encoder = env["evaluator"], env["encoder"]
        hoisted = evaluator.hoist(ciphertext)
        accumulator = None
        for steps, weights in diagonals.items():
            rotated = (
                ciphertext
                if steps == 0
                else evaluator.rotate_hoisted(hoisted, steps)
            )
            plain = encoder.encode(weights, level=rotated.level)
            term = evaluator.multiply_plain(rotated, plain)
            accumulator = (
                term if accumulator is None else evaluator.add(accumulator, term)
            )
        return accumulator

    def test_baby_only_split_matches_naive_replay(self, env):
        """Bit-exact vs the per-term replay; same slots as the legacy loop,
        which ModDowns every rotation where the engine ModDowns the sum."""
        slots = env["params"].slot_count
        rng = env["rng"]
        diagonals = {s: rng.uniform(-1, 1, slots) for s in (0, 1, 5, 9)}
        transform = DiagonalLinearTransform.from_diagonals(
            env["encoder"], diagonals, n1=slots
        )
        assert transform.giant_steps == []
        engine = transform.apply(env["evaluator"], env["ct"])
        replay = reference_apply(env["evaluator"], transform, env["ct"])
        assert np.array_equal(engine.c0.residues, replay.c0.residues)
        assert np.array_equal(engine.c1.residues, replay.c1.residues)
        legacy = self.legacy_loop(env, env["ct"], diagonals)
        assert engine.scale == replay.scale == legacy.scale
        assert np.abs(decode(env, engine) - decode(env, legacy)).max() < 1e-3

    def test_single_unrotated_diagonal_is_multiply_plain(self, env):
        """With nothing key-switched the P-lift divides out exactly."""
        weights = env["rng"].uniform(-1, 1, env["params"].slot_count)
        transform = DiagonalLinearTransform.from_diagonals(
            env["encoder"], {0: weights}
        )
        engine = transform.apply(env["evaluator"], env["ct"])
        plain = env["encoder"].encode(weights, level=env["ct"].level)
        expected = env["evaluator"].multiply_plain(env["ct"], plain)
        assert np.array_equal(
            engine.c0.to_coeff().residues, expected.c0.to_coeff().residues
        )
        assert np.array_equal(
            engine.c1.to_coeff().residues, expected.c1.to_coeff().residues
        )


class TestRotationKeyHelper:
    def test_exact_key_set_suffices(self, env):
        """An evaluator with only the helper's keys can run the transform."""
        slots = env["params"].slot_count
        matrix = random_matrix(env["rng"], slots, density=0.15)
        transform = DiagonalLinearTransform.from_matrix(env["encoder"], matrix)
        keys = env["keygen"].galois_keys_for_steps(
            required_rotation_steps(transform)
        )
        minimal = CkksEvaluator(env["params"], galois_keys=keys)
        result = minimal.matvec(env["ct"], transform, rescale=True)
        assert np.abs(decode(env, result) - matrix @ env["z"]).max() < 5e-2

    def test_key_set_is_exact(self, env):
        transform = DiagonalLinearTransform.from_diagonals(
            env["encoder"],
            {k: np.ones(env["params"].slot_count) for k in (0, 1, 9)},
            n1=4,
        )
        keys = env["keygen"].galois_keys_for_steps(
            required_rotation_steps(transform)
        )
        degree = env["params"].degree
        expected = {
            pow(5, s, 2 * degree) for s in transform.rotation_steps()
        }
        assert set(keys.keys) == expected

    def test_zero_step_skipped(self, env):
        keys = env["keygen"].galois_keys_for_steps([0])
        assert keys.keys == {}

    def test_conjugation_included_on_request(self, env):
        degree = env["params"].degree
        keys = env["keygen"].galois_keys_for_steps([1], conjugation=True)
        assert set(keys.keys) == {5 % (2 * degree), 2 * degree - 1}

    def test_required_rotation_steps_unions(self, env):
        slots = env["params"].slot_count
        first = DiagonalLinearTransform.from_diagonals(
            env["encoder"], {1: np.ones(slots)}, n1=slots
        )
        second = DiagonalLinearTransform.from_diagonals(
            env["encoder"], {2: np.ones(slots)}, n1=slots
        )
        assert required_rotation_steps(first, second) == [1, 2]


class TestRotateMany:
    def test_matches_sequential_rotations(self, env):
        evaluator = env["evaluator"]
        batch = evaluator.rotate_many(env["ct"], [0, 1, 5])
        assert batch[0] is env["ct"]
        for steps, rotated in zip([0, 1, 5], batch):
            expected = rotate_slots(env["z"], steps)
            assert np.abs(decode(env, rotated) - expected).max() < 1e-2

    def test_duplicates_reuse_rotation(self, env):
        batch = env["evaluator"].rotate_many(env["ct"], [3, 3])
        assert batch[0] is batch[1]

    def test_empty_batch_rejected(self, env):
        with pytest.raises(ValueError):
            env["evaluator"].rotate_many(env["ct"], [])


class TestEncoderFastPaths:
    def test_vectorized_reduction_matches_bigint_path(self, env):
        """int64 np.mod reduction == the per-coefficient ``int(c) % Q`` loop."""
        params, encoder = env["params"], env["encoder"]
        rng = env["rng"]
        values = rng.uniform(-3, 3, params.slot_count) + 1j * rng.uniform(
            -3, 3, params.slot_count
        )
        coeffs = encoder.inverse_embedding(values)
        scaled = np.round(coeffs * params.scale).astype(object)
        level_basis = params.basis_at_level(params.limbs)
        for basis in (level_basis, params.extended_basis(params.limbs)):
            expected = RnsPolynomial.from_int_coefficients(
                [int(c) % basis.modulus_product for c in scaled], basis
            )
            encoded = encoder.encode_at_basis(values, params.scale, basis)
            assert np.array_equal(encoded.residues, expected.residues)
            if basis is level_basis:
                plain = encoder.encode(values)
                assert np.array_equal(plain.poly.residues, expected.residues)

    def test_encode_memoised_on_request(self, env):
        encoder = env["encoder"]
        values = np.arange(env["params"].slot_count, dtype=np.float64)
        first = encoder.encode(values, level=2, cache=True)
        second = encoder.encode(values, level=2, cache=True)
        assert first.poly is second.poly  # cache hit shares the polynomial
        third = encoder.encode(values, level=3, cache=True)
        assert third.poly is not first.poly  # level is part of the key

    def test_data_encodings_not_retained(self, env):
        """One-off data encodes stay out of the parameter cache."""
        encoder = env["encoder"]
        values = np.full(env["params"].slot_count, 0.125)
        before = len(encoder._encode_cache)
        first = encoder.encode(values)
        second = encoder.encode(values)
        assert first.poly is not second.poly
        assert len(encoder._encode_cache) == before
        assert np.array_equal(first.poly.residues, second.poly.residues)

    def test_cached_polynomial_is_read_only(self, env):
        values = np.ones(env["params"].slot_count)
        plain = env["encoder"].encode(values, cache=True)
        with pytest.raises(ValueError):
            plain.poly.residues[0, 0] = 1

    def test_memoised_encode_roundtrips(self, env):
        values = env["rng"].uniform(-1, 1, env["params"].slot_count)
        env["encoder"].encode(values, cache=True)  # populate cache
        decoded = env["encoder"].decode(env["encoder"].encode(values, cache=True))
        assert np.abs(decoded.real - values).max() < 1e-4


class TestWorkloadsOnEngine:
    def test_conv_taps_bit_exact_vs_naive_replay(self, env):
        slots = env["params"].slot_count
        rng = env["rng"]
        taps = [(s, rng.uniform(-1, 1, slots)) for s in (0, 1, 7)]
        # A tap batch is a baby-only transform: every rotation is hoisted.
        transform = DiagonalLinearTransform.from_diagonals(
            env["encoder"], dict(taps), n1=slots
        )
        engine = env["evaluator"].matvec(env["ct"], transform, rescale=True)
        replay = env["evaluator"].rescale(
            reference_apply(env["evaluator"], transform, env["ct"])
        )
        assert np.array_equal(engine.c0.residues, replay.c0.residues)
        assert np.array_equal(engine.c1.residues, replay.c1.residues)
        legacy = env["evaluator"].rescale(
            TestBitExactness().legacy_loop(env, env["ct"], dict(taps))
        )
        assert np.abs(decode(env, engine) - decode(env, legacy)).max() < 1e-3
        expected = sum(w * rotate_slots(env["z"], s) for s, w in taps)
        assert np.abs(decode(env, engine) - expected).max() < 5e-2

    def test_baby_only_split_exposes_steps(self, env):
        slots = env["params"].slot_count
        transform = DiagonalLinearTransform.from_diagonals(
            env["encoder"], {0: np.ones(slots), 2: np.ones(slots)}, n1=slots
        )
        assert transform.giant_steps == []
        assert transform.rotation_steps() == [2]

    def test_cached_transform_memoised(self, env):
        encoder = env["encoder"]
        slots = env["params"].slot_count

        def build():
            return DiagonalLinearTransform.from_diagonals(encoder, {0: np.ones(slots)})

        first = cached_transform(encoder, ("memo", 1), build)
        assert cached_transform(encoder, ("memo", 1), build) is first
        assert cached_transform(encoder, ("memo", 2), build) is not first

    def test_rotate_many_sum_bit_exact_vs_legacy(self, env):
        evaluator, ct = env["evaluator"], env["ct"]
        offsets = [0, 1, 5]
        hoisted = evaluator.hoist(ct)
        legacy = None
        for steps in offsets:
            term = ct if steps == 0 else evaluator.rotate_hoisted(hoisted, steps)
            legacy = term if legacy is None else evaluator.add(legacy, term)
        terms = evaluator.rotate_many(ct, offsets)
        engine = evaluator.add(evaluator.add(terms[0], terms[1]), terms[2])
        assert np.array_equal(engine.c0.residues, legacy.c0.residues)
        assert np.array_equal(engine.c1.residues, legacy.c1.residues)

    def test_dense_band_matvec(self, env):
        slots = env["params"].slot_count
        matrix = random_matrix(env["rng"], slots, density=0.4)
        transform = DiagonalLinearTransform.from_matrix(env["encoder"], matrix)
        result = env["evaluator"].matvec(env["ct"], transform, rescale=True)
        assert np.abs(decode(env, result) - matrix @ env["z"]).max() < 5e-2
        assert transform.giant_steps and transform.baby_steps != [0]
        replay = env["evaluator"].rescale(
            reference_apply(env["evaluator"], transform, env["ct"])
        )
        assert np.array_equal(result.c0.residues, replay.c0.residues)
        assert np.array_equal(result.c1.residues, replay.c1.residues)
