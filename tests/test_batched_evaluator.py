"""Batched multi-ciphertext evaluation: bit-exactness against the loop.

The batch axis contract (:mod:`repro.ckks.batch`): ``B`` compatible
ciphertexts stacked into one ``(B, 2, L, N)`` ciphertext must run through
every public evaluator operator as ONE batched kernel pass whose unstacked
result is **bit-identical** (``np.array_equal`` on every residue component)
to applying the same operator to each member sequentially.  These are the
property tests that pin that contract, operator by operator, plus the
stacking discipline itself (compatibility validation, noise bookkeeping,
member independence) and the batch-aware operation counters the schedule
models ground against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks.batch import batch_size, stack_ciphertexts, unstack_ciphertext
from repro.ckks.encoding import CkksEncoder
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear_transform import (
    DiagonalLinearTransform,
    required_rotation_steps,
)
from repro.ckks.params import CkksParameters
from repro.errors import IncompatibleOperands, ParameterError

BATCH = 4


@pytest.fixture(scope="module")
def env():
    """A serving-ring CKKS instance with Galois keys for every rotation."""
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
    return {
        "params": params,
        "encoder": encoder,
        "evaluator": evaluator,
        "encryptor": encryptor,
        "decryptor": decryptor,
    }


def fresh_batch(env, count: int = BATCH, seed: int = 7):
    """``count`` independent ciphertexts over random complex slots."""
    params, encoder, encryptor = env["params"], env["encoder"], env["encryptor"]
    rng = np.random.default_rng(seed)
    cts = []
    for _ in range(count):
        z = rng.uniform(-1, 1, params.slot_count) + 1j * rng.uniform(
            -1, 1, params.slot_count
        )
        cts.append(encryptor.encrypt(encoder.encode(z)))
    return cts


def assert_bit_identical(sequential, batched):
    """Every member of ``batched`` equals its sequential oracle exactly."""
    assert len(batched) == len(sequential)
    for index, (seq, bat) in enumerate(zip(sequential, batched)):
        assert bat.level == seq.level
        assert bat.scale == pytest.approx(seq.scale)
        assert np.array_equal(
            seq.c0.to_coeff().residues, bat.c0.to_coeff().residues
        ), f"member {index}: c0 differs from the sequential oracle"
        assert np.array_equal(
            seq.c1.to_coeff().residues, bat.c1.to_coeff().residues
        ), f"member {index}: c1 differs from the sequential oracle"
        assert (seq.c2 is None) == (bat.c2 is None)
        if seq.c2 is not None:
            assert np.array_equal(
                seq.c2.to_coeff().residues, bat.c2.to_coeff().residues
            ), f"member {index}: c2 differs from the sequential oracle"


# ---------------------------------------------------------------------------
# Stacking discipline
# ---------------------------------------------------------------------------


class TestStacking:
    def test_roundtrip_is_bit_identical(self, env):
        cts = fresh_batch(env)
        stacked = stack_ciphertexts(cts)
        assert batch_size(stacked) == BATCH
        assert stacked.c0.batch_shape == (BATCH,)
        assert_bit_identical(cts, unstack_ciphertext(stacked))

    def test_single_member_passthrough(self, env):
        ct = fresh_batch(env, count=1)[0]
        assert stack_ciphertexts([ct]) is ct
        assert batch_size(ct) == 1
        assert unstack_ciphertext(ct) == [ct]

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError):
            stack_ciphertexts([])

    def test_level_mismatch_rejected(self, env):
        cts = fresh_batch(env, count=2)
        cts[1] = env["evaluator"].level_down(cts[1])
        with pytest.raises(IncompatibleOperands):
            stack_ciphertexts(cts)

    def test_scale_mismatch_rejected(self, env):
        cts = fresh_batch(env, count=2)
        cts[1] = env["evaluator"].mul_plain_scalar(cts[1], 0.5)
        with pytest.raises(IncompatibleOperands):
            stack_ciphertexts(cts)

    def test_linear_quadratic_mix_rejected(self, env):
        cts = fresh_batch(env, count=2)
        quadratic = env["evaluator"].multiply(cts[1], cts[1], relinearize=False)
        with pytest.raises(IncompatibleOperands):
            stack_ciphertexts([cts[0], quadratic])

    def test_restacking_a_batch_rejected(self, env):
        stacked = stack_ciphertexts(fresh_batch(env, count=2))
        with pytest.raises(ParameterError):
            stack_ciphertexts([stacked, stacked])

    def test_noise_is_conservative_maximum(self, env):
        cts = fresh_batch(env)
        bits = [ct.noise_bits for ct in cts]
        assert all(b is not None for b in bits)
        cts[2].noise_bits = max(bits) + 5.0
        stacked = stack_ciphertexts(cts)
        assert stacked.noise_bits == pytest.approx(max(bits) + 5.0)

    def test_unstacked_members_are_independent_copies(self, env):
        stacked = stack_ciphertexts(fresh_batch(env, count=2))
        members = unstack_ciphertext(stacked)
        before = members[1].c0.residues.copy()
        stacked.c0.residues[0] ^= 1
        assert np.array_equal(members[1].c0.residues, before)


# ---------------------------------------------------------------------------
# Every batched operator vs the sequential loop
# ---------------------------------------------------------------------------


class TestBatchedOpsBitExact:
    def _roundtrip(self, env, op):
        """unstack(op(stack(cts))) must equal [op(ct) for ct in cts]."""
        cts = fresh_batch(env)
        sequential = [op(ct) for ct in cts]
        batched = unstack_ciphertext(op(stack_ciphertexts(cts)))
        assert_bit_identical(sequential, batched)

    def test_add(self, env):
        ev = env["evaluator"]
        lhs, rhs = fresh_batch(env, seed=7), fresh_batch(env, seed=8)
        sequential = [ev.add(a, b) for a, b in zip(lhs, rhs)]
        batched = unstack_ciphertext(
            ev.add(stack_ciphertexts(lhs), stack_ciphertexts(rhs))
        )
        assert_bit_identical(sequential, batched)

    def test_sub(self, env):
        ev = env["evaluator"]
        lhs, rhs = fresh_batch(env, seed=7), fresh_batch(env, seed=8)
        sequential = [ev.sub(a, b) for a, b in zip(lhs, rhs)]
        batched = unstack_ciphertext(
            ev.sub(stack_ciphertexts(lhs), stack_ciphertexts(rhs))
        )
        assert_bit_identical(sequential, batched)

    def test_multiply_relinearized(self, env):
        ev = env["evaluator"]
        lhs, rhs = fresh_batch(env, seed=7), fresh_batch(env, seed=8)
        sequential = [ev.multiply(a, b) for a, b in zip(lhs, rhs)]
        batched = unstack_ciphertext(
            ev.multiply(stack_ciphertexts(lhs), stack_ciphertexts(rhs))
        )
        assert_bit_identical(sequential, batched)

    def test_multiply_unrelinearized_keeps_c2(self, env):
        ev = env["evaluator"]
        lhs, rhs = fresh_batch(env, seed=7), fresh_batch(env, seed=8)
        sequential = [
            ev.multiply(a, b, relinearize=False) for a, b in zip(lhs, rhs)
        ]
        batched = unstack_ciphertext(
            ev.multiply(
                stack_ciphertexts(lhs),
                stack_ciphertexts(rhs),
                relinearize=False,
            )
        )
        assert batched[0].c2 is not None
        assert_bit_identical(sequential, batched)

    def test_square(self, env):
        self._roundtrip(env, env["evaluator"].square)

    def test_multiply_plain(self, env):
        ev, encoder, params = env["evaluator"], env["encoder"], env["params"]
        level = fresh_batch(env, count=1)[0].level
        plaintext = encoder.encode(
            np.linspace(-0.5, 0.5, params.slot_count), level=level
        )
        self._roundtrip(env, lambda ct: ev.multiply_plain(ct, plaintext))

    def test_add_plain(self, env):
        ev, encoder, params = env["evaluator"], env["encoder"], env["params"]
        ct0 = fresh_batch(env, count=1)[0]
        plaintext = encoder.encode(
            np.linspace(-0.5, 0.5, params.slot_count),
            level=ct0.level,
            scale=ct0.scale,
        )
        self._roundtrip(env, lambda ct: ev.add_plain(ct, plaintext))

    def test_scalar_ops(self, env):
        ev = env["evaluator"]
        self._roundtrip(env, lambda ct: ev.mul_plain_scalar(ct, 0.75))
        self._roundtrip(env, lambda ct: ev.add_scalar(ct, 0.25 - 0.5j))
        self._roundtrip(env, lambda ct: ev.sub_scalar(ct, 1.25))

    def test_rescale(self, env):
        ev = env["evaluator"]
        self._roundtrip(env, lambda ct: ev.rescale(ev.square(ct)))

    def test_level_down(self, env):
        self._roundtrip(env, env["evaluator"].level_down)

    def test_rotate(self, env):
        ev = env["evaluator"]
        self._roundtrip(env, lambda ct: ev.rotate(ct, 3))

    def test_conjugate(self, env):
        self._roundtrip(env, env["evaluator"].conjugate)

    def test_hoisted_rotations(self, env):
        ev = env["evaluator"]
        cts = fresh_batch(env)
        steps = [1, 5]
        sequential = [
            [ev.rotate_hoisted(ev.hoist(ct), s) for s in steps] for ct in cts
        ]
        hoisted = ev.hoist(stack_ciphertexts(cts))
        for position, step in enumerate(steps):
            batched = unstack_ciphertext(ev.rotate_hoisted(hoisted, step))
            assert_bit_identical(
                [per_ct[position] for per_ct in sequential], batched
            )

    def test_deep_pipeline(self, env):
        """The serving-shaped circuit end to end: (rot(w*x))^2, rescaled."""
        ev, encoder, params = env["evaluator"], env["encoder"], env["params"]
        level = fresh_batch(env, count=1)[0].level
        weights = encoder.encode(
            np.full(params.slot_count, 0.5), level=level
        )

        def circuit(ct):
            y = ev.rescale(ev.multiply_plain(ct, weights))
            return ev.rescale(ev.square(ev.rotate(y, 1)))

        self._roundtrip(env, circuit)


# ---------------------------------------------------------------------------
# Batched BSGS linear transforms
# ---------------------------------------------------------------------------


class TestBatchedTransforms:
    @pytest.fixture(scope="class")
    def transform(self, env):
        rng = np.random.default_rng(17)
        slots = env["params"].slot_count
        matrix = rng.uniform(-0.5, 0.5, (slots, slots))
        transform = DiagonalLinearTransform.from_matrix(env["encoder"], matrix)
        assert set(required_rotation_steps(transform)) <= set(
            range(1, slots)
        )
        return transform

    def test_apply_batched_matches_sequential(self, env, transform):
        ev = env["evaluator"]
        cts = fresh_batch(env)
        sequential = [transform.apply(ev, ct) for ct in cts]
        batched = unstack_ciphertext(transform.apply(ev, stack_ciphertexts(cts)))
        assert_bit_identical(sequential, batched)

    def test_apply_batch_helper(self, env, transform):
        ev = env["evaluator"]
        cts = fresh_batch(env, seed=9)
        sequential = [transform.apply(ev, ct) for ct in cts]
        assert_bit_identical(sequential, transform.apply_batch(ev, cts))

    def test_apply_batch_single_member(self, env, transform):
        ev = env["evaluator"]
        ct = fresh_batch(env, count=1)[0]
        assert_bit_identical(
            [transform.apply(ev, ct)], transform.apply_batch(ev, [ct])
        )

    def test_apply_batch_empty_rejected(self, env, transform):
        with pytest.raises(ParameterError):
            transform.apply_batch(env["evaluator"], [])


# ---------------------------------------------------------------------------
# Batch-aware operation counters
# ---------------------------------------------------------------------------


class TestBatchedCounters:
    def test_batched_ops_book_logical_operations(self, env):
        """A batched call counts B logical ops, so schedule models stay true."""
        ev = env["evaluator"]
        stacked = stack_ciphertexts(fresh_batch(env))
        ev.reset_operation_counts()
        ev.square(stacked)
        assert ev.operation_counts["he_mult"] == BATCH
        ev.reset_operation_counts()
        ev.rotate(stacked, 1)
        assert ev.operation_counts["rotate"] == BATCH
        ev.reset_operation_counts()
        ev.add(stacked, stacked)
        assert ev.operation_counts["he_add"] == BATCH

    def test_unbatched_ops_book_one(self, env):
        ev = env["evaluator"]
        ct = fresh_batch(env, count=1)[0]
        ev.reset_operation_counts()
        ev.square(ct)
        assert ev.operation_counts["he_mult"] == 1
