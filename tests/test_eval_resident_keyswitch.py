"""Evaluation-domain-resident key switching (PR 12).

Every step of the new dataflow is bit-identical to the path through the
coefficient domain it replaces, and is tested against that path built from
the unchanged public stage functions:

* the evaluation-domain ModDown equals ``NTT(mod_down_stacked(INTT(x)))``;
* own-limb-skip digits equal ``NTT(decompose_and_extend(.))``;
* ``DiagonalLinearTransform.apply`` equals a reference assembled from the
  public ``rotate_many`` / ``multiply_plain`` / ``add`` / ``rotate``;
* the lazily reduced inner sum honours its uint64 chunk bound;
* the circuit's limb-row budget is exact (counter based, no timing).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.encoding import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyGenerator, digit_partition
from repro.ckks.keyswitch import (
    decompose_and_extend,
    decompose_to_eval,
    mod_down_stacked,
    modular_inner_product,
    switch_key,
)
from repro.ckks.linear_transform import DiagonalLinearTransform
from repro.ckks.params import CkksParameters
from repro.numtheory.crt import RnsBasis
from repro.poly.ntt_engine import reset_transform_counts, transform_counts
from repro.poly.rns_poly import (
    EVAL_DOMAIN,
    RnsPolynomial,
    stacked_ntt_forward,
    stacked_ntt_inverse,
)


def random_residues(basis: RnsBasis, rng, lead=()) -> np.ndarray:
    return np.stack(
        [rng.integers(0, q, lead + (basis.degree,), dtype=np.uint64) for q in basis.moduli],
        axis=-2,
    )


# The key-switch grid of test_keyswitch_fused.py (two and three digits at
# N = 64, where stacked operands fold into one cascade) plus one ring above
# the fold cap, where they run slice by slice.
GRID = {
    "two_digits": dict(degree=64, limbs=3, log_q=28, dnum=2, scale_bits=21),
    "three_digits": dict(degree=64, limbs=3, log_q=28, dnum=3, scale_bits=21),
    "per_slice_ring": dict(degree=4096, limbs=3, log_q=28, dnum=2, scale_bits=21),
}


@pytest.fixture(scope="module", params=sorted(GRID))
def grid_params(request):
    return CkksParameters.create(**GRID[request.param])


class TestEvalDomainModDown:
    @pytest.mark.parametrize("lead", [(), (2,), (3, 2)])
    def test_equals_transformed_coefficient_mod_down(self, grid_params, rng, lead):
        params = grid_params
        for level in range(1, params.limbs + 1):
            extended = params.extended_basis(level)
            x_eval = random_residues(extended, rng, lead)
            expected = stacked_ntt_forward(
                params.basis_at_level(level),
                mod_down_stacked(stacked_ntt_inverse(extended, x_eval), params, level),
            )
            got = mod_down_stacked(x_eval, params, level, EVAL_DOMAIN)
            assert np.array_equal(got, expected)

    def test_moves_only_special_and_correction_rows(self, grid_params, rng):
        params = grid_params
        level = params.limbs
        x_eval = random_residues(params.extended_basis(level), rng, (2,))
        reset_transform_counts()
        mod_down_stacked(x_eval, params, level, EVAL_DOMAIN)
        counts = transform_counts()
        assert counts["inverse_limbs"] == 2 * params.special_limbs
        assert counts["forward_limbs"] == 2 * level

    def test_rejects_wrong_basis(self, grid_params):
        params = grid_params
        with pytest.raises(ValueError):
            mod_down_stacked(
                np.zeros((params.limbs, params.degree), dtype=np.uint64),
                params,
                params.limbs,
                EVAL_DOMAIN,
            )


class TestLimbSubsetTransforms:
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_subset_equals_rows_of_the_full_transform(self, grid_params, rng, lead):
        extended = grid_params.extended_basis(grid_params.limbs)
        x = random_residues(extended, rng, lead)
        forward = stacked_ntt_forward(extended, x)
        inverse = stacked_ntt_inverse(extended, x)
        for limbs in [slice(0, 1), slice(1, None), slice(1, 3), slice(None)]:
            assert np.array_equal(
                stacked_ntt_forward(extended, x[..., limbs, :], limbs), forward[..., limbs, :]
            )
            assert np.array_equal(
                stacked_ntt_inverse(extended, x[..., limbs, :], limbs), inverse[..., limbs, :]
            )

    def test_subset_counts_only_its_rows(self, grid_params, rng):
        extended = grid_params.extended_basis(grid_params.limbs)
        x = random_residues(extended, rng, (2,))
        reset_transform_counts()
        stacked_ntt_forward(extended, x[..., 1:3, :], slice(1, 3))
        assert transform_counts()["forward_limbs"] == 2 * 2

    def test_subset_shape_is_checked(self, grid_params, rng):
        extended = grid_params.extended_basis(grid_params.limbs)
        x = random_residues(extended, rng)
        with pytest.raises(ValueError):
            stacked_ntt_forward(extended, x, slice(1, 3))


class TestOwnLimbSkip:
    def test_digits_equal_the_full_forward_pass(self, grid_params, rng):
        params = grid_params
        for level in range(1, params.limbs + 1):
            basis = params.basis_at_level(level)
            extended = params.extended_basis(level)
            for lead in [(), (2,)]:
                coeff = RnsPolynomial(basis, random_residues(basis, rng, lead))
                held = coeff.to_eval()
                expected = stacked_ntt_forward(
                    extended, decompose_and_extend(coeff, params, level)
                )
                assert np.array_equal(decompose_to_eval(coeff, params, level), expected)
                assert np.array_equal(
                    decompose_to_eval(coeff, params, level, held.residues), expected
                )
                assert np.array_equal(decompose_to_eval(held, params, level), expected)

    def test_skip_saves_exactly_the_own_limbs(self, grid_params, rng):
        params = grid_params
        level = params.limbs
        basis = params.basis_at_level(level)
        coeff = RnsPolynomial(basis, random_residues(basis, rng))
        held = coeff.to_eval().residues
        digit_count = len(digit_partition(level, params.dnum))
        reset_transform_counts()
        decompose_to_eval(coeff, params, level, held)
        counts = transform_counts()
        assert counts["forward_limbs"] == digit_count * (level + params.special_limbs) - level
        assert counts["inverse_limbs"] == 0

    def test_switch_key_is_domain_independent(self, grid_params, rng):
        params = grid_params
        relin = KeyGenerator(params, rng=np.random.default_rng(5)).relinearization_key()
        level = params.limbs
        basis = params.basis_at_level(level)
        coeff = RnsPolynomial(basis, random_residues(basis, rng))
        oracle = switch_key(coeff, relin, params, level)
        skipped = switch_key(coeff.to_eval(), relin, params, level)
        for got, expected in zip(skipped, oracle):
            assert np.array_equal(got.residues, expected.residues)


# ------------------------------------------------------------------ the BSGS
@pytest.fixture(scope="module")
def ledger_env():
    """The ledger's circuit shape (L = 8, dnum = 3, alpha = 3) at N = 64."""
    params = CkksParameters.create(degree=64, limbs=8, log_q=28, dnum=3, scale_bits=22)
    keygen = KeyGenerator(params, rng=np.random.default_rng(42))
    encoder = CkksEncoder(params)
    evaluator = CkksEvaluator(
        params,
        relin_key=keygen.relinearization_key(),
        galois_keys=keygen.galois_keys_for_steps(range(1, params.slot_count)),
    )
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    rng = np.random.default_rng(7)
    cts = [
        encryptor.encrypt(encoder.encode(rng.uniform(-1, 1, params.slot_count)))
        for _ in range(3)
    ]
    return {"params": params, "encoder": encoder, "evaluator": evaluator, "cts": cts, "rng": rng}


def public_reference(env, transform, ciphertext):
    """BSGS from public operators only; every term leaves the eval domain."""
    evaluator, encoder = env["evaluator"], env["encoder"]
    level, n1 = ciphertext.level, transform.n1
    rotated = dict(
        zip(transform.baby_steps, evaluator.rotate_many(ciphertext, transform.baby_steps))
    )
    output = None
    for g in sorted(transform._groups):
        inner = None
        for b in transform._groups[g]:
            plain = encoder.encode(
                np.roll(transform.diagonals[g * n1 + b], g * n1),
                scale=transform.plaintext_scale(level),
                level=level,
            )
            term = evaluator.multiply_plain(rotated[b], plain)
            inner = term if inner is None else evaluator.add(inner, term)
        if g:
            inner = evaluator.rotate(inner, g * n1)
        output = inner if output is None else evaluator.add(output, inner)
    return output


SHAPES = {
    "dense_16": (range(16), 4),
    "no_diagonal_0": ((1, 2, 5, 6, 9), 4),
    "no_group_0": ((4, 5, 9), 4),
    "baby_only": ((0, 1, 3), 4),
    "giant_only": ((0, 4, 8), 4),
    "single_diagonal": ((5,), 4),
    "identity_diagonal": ((0,), 4),
    "ragged_groups": ((0, 1, 2, 3, 4, 6, 9, 12, 13), 4),
}


def build_transform(env, shape):
    indices, n1 = SHAPES[shape]
    slots = env["params"].slot_count
    diagonals = {k: env["rng"].uniform(-1, 1, slots) for k in indices}
    return DiagonalLinearTransform.from_diagonals(env["encoder"], diagonals, n1=n1)


def assert_same_ciphertext(got, expected):
    assert got.level == expected.level and got.scale == expected.scale
    assert np.array_equal(got.c0.to_coeff().residues, expected.c0.to_coeff().residues)
    assert np.array_equal(got.c1.to_coeff().residues, expected.c1.to_coeff().residues)


class TestApplyBitIdentical:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_apply_equals_public_reference(self, ledger_env, shape):
        transform = build_transform(ledger_env, shape)
        ciphertext = ledger_env["cts"][0]
        got = transform.apply(ledger_env["evaluator"], ciphertext)
        assert_same_ciphertext(got, public_reference(ledger_env, transform, ciphertext))

    @pytest.mark.parametrize("shape", ["dense_16", "no_group_0"])
    def test_eval_domain_input(self, ledger_env, shape):
        transform = build_transform(ledger_env, shape)
        ciphertext = ledger_env["cts"][0]
        in_eval = type(ciphertext)(
            c0=ciphertext.c0.to_eval(),
            c1=ciphertext.c1.to_eval(),
            scale=ciphertext.scale,
            level=ciphertext.level,
        )
        assert_same_ciphertext(
            transform.apply(ledger_env["evaluator"], in_eval),
            transform.apply(ledger_env["evaluator"], ciphertext),
        )

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("shape", ["dense_16", "no_diagonal_0", "giant_only"])
    def test_apply_batch_equals_public_reference(self, ledger_env, shape, batch):
        transform = build_transform(ledger_env, shape)
        cts = ledger_env["cts"][:batch]
        results = transform.apply_batch(ledger_env["evaluator"], cts)
        assert len(results) == batch
        for got, ciphertext in zip(results, cts):
            assert_same_ciphertext(got, public_reference(ledger_env, transform, ciphertext))

    def test_operation_counts_unchanged(self, ledger_env):
        """6 key-switched rotations and groups - 1 additions, as before."""
        evaluator = ledger_env["evaluator"]
        transform = build_transform(ledger_env, "dense_16")
        evaluator.reset_operation_counts()
        transform.apply(evaluator, ledger_env["cts"][0])
        assert evaluator.operation_counts == {"rotate": 6, "he_add": 3}


class TestLimbRowBudget:
    """Exact, counter-based budgets at the ledger's shape: 16 diagonals,
    ``n1 = 4``, L = 8, dnum = 3, alpha = 3 (limb rows do not depend on N)."""

    def test_matvec_square_circuit(self, ledger_env):
        evaluator = ledger_env["evaluator"]
        transform = build_transform(ledger_env, "dense_16")
        ciphertext = ledger_env["cts"][0]

        def circuit():
            product = evaluator.matvec(ciphertext, transform, rescale=True)
            return evaluator.rescale(evaluator.square(product))

        circuit()  # warm the plaintext and key eval-digit caches
        reset_transform_counts()
        circuit()
        counts = transform_counts()
        # Parent commit: 240 forward + 237 inverse = 477.
        assert counts["forward_limbs"] == 201
        assert counts["inverse_limbs"] == 165
        assert counts["forward_limbs"] + counts["inverse_limbs"] <= 366

    def test_square_saves_its_level(self, ledger_env):
        evaluator = ledger_env["evaluator"]
        ciphertext = evaluator.rescale(ledger_env["cts"][0])
        level, alpha = ciphertext.level, ledger_env["params"].special_limbs
        evaluator.square(ciphertext)
        reset_transform_counts()
        evaluator.square(ciphertext)
        counts = transform_counts()
        # 2 operand transforms + 3 digits of (level + alpha), minus own limbs.
        previous_forward = 2 * level + 3 * (level + alpha)
        assert counts["forward_limbs"] == previous_forward - level
        assert counts["inverse_limbs"] == 3 * level + 2 * (level + alpha)

    def test_staged_key_switch_still_matches_square(self, ledger_env):
        """The traced replay's composition of the public stage functions."""
        evaluator, params = ledger_env["evaluator"], ledger_env["params"]
        ciphertext = ledger_env["cts"][0]
        tensor = evaluator.multiply(ciphertext, ciphertext, relinearize=False)
        assert tensor.c2.domain == "coeff"
        assert_same_ciphertext(evaluator.relinearize(tensor), evaluator.square(ciphertext))
        ks0, _ = switch_key(tensor.c2, evaluator.relin_key, params, tensor.level)
        squared = evaluator.square(ciphertext)
        assert np.array_equal(tensor.c0.add(ks0).residues, squared.c0.residues)


# ------------------------------------------------- lazy accumulation overflow
def per_term_oracle(left, right, moduli):
    """``sum_d left[d] * right[d] mod q`` reducing after every term."""
    total = np.zeros(left.shape[:-3] + left.shape[-2:], dtype=np.uint64)
    for d in range(right.shape[0]):
        total = (total + (left[..., d, :, :] * right[d]) % moduli) % moduli
    return total


#: Widest moduli the engine plans (q < 2**32: one product fills uint64, so the
#: chunk is a single term) and the 28-bit width of every shipped ring (chunk
#: of 128 terms; a raw sum of more than 256 maximal products wraps uint64).
WIDE = RnsBasis(moduli=(4294967291, 4294967279), degree=8)
NARROW = RnsBasis(moduli=(268435399, 268435367), degree=8)


class TestLazyAccumulationOverflow:
    @pytest.mark.parametrize("basis, terms", [(WIDE, 5), (NARROW, 300)])
    def test_maximal_operands_do_not_wrap(self, basis, terms):
        moduli = basis.moduli_array[:, None]
        top = np.broadcast_to(moduli - np.uint64(1), (basis.size, basis.degree))
        left = np.broadcast_to(top, (2, terms) + top.shape).copy()
        right = np.broadcast_to(top, (terms,) + top.shape).copy()
        # (q - 1)^2 * terms = terms (mod q): any wrapped partial sum shows.
        expected = np.broadcast_to(np.uint64(terms) % moduli, left[:, 0].shape)
        assert np.array_equal(modular_inner_product(left, right, basis), expected)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        terms=st.integers(1, 300),
        wide=st.booleans(),
        high=st.booleans(),
    )
    def test_matches_per_term_reduction(self, seed, terms, wide, high):
        basis = WIDE if wide else NARROW
        rng = np.random.default_rng(seed)
        moduli = basis.moduli_array[:, None]
        shape = (basis.size, basis.degree)
        # ``high`` draws from the top of the range, where sums wrap soonest.
        low = (moduli - np.uint64(4)) if high else np.zeros_like(moduli)
        left = rng.integers(low, moduli, (2, terms) + shape, dtype=np.uint64)
        right = rng.integers(low, moduli, (terms,) + shape, dtype=np.uint64)
        assert np.array_equal(
            modular_inner_product(left, right, basis),
            per_term_oracle(left, right, moduli),
        )

    def test_more_than_a_chunk_of_diagonals_in_one_group(self):
        """130 diagonals in one giant group (> the 128-term chunk at 28 bits)
        against the per-diagonal ``%`` of multiply_plain + add."""
        params = CkksParameters.create(degree=512, limbs=2, log_q=28, dnum=2, scale_bits=22)
        keygen = KeyGenerator(params, rng=np.random.default_rng(3))
        encoder = CkksEncoder(params)
        slots = params.slot_count
        evaluator = CkksEvaluator(
            params, galois_keys=keygen.galois_keys_for_steps(range(1, 130))
        )
        rng = np.random.default_rng(9)
        ciphertext = Encryptor(params, keygen.public_key(), keygen).encrypt(
            encoder.encode(rng.uniform(-1, 1, slots))
        )
        diagonals = {k: rng.uniform(-1, 1, slots) for k in range(130)}
        transform = DiagonalLinearTransform.from_diagonals(encoder, diagonals, n1=slots)
        assert list(transform._groups) == [0] and len(transform._groups[0]) == 130
        env = {"evaluator": evaluator, "encoder": encoder}
        assert_same_ciphertext(
            transform.apply(evaluator, ciphertext),
            public_reference(env, transform, ciphertext),
        )
