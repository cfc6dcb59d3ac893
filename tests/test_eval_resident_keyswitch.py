"""Evaluation-domain-resident key switching (PR 12) and the lazily double
hoisted BSGS built on it (PR 15).

* limb-subset transforms equal the rows of the full transform;
* own-limb-skip digits equal ``NTT(decompose_and_extend(.))``;
* ``DiagonalLinearTransform.apply`` / ``apply_batch`` are bit-identical to
  the naive replay of their dataflow in ``bsgs_reference.py`` on every shape
  and NTT rung, and decode to the same slots as the loop of public
  ``rotate_many`` / ``multiply_plain`` / ``add`` / ``rotate`` (which rounds
  once per rotation instead of once per matvec);
* the lazily reduced inner sum honours its uint64 chunk bound;
* the circuit's limb-row budget is exact (counter based, no timing).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.encoding import CkksEncoder
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyGenerator, digit_partition
from repro.ckks.keyswitch import (
    decompose_and_extend,
    decompose_to_eval,
    modular_inner_product,
    switch_key,
)
from repro.ckks.linear_transform import DiagonalLinearTransform
from repro.ckks.params import CkksParameters
from repro.numtheory.crt import RnsBasis
from repro.poly.ntt_engine import BACKENDS, reset_transform_counts, transform_counts
from repro.poly.rns_poly import (
    RnsPolynomial,
    stacked_ntt_forward,
    stacked_ntt_inverse,
)

from bsgs_reference import reference_apply


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
        digit_count = len(params.digit_partition(level))
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
    values = [rng.uniform(-1, 1, params.slot_count) for _ in range(3)]
    cts = [encryptor.encrypt(encoder.encode(v)) for v in values]
    return {
        "params": params,
        "encoder": encoder,
        "evaluator": evaluator,
        "decryptor": Decryptor(params, keygen.secret_key),
        "values": values,
        "cts": cts,
        "cases": {},
    }


def public_reference(env, transform, ciphertext):
    """BSGS from public operators only: every rotation pays its own ModDown,
    so this is ``apply``'s *decode* oracle (same slots, different rounding)."""
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
    """The shape's transform with seeded diagonals (the same on every ring)."""
    indices, n1 = SHAPES[shape]
    slots = env["params"].slot_count
    rng = np.random.default_rng(sorted(SHAPES).index(shape))
    diagonals = {k: rng.uniform(-1, 1, slots) for k in indices}
    return DiagonalLinearTransform.from_diagonals(env["encoder"], diagonals, n1=n1)


def assert_same_ciphertext(got, expected):
    assert got.level == expected.level and got.scale == expected.scale
    assert np.array_equal(got.c0.to_coeff().residues, expected.c0.to_coeff().residues)
    assert np.array_equal(got.c1.to_coeff().residues, expected.c1.to_coeff().residues)


def shape_case(env, shape):
    """One transform per shape and its naive-replay outputs for every
    ciphertext, computed once (under whichever NTT rung asks first: the rungs
    are bit-identical, so the cached oracle also cross-checks them)."""
    if shape not in env["cases"]:
        transform = build_transform(env, shape)
        references = [
            reference_apply(env["evaluator"], transform, ct) for ct in env["cts"]
        ]
        env["cases"][shape] = (transform, references)
    return env["cases"][shape]


#: Decode agreement demanded between ``apply``, the public-operator loop and
#: the plaintext model (slot values are O(1) sums of at most 16 products).
DECODE_TOLERANCE = 1e-3


class TestApplyBitIdentical:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_apply_equals_naive_replay(self, ledger_env, monkeypatch, shape, backend):
        transform, references = shape_case(ledger_env, shape)
        monkeypatch.setenv("REPRO_NTT_BACKEND", backend)
        got = transform.apply(ledger_env["evaluator"], ledger_env["cts"][0])
        assert_same_ciphertext(got, references[0])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_apply_batch_equals_naive_replay(
        self, ledger_env, monkeypatch, shape, batch, backend
    ):
        transform, references = shape_case(ledger_env, shape)
        monkeypatch.setenv("REPRO_NTT_BACKEND", backend)
        results = transform.apply_batch(
            ledger_env["evaluator"], ledger_env["cts"][:batch]
        )
        assert len(results) == batch
        for got, expected in zip(results, references):
            assert_same_ciphertext(got, expected)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_decodes_like_the_public_loop(self, ledger_env, shape):
        """One ModDown per matvec instead of one per rotation: other residues,
        the same slots."""
        transform, _ = shape_case(ledger_env, shape)
        ciphertext, values = ledger_env["cts"][0], ledger_env["values"][0]

        def decode(result):
            plain = ledger_env["decryptor"].decrypt(result)
            return ledger_env["encoder"].decode(plain)

        got = transform.apply(ledger_env["evaluator"], ciphertext)
        public = public_reference(ledger_env, transform, ciphertext)
        assert got.level == public.level and got.scale == public.scale
        model = transform.apply_plain(values)
        assert np.abs(decode(got) - model).max() <= DECODE_TOLERANCE
        assert np.abs(decode(got) - decode(public)).max() <= DECODE_TOLERANCE

    @pytest.mark.parametrize("shape", ["dense_16", "no_group_0"])
    def test_eval_domain_input(self, ledger_env, shape):
        transform, _ = shape_case(ledger_env, shape)
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

    def test_operation_counts_unchanged(self, ledger_env):
        """6 key-switched rotations and groups - 1 additions, as before."""
        evaluator = ledger_env["evaluator"]
        transform = build_transform(ledger_env, "dense_16")
        evaluator.reset_operation_counts()
        transform.apply(evaluator, ledger_env["cts"][0])
        assert evaluator.operation_counts == {"rotate": 6, "he_add": 3}


# ---------------------------------------------------------------------- noise
@pytest.fixture(scope="module")
def n512_env():
    """A second ring for the noise checks (N = 512, alpha = 2, dnum = 2)."""
    params = CkksParameters.create(degree=512, limbs=4, log_q=28, dnum=2, scale_bits=22)
    keygen = KeyGenerator(params, rng=np.random.default_rng(11))
    encoder = CkksEncoder(params)
    values = np.random.default_rng(12).uniform(-1, 1, params.slot_count)
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    return {
        "params": params,
        "encoder": encoder,
        "evaluator": CkksEvaluator(
            params, galois_keys=keygen.galois_keys_for_steps(range(1, 16))
        ),
        "decryptor": Decryptor(params, keygen.secret_key),
        "values": [values],
        "cts": [encryptor.encrypt(encoder.encode(values))],
    }


class TestLazyNoise:
    """The tracker's bound (unchanged formula) stays sound for the lazily
    ModDown'd matvec, and deferring the ModDown does not add noise."""

    @pytest.mark.parametrize("ring", ["n64", "n512"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_bound_is_sound_and_lazy_is_not_noisier(
        self, ledger_env, n512_env, shape, ring
    ):
        env = ledger_env if ring == "n64" else n512_env
        evaluator, ciphertext = env["evaluator"], env["cts"][0]
        transform = build_transform(env, shape)
        model = transform.apply_plain(env["values"][0])

        def error(result):
            decoded = env["encoder"].decode(env["decryptor"].decrypt(result))
            return float(np.abs(decoded - model).max())

        got = transform.apply(evaluator, ciphertext)
        lazy, public = error(got), error(public_reference(env, transform, ciphertext))
        bound = evaluator.noise.decode_error_bound(got.scale, got.noise_bits)
        slack = np.log2(bound / lazy)
        print(
            f"\n{ring} {shape}: error {lazy:.3g} (public loop {public:.3g}), "
            f"bound {bound:.3g}, slack {slack:.1f} bits"
        )
        assert lazy <= bound
        assert lazy <= 1.25 * public + 1.0 / env["params"].scale


def matvec_limb_rows(params, level, babies, giants):
    """``(forward, inverse)`` limb rows of one lazily double-hoisted matvec
    with ``babies`` / ``giants`` key-switched baby / giant rotations."""
    extended = level + params.special_limbs
    digits = len(params.digit_partition(level))
    forward = 2 * level  # c0, c1 enter the evaluation domain
    if babies:
        forward += digits * extended - level  # hoisted digits, own-limb skip
    forward += giants * digits * extended  # a fresh decomposition per giant c1
    inverse = giants * extended  # each giant's c1 leaves for its ModDown
    inverse += 2 * extended  # the one stacked exit
    return forward, inverse


def square_limb_rows(params, level):
    """``(forward, inverse)`` limb rows of one HE-Mult of a ciphertext by itself."""
    extended = level + params.special_limbs
    digits = len(params.digit_partition(level))
    # 2 operand transforms + the digits of d2, minus its own limbs; d2 leaves
    # for its decomposition, then the key-switch pair, which carries d0 and d1
    # out with it (lazy relinearisation).
    return 2 * level + digits * extended - level, level + 2 * extended


class TestLimbRowBudget:
    """Exact, counter-based budgets at the ledger's shape: 16 diagonals,
    ``n1 = 4``, L = 8, dnum = 3, alpha = 3 (limb rows do not depend on N)."""

    def test_matvec_square_circuit(self, ledger_env):
        evaluator, params = ledger_env["evaluator"], ledger_env["params"]
        transform = build_transform(ledger_env, "dense_16")
        ciphertext = ledger_env["cts"][0]

        def circuit():
            product = evaluator.matvec(ciphertext, transform, rescale=True)
            return evaluator.rescale(evaluator.square(product))

        circuit()  # warm the plaintext and key eval-digit caches
        reset_transform_counts()
        circuit()
        counts = transform_counts()
        level = ciphertext.level
        babies = len(transform.baby_steps) - 1  # b = 0 is not key-switched
        matvec = matvec_limb_rows(params, level, babies, len(transform.giant_steps))
        square = square_limb_rows(params, level - 1)
        assert matvec == (140, 55) and square == (37, 27)
        # Coefficient-domain key switching read 240 + 237, per-rotation
        # ModDown 201 + 165, eagerly relinearised d0/d1 177 + 96.
        assert counts["forward_limbs"] == matvec[0] + square[0] == 177
        assert counts["inverse_limbs"] == matvec[1] + square[1] == 82

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matvec_budget_on_every_shape(self, ledger_env, shape):
        evaluator, params = ledger_env["evaluator"], ledger_env["params"]
        transform, _ = shape_case(ledger_env, shape)
        ciphertext = ledger_env["cts"][0]
        transform.apply(evaluator, ciphertext)
        reset_transform_counts()
        transform.apply(evaluator, ciphertext)
        counts = transform_counts()
        babies = len([b for b in transform.baby_steps if b != 0])
        expected = matvec_limb_rows(
            params, ciphertext.level, babies, len(transform.giant_steps)
        )
        assert (counts["forward_limbs"], counts["inverse_limbs"]) == expected

    def test_square_saves_its_level(self, ledger_env):
        evaluator = ledger_env["evaluator"]
        ciphertext = evaluator.rescale(ledger_env["cts"][0])
        evaluator.square(ciphertext)
        reset_transform_counts()
        evaluator.square(ciphertext)
        counts = transform_counts()
        expected = square_limb_rows(ledger_env["params"], ciphertext.level)
        assert (counts["forward_limbs"], counts["inverse_limbs"]) == expected

    @pytest.mark.parametrize("level", range(2, 9))  # level 1 has no room for a product
    def test_square_budget_at_every_level(self, ledger_env, level):
        """One key serves every level through the cut top-level partition
        (``ceil(l / 3)`` digits), so the levels where re-balancing used to
        pay more digits now pay fewer digit rows: level 5 24 -> 16, level 3
        18 -> 6."""
        evaluator, params = ledger_env["evaluator"], ledger_env["params"]
        ciphertext = evaluator.level_down(ledger_env["cts"][0], params.limbs - level)
        evaluator.square(ciphertext)
        reset_transform_counts()
        evaluator.square(ciphertext)
        counts = transform_counts()
        expected = square_limb_rows(params, level)
        assert (counts["forward_limbs"], counts["inverse_limbs"]) == expected
        extended = level + params.special_limbs
        digit_rows = {8: 33, 7: 30, 6: 18, 5: 16, 4: 14, 3: 6, 2: 5}
        rebalanced = {8: 33, 7: 30, 6: 27, 5: 24, 4: 14, 3: 18, 2: 10}
        assert len(params.digit_partition(level)) * extended == digit_rows[level]
        assert len(digit_partition(level, params.dnum)) * extended == rebalanced[level]

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


class TestKeySwitchNoiseAtEveryLevel:
    """The tracker's key-switch term (``(1 + dnum)`` rounding terms) stays
    sound on the cut digits: every level has at most ``dnum`` digits, each at
    most ``ceil(L / dnum)`` limbs wide -- the top level's worst case."""

    @pytest.mark.parametrize("level", range(1, 9))
    def test_rotate_and_square_decode_within_the_bound(self, ledger_env, level):
        evaluator, encoder = ledger_env["evaluator"], ledger_env["encoder"]
        params, values = ledger_env["params"], ledger_env["values"][0]
        ciphertext = evaluator.level_down(ledger_env["cts"][0], params.limbs - level)
        cases = [(evaluator.rotate(ciphertext, 1), np.roll(values, -1))]
        if level > 1:  # the product's scale needs a second limb
            cases.append((evaluator.square(ciphertext), values**2))
        for result, model in cases:
            decoded = encoder.decode(ledger_env["decryptor"].decrypt(result))
            error = float(np.abs(decoded - model).max())
            assert error <= evaluator.noise.decode_error_bound(
                result.scale, result.noise_bits
            )


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
        against the naive replay's one ``%`` per diagonal."""
        params = CkksParameters.create(degree=512, limbs=2, log_q=28, dnum=2, scale_bits=22)
        keygen = KeyGenerator(params, rng=np.random.default_rng(3))
        encoder = CkksEncoder(params)
        slots = params.slot_count
        evaluator = CkksEvaluator(
            params, galois_keys=keygen.galois_keys_for_steps(range(1, 130))
        )
        rng = np.random.default_rng(9)
        values = rng.uniform(-1, 1, slots)
        ciphertext = Encryptor(params, keygen.public_key(), keygen).encrypt(
            encoder.encode(values)
        )
        diagonals = {k: rng.uniform(-1, 1, slots) for k in range(130)}
        transform = DiagonalLinearTransform.from_diagonals(encoder, diagonals, n1=slots)
        assert list(transform._groups) == [0] and len(transform._groups[0]) == 130
        got = transform.apply(evaluator, ciphertext)
        assert_same_ciphertext(got, reference_apply(evaluator, transform, ciphertext))
        # The public loop reduces per diagonal too, and decodes to the same
        # slots (alpha = 1 here: 129 key switches leave ~1e-2 of noise in both).
        env = {"evaluator": evaluator, "encoder": encoder}
        decryptor = Decryptor(params, keygen.secret_key)
        public = public_reference(env, transform, ciphertext)
        got_slots = encoder.decode(decryptor.decrypt(got))
        assert np.abs(got_slots - encoder.decode(decryptor.decrypt(public))).max() < 2e-3
        assert np.abs(got_slots - transform.apply_plain(values)).max() < 2e-2

    def test_widest_moduli_single_term_chunks(self):
        """q just under 2**32 makes every inner-sum chunk a single term; the
        engine's extended-basis sums (plaintext and key digits) still match
        the naive replay."""
        params = CkksParameters.create(degree=64, limbs=2, log_q=32, dnum=2, scale_bits=24)
        assert all(q >> 31 == 1 for q in params.extended_basis(2).moduli)
        keygen = KeyGenerator(params, rng=np.random.default_rng(4))
        encoder = CkksEncoder(params)
        evaluator = CkksEvaluator(
            params, galois_keys=keygen.galois_keys_for_steps(range(1, 16))
        )
        rng = np.random.default_rng(10)
        ciphertext = Encryptor(params, keygen.public_key(), keygen).encrypt(
            encoder.encode(rng.uniform(-1, 1, params.slot_count))
        )
        diagonals = {k: rng.uniform(-1, 1, params.slot_count) for k in range(10)}
        transform = DiagonalLinearTransform.from_diagonals(encoder, diagonals, n1=4)
        assert_same_ciphertext(
            transform.apply(evaluator, ciphertext),
            reference_apply(evaluator, transform, ciphertext),
        )
