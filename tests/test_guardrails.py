"""Runtime-guardrail tests: error taxonomy, noise budget, bounded caches.

Covers the contract surface that `tests/test_fault_injection.py` exercises
under live faults: the typed :mod:`repro.errors` hierarchy (and its
backward-compatible ``ValueError``/``KeyError`` ancestry), the adversarial
mismatched-operand matrix over every public evaluator operation, the
deterministic noise-budget estimator (including its upper-bound guarantee
against measured decryption error on deep chains), and the bounded LRU
caches registered in `repro.diagnostics`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import diagnostics
from repro.ckks import (
    CkksEncoder,
    CkksEvaluator,
    CkksParameters,
    Decryptor,
    Encryptor,
    KeyGenerator,
)
from repro.ckks.bootstrapping import CkksBootstrapper
from repro.ckks.noise import NoiseModel, NoisePolicy
from repro.ckks.poly_eval import ChebyshevSeries, evaluate_chebyshev
from repro.diagnostics import BoundedLruCache
from repro.errors import (
    BackendExactnessError,
    IncompatibleOperands,
    LevelExhausted,
    MissingKeyError,
    NoiseBudgetExhausted,
    ParameterError,
    ReproError,
    ScaleOverflow,
    operand_signature,
)


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_hierarchy_roots(self):
        for exc in (
            ParameterError,
            IncompatibleOperands,
            LevelExhausted,
            ScaleOverflow,
            NoiseBudgetExhausted,
            MissingKeyError,
            BackendExactnessError,
        ):
            assert issubclass(exc, ReproError)

    def test_legacy_compatibility(self):
        """Pre-taxonomy callers caught ValueError/KeyError; they still can."""
        assert issubclass(ParameterError, ValueError)
        assert issubclass(IncompatibleOperands, ValueError)
        assert issubclass(LevelExhausted, ValueError)
        assert issubclass(ScaleOverflow, ValueError)
        assert issubclass(NoiseBudgetExhausted, ValueError)
        assert issubclass(MissingKeyError, KeyError)
        assert issubclass(MissingKeyError, ValueError)
        assert issubclass(BackendExactnessError, ArithmeticError)

    def test_missing_key_error_message_is_readable(self):
        err = MissingKeyError("no galois key for exponent 5")
        assert "no galois key for exponent 5" in str(err)
        assert not str(err).startswith("'")  # not KeyError's repr-quoting

    def test_operand_signature_summarises(self, ckks_setup, rng):
        env = ckks_setup
        z = rng.uniform(-1, 1, env["params"].slot_count)
        ct = env["encryptor"].encrypt(env["encoder"].encode(z))
        signature = operand_signature(ct)
        assert "level" in signature
        assert "scale" in signature

    def test_incompatible_operands_carries_signatures(self, ckks_setup, rng):
        env = ckks_setup
        z = rng.uniform(-1, 1, env["params"].slot_count)
        ct = env["encryptor"].encrypt(env["encoder"].encode(z))
        err = IncompatibleOperands("mismatch", ct, ct)
        assert "mismatch" in str(err)
        assert "level" in str(err)


# ---------------------------------------------------------------------------
# Adversarial mismatched-operand matrix
# ---------------------------------------------------------------------------


@pytest.fixture()
def adversarial(ckks_setup, rng):
    env = dict(ckks_setup)
    z = rng.uniform(-1, 1, env["params"].slot_count)
    env["z"] = z
    env["ct"] = env["encryptor"].encrypt(env["encoder"].encode(z))
    return env


class TestAdversarialOperands:
    """Every public op rejects malformed operands with a typed ReproError --
    never a NumPy broadcasting traceback from deep inside a kernel."""

    def test_level_mismatch_binary_ops(self, adversarial):
        env = adversarial
        ct = env["ct"]
        low = env["evaluator"].level_down(ct, 1)
        for op in (env["evaluator"].add, env["evaluator"].sub, env["evaluator"].multiply):
            with pytest.raises(IncompatibleOperands, match="level"):
                op(ct, low)

    def test_scale_mismatch_add(self, adversarial):
        env = adversarial
        ct = env["ct"]
        other = env["encryptor"].encrypt(
            env["encoder"].encode(env["z"], scale=float(env["params"].scale) * 2)
        )
        with pytest.raises(IncompatibleOperands, match="scale"):
            env["evaluator"].add(ct, other)

    def test_add_plain_scale_mismatch_names_both_scales(self, adversarial):
        """Satellite: the old silent mis-weighting is now a typed error whose
        message carries both scales."""
        env = adversarial
        ct = env["ct"]
        wrong = env["encoder"].encode(env["z"], scale=float(env["params"].scale) * 4)
        with pytest.raises(IncompatibleOperands) as info:
            env["evaluator"].add_plain(ct, wrong)
        message = str(info.value)
        assert f"{wrong.scale:.6g}" in message
        assert f"{ct.scale:.6g}" in message

    def test_multiply_plain_scale_overflow(self, adversarial):
        """A product scale past Q_level can never rescale back: typed error."""
        env = adversarial
        ct = env["ct"]
        huge = env["encoder"].encode(env["z"], scale=2.0**80)
        with pytest.raises(ScaleOverflow, match="scale"):
            env["evaluator"].multiply_plain(ct, huge)

    def test_rescale_exhausted_chain_names_bootstrap(self, adversarial):
        env = adversarial
        ct = env["encryptor"].encrypt(env["encoder"].encode(env["z"], level=1))
        with pytest.raises(LevelExhausted, match="bootstrap"):
            env["evaluator"].rescale(ct)

    def test_corrupted_level_is_typed(self, adversarial):
        env = adversarial
        ct = env["ct"]
        ct.level = 99
        with pytest.raises(LevelExhausted, match="modulus chain"):
            env["evaluator"].add(ct, ct)

    def test_corrupted_scale_is_typed(self, adversarial):
        env = adversarial
        ct = env["ct"]
        ct.scale = float("nan")
        with pytest.raises(ParameterError, match="scale"):
            env["evaluator"].add(ct, ct)

    def test_domain_disagreement_is_typed(self, adversarial):
        env = adversarial
        ct = env["ct"]
        ct.c1 = ct.c1.to_eval()
        with pytest.raises(IncompatibleOperands, match="domain"):
            env["evaluator"].add(ct, ct)

    def test_missing_rotation_key_is_typed(self, adversarial):
        env = adversarial
        with pytest.raises(MissingKeyError):
            env["evaluator"].rotate(env["ct"], 7)

    def test_missing_relinearization_key_is_typed(self, adversarial):
        env = adversarial
        bare = CkksEvaluator(env["params"])
        with pytest.raises(MissingKeyError):
            bare.multiply(env["ct"], env["ct"])


# ---------------------------------------------------------------------------
# Noise-budget tracking
# ---------------------------------------------------------------------------


class TestNoiseTracking:
    def test_fresh_ciphertext_is_stamped(self, adversarial):
        ct = adversarial["ct"]
        assert ct.noise_bits is not None
        model = adversarial["evaluator"].noise
        assert model.budget_bits(ct.level, ct.noise_bits) > 0

    def test_noise_grows_monotonically(self, adversarial):
        env = adversarial
        ct = env["ct"]
        total = env["evaluator"].add(ct, ct)
        assert total.noise_bits > ct.noise_bits
        product = env["evaluator"].multiply(ct, ct)
        assert product.noise_bits > total.noise_bits

    def test_rescale_shrinks_noise_bits(self, adversarial):
        env = adversarial
        product = env["evaluator"].multiply(env["ct"], env["ct"])
        rescaled = env["evaluator"].rescale(product)
        assert rescaled.noise_bits < product.noise_bits

    def test_estimate_bounds_measured_error_shallow(self, adversarial):
        env = adversarial
        ct = env["ct"]
        result = env["evaluator"].rescale(env["evaluator"].multiply(ct, ct))
        decoded = env["encoder"].decode(env["decryptor"].decrypt(result))
        measured = np.abs(decoded - env["z"] ** 2).max()
        bound = env["evaluator"].noise.decode_error_bound(
            result.scale, result.noise_bits
        )
        assert measured <= bound

    def test_exhaustion_raises_before_garbage_decode(self, adversarial):
        env = adversarial
        env["evaluator"]._noise_model = NoiseModel(
            env["params"], NoisePolicy(raise_margin_bits=1000.0)
        )
        with pytest.raises(NoiseBudgetExhausted, match="bootstrap"):
            env["evaluator"].multiply(env["ct"], env["ct"])

    def test_low_budget_records_warning_event(self, adversarial):
        env = adversarial
        diagnostics.clear_events()
        env["evaluator"]._noise_model = NoiseModel(
            env["params"],
            NoisePolicy(warn_margin_bits=1000.0, raise_margin_bits=0.0),
        )
        env["evaluator"].add(env["ct"], env["ct"])
        assert diagnostics.events("noise_budget_low")
        diagnostics.clear_events()

    def test_tracking_disabled_by_policy(self, rng):
        params = CkksParameters.create(
            degree=64, limbs=3, log_q=28, dnum=2, scale_bits=21
        )
        keygen = KeyGenerator(params, rng=np.random.default_rng(7))
        encoder = CkksEncoder(params)
        encryptor = Encryptor(params, keygen.public_key(), keygen)
        encryptor._noise_model = NoiseModel(params, NoisePolicy(track=False))
        evaluator = CkksEvaluator(params, relin_key=keygen.relinearization_key())
        evaluator._noise_model = NoiseModel(params, NoisePolicy(track=False))
        ct = encryptor.encrypt(encoder.encode(rng.uniform(-1, 1, params.slot_count)))
        assert ct.noise_bits is None
        result = evaluator.multiply(ct, ct)
        # Untracked inputs stay untracked -- the estimator never guesses.
        assert result.noise_bits is None


# ---------------------------------------------------------------------------
# Deep-chain upper-bound guarantees (the acceptance cross-checks)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deep_env():
    """The deep functional rig: 20 x 29-bit limbs at degree 64, scale = q."""
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


class TestNoiseUpperBoundDeep:
    def test_depth63_ps_chain_bounded(self, deep_env):
        """The estimate upper-bounds measured error through a degree-63
        Paterson-Stockmeyer evaluation (~16 non-scalar multiplications)."""
        env = deep_env
        rng = np.random.default_rng(7)
        coefficients = rng.normal(size=64) / np.arange(1, 65)
        series = ChebyshevSeries(coefficients, (-1.0, 1.0))
        x = rng.uniform(-1, 1, env["params"].slot_count)
        ct = env["encryptor"].encrypt(env["encoder"].encode(x))
        result = evaluate_chebyshev(env["evaluator"], series, ct)
        assert result.noise_bits is not None
        decoded = env["encoder"].decode(env["decryptor"].decrypt(result))
        measured = np.abs(decoded - series(x)).max()
        bound = env["evaluator"].noise.decode_error_bound(
            result.scale, result.noise_bits
        )
        assert measured <= bound
        # The bound is an estimate, not a tautology: it stays far below the
        # message magnitude, so it still certifies a meaningful decode.
        assert bound < 1.0

    def test_full_bootstrap_bounded(self):
        """The post-bootstrap stamp upper-bounds the measured refresh error."""
        params = CkksParameters.create(
            degree=64, limbs=20, log_q=29, dnum=10, scale_bits=29, special_limbs=3
        )
        params.error_stddev = 1.0
        keygen = KeyGenerator(params, rng=np.random.default_rng(11), hamming_weight=4)
        encoder = CkksEncoder(params)
        bootstrapper = CkksBootstrapper.create(encoder)
        galois_keys = keygen.galois_keys_for_steps(
            bootstrapper.rotation_steps(), conjugation=True
        )
        evaluator = CkksEvaluator(
            params, relin_key=keygen.relinearization_key(), galois_keys=galois_keys
        )
        encryptor = Encryptor(params, keygen.public_key(), keygen)
        decryptor = Decryptor(params, keygen.secret_key)
        rng = np.random.default_rng(13)
        z = 0.01 * (
            rng.uniform(-1, 1, params.slot_count)
            + 1j * rng.uniform(-1, 1, params.slot_count)
        )
        exhausted = encryptor.encrypt(encoder.encode(z, level=1))
        refreshed = bootstrapper.bootstrap(evaluator, exhausted)
        assert refreshed.noise_bits is not None
        decoded = encoder.decode(decryptor.decrypt(refreshed))
        measured = np.abs(decoded - z).max()
        bound = evaluator.noise.decode_error_bound(
            refreshed.scale, refreshed.noise_bits
        )
        assert measured <= bound


# ---------------------------------------------------------------------------
# Bounded caches + diagnostics registry
# ---------------------------------------------------------------------------


class TestBoundedLruCache:
    def test_eviction_order_is_lru(self):
        cache = BoundedLruCache(name="t", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_stats_counters(self):
        cache = BoundedLruCache(name="t", capacity=1)
        assert cache.get("missing") is None
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts "a"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["size"] == 1

    def test_get_or_create_builds_once(self):
        cache = BoundedLruCache(name="t", capacity=4)
        calls = []

        def build():
            calls.append(1)
            return "value"

        assert cache.get_or_create("k", build) == "value"
        assert cache.get_or_create("k", build) == "value"
        assert len(calls) == 1


class TestEncoderCacheSatellite:
    def test_encode_cache_hits_and_misses(self, ckks_setup, rng):
        env = ckks_setup
        encoder = env["encoder"]
        before = encoder.encode_cache_stats()
        z = rng.uniform(-1, 1, env["params"].slot_count)
        encoder.encode(z, cache=True)
        encoder.encode(z, cache=True)
        after = encoder.encode_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_uncached_encode_leaves_counters(self, ckks_setup, rng):
        env = ckks_setup
        before = env["encoder"].encode_cache_stats()
        env["encoder"].encode(rng.uniform(-1, 1, env["params"].slot_count))
        assert env["encoder"].encode_cache_stats() == before


class TestDiagnosticsRegistry:
    def test_cache_stats_names_engine_caches(self):
        from repro.poly.ntt_engine import plan_stack_for
        from repro.numtheory.primes import generate_ntt_prime

        plan_stack_for((generate_ntt_prime(28, 64),), 64)  # ensure an entry
        stats = diagnostics.cache_stats()
        assert [name for name in stats if name.startswith("ntt.")] == [
            "ntt.plan_stacks"
        ]
        assert stats["ntt.plan_stacks"]["size"] >= 1

    def test_report_shape(self):
        report = diagnostics.report()
        assert "caches" in report
        assert "events" in report

    def test_event_log_is_bounded_and_clearable(self):
        diagnostics.clear_events()
        for i in range(5):
            diagnostics.record_event("drill", index=i)
        assert len(diagnostics.events("drill")) == 5
        assert diagnostics.events("absent") == []
        diagnostics.clear_events()
        assert diagnostics.events() == []
