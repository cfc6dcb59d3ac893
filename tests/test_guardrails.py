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

import json
import math

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
from repro.cancellation import CancelScope
from repro.ckks.noise import NoiseModel, NoisePolicy, policy_override
from repro.ckks.poly_eval import ChebyshevSeries, evaluate_chebyshev
from repro.diagnostics import BoundedLruCache
from repro.errors import (
    BackendExactnessError,
    DeadlineExceeded,
    IncompatibleOperands,
    LevelExhausted,
    MissingKeyError,
    NoiseBudgetExhausted,
    ParameterError,
    ReproError,
    RequestCancelled,
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

    def test_clear_encode_cache_forgets_entries(self, ckks_setup, rng):
        encoder = ckks_setup["encoder"]
        z = rng.uniform(-1, 1, ckks_setup["params"].slot_count)
        encoder.encode(z, cache=True)
        assert encoder.encode_cache_stats()["size"] >= 1
        encoder.clear_encode_cache()
        assert encoder.encode_cache_stats()["size"] == 0
        misses = encoder.encode_cache_stats()["misses"]
        encoder.encode(z, cache=True)
        assert encoder.encode_cache_stats()["misses"] == misses + 1

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

    def test_stats_providers_register_poll_and_unregister(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_providers", {})
        first = diagnostics.register_stats_provider("shard", lambda: {"ready": 1})
        second = diagnostics.register_stats_provider("shard", lambda: {"ready": 2})
        assert first == "shard" and second != first
        assert diagnostics.provider_stats() == {first: {"ready": 1}, second: {"ready": 2}}
        diagnostics.unregister_stats_provider(first)
        diagnostics.unregister_stats_provider("never-registered")
        assert list(diagnostics.provider_stats()) == [second]

    def test_failing_provider_reports_its_error(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_providers", {})

        def broken():
            raise RuntimeError("boom")

        key = diagnostics.register_stats_provider("dead", broken)
        assert diagnostics.provider_stats() == {key: {"error": "RuntimeError: boom"}}

    def test_as_dict_is_json_safe(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_providers", {})
        diagnostics.clear_events()
        diagnostics.record_event(
            "exotic", count=np.int64(3), shape=(2, 4), tags={"a"}, where=object()
        )
        try:
            snapshot = json.loads(json.dumps(diagnostics.as_dict()))
        finally:
            diagnostics.clear_events()
        (event,) = snapshot["events"]
        assert event["count"] == 3 and event["shape"] == [2, 4] and event["tags"] == ["a"]
        assert isinstance(event["where"], str)
        assert snapshot["events_by_kind"] == {"exotic": 1}

    def test_registered_caches_report_under_their_name(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_caches", {})
        cache = diagnostics.register_cache(BoundedLruCache("probe", 2))
        cache.put("k", 1)
        group = diagnostics.register_cache_group("probe-group")
        assert diagnostics.register_cache_group("probe-group") is group
        stats = diagnostics.cache_stats()
        assert list(stats) == ["probe", "probe-group"]
        assert stats["probe"]["size"] == 1


# ---------------------------------------------------------------------------
# Noise-model propagation rules
# ---------------------------------------------------------------------------


class TestNoiseModelRules:
    """The per-operation bound updates the evaluator stamps on ciphertexts."""

    @pytest.fixture
    def model(self, ckks_setup):
        return NoiseModel(ckks_setup["params"])

    def test_add_bits_adds_bounds(self, model):
        assert model.add_bits(10.0, 10.0) == pytest.approx(11.0)
        assert model.add_bits(30.0, 0.0) == pytest.approx(math.log2(2**30 + 1))

    def test_add_plain_adds_one_rounding_term(self, model):
        rounding = model.plaintext_bits()
        assert model.add_plain_bits(rounding) == pytest.approx(rounding + 1.0)

    def test_fresh_bound_exceeds_encoding_rounding(self, model):
        assert model.fresh_bits() > model.plaintext_bits() > 0.0

    def test_scalar_bits_scale_by_magnitude(self, model):
        assert model.scalar_bits(10.0, 8) == pytest.approx(13.0)
        assert model.scalar_bits(10.0, -8) == pytest.approx(13.0)
        assert model.scalar_bits(10.0, 0.5) == pytest.approx(10.0)

    def test_multiply_bits_cross_terms(self, model):
        """``B1*M2 + B2*M1 + B1*B2`` with ``M = scale`` at message bound 1."""
        got = model.multiply_bits(5.0, 2.0**20, 6.0, 2.0**21)
        expected = math.log2(2**5 * 2**21 + 2**6 * 2**20 + 2**11)
        assert got == pytest.approx(expected)

    def test_multiply_plain_bits(self, model):
        got = model.multiply_plain_bits(5.0, 2.0**20, 2.0**10)
        expected = math.log2(2**5 * 2**10 + 2**20 * 2 ** model.plaintext_bits())
        assert got == pytest.approx(expected)

    def test_rescale_divides_and_adds_rounding(self, model):
        rounding = model.plaintext_bits()
        assert model.rescale_bits(40.0, 2.0**20) == pytest.approx(
            math.log2(2**20 + 2**rounding)
        )

    def test_keyswitch_adds_a_fixed_term(self, model):
        small = model.keyswitch_bits(-60.0)
        assert model.keyswitch_bits(50.0) == pytest.approx(50.0, abs=1e-3)
        assert model.keyswitch_bits(small) == pytest.approx(small + 1.0, abs=1e-6)

    def test_level_modulus_bits_and_budget(self, model, ckks_setup):
        moduli = ckks_setup["params"].modulus_basis.moduli
        assert model.level_modulus_bits(0) == 0.0
        total = sum(math.log2(q) for q in moduli)
        top = len(moduli)
        assert model.level_modulus_bits(top) == pytest.approx(total)
        assert model.budget_bits(top, 10.0) == pytest.approx(total - 11.0)

    def test_policy_override_restores_on_exit(self, model):
        with policy_override(model, raise_margin_bits=-16.0) as inside:
            assert inside.policy.raise_margin_bits == -16.0
        assert model.policy.raise_margin_bits == NoisePolicy().raise_margin_bits
        with pytest.raises(AttributeError):
            with policy_override(model, no_such_field=1):
                pass


# ---------------------------------------------------------------------------
# Cancel scopes
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestCancelScope:
    def test_remaining_counts_down_and_floors_at_zero(self):
        clock = FakeClock(100.0)
        scope = CancelScope(timeout=5.0, clock=clock)
        assert scope.remaining() == pytest.approx(5.0)
        clock.now = 103.0
        assert scope.remaining() == pytest.approx(2.0)
        clock.now = 200.0
        assert scope.remaining() == 0.0
        assert CancelScope(clock=clock).remaining() is None

    def test_expired_follows_the_clock(self):
        clock = FakeClock()
        scope = CancelScope(deadline=1.0, clock=clock, label="r1")
        assert not scope.expired()
        clock.now = 1.0
        assert scope.expired()
        with pytest.raises(DeadlineExceeded, match="r1"):
            scope.check()
        assert not CancelScope(clock=clock).expired()

    def test_inner_scope_sees_outer_cancel(self):
        with CancelScope(label="outer") as outer, CancelScope(label="inner") as inner:
            inner.check()
            outer.cancel("client went away")
            with pytest.raises(RequestCancelled, match="client went away"):
                inner.check()
        assert not inner.cancelled and outer.cancelled
