"""Concurrency tests: shared evaluators, plan caches, and LRU thread safety.

The serving runtime shares one :class:`~repro.ckks.evaluator.CkksEvaluator`
per tenant across every worker thread, and all tenants share the process
wide NTT plan caches.  These tests pin down the property that makes that
sharing sound: N threads evaluating *disjoint* ciphertexts through one
evaluator produce results **bit-exact** against the serial run -- including
while a quarantine flips the dispatch ladder mid-flight -- and the bounded
LRU caches never corrupt, deadlock, or overflow under contention.

One request also runs on several threads at once (:mod:`repro.parallel`):
at a budget of two cores every operator that fans out must produce the same
bits and the same counters as at one core, on every NTT rung; errors raised
on a helper reach the caller unchanged; nesting cannot deadlock.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from repro import diagnostics, parallel
from repro.cancellation import CancelScope, checkpoint
from repro.ckks import (
    CkksEncoder,
    CkksEvaluator,
    CkksParameters,
    Decryptor,
    DiagonalLinearTransform,
    Encryptor,
    KeyGenerator,
)
from repro.ckks import linear_transform
from repro.diagnostics import BoundedLruCache, WeakCacheGroup
from repro.errors import BackendExactnessError, DeadlineExceeded
from repro.numtheory.crt import RnsBasis
from repro.poly import gemm_mod, ntt_engine
from repro.poly.rns_poly import basis_plan
from repro.serving import InferenceRequest, InferenceServer, TenantRegistry
from repro.testing.chaos import build_tenants
from repro.testing.faults import corrupted_four_step_tables

THREADS = 8
PER_THREAD = 3


@pytest.fixture(scope="module")
def shared_setup():
    params = CkksParameters.create(
        degree=64, limbs=4, log_q=28, dnum=2, scale_bits=26
    )
    keygen = KeyGenerator(params, rng=np.random.default_rng(11))
    rotation = pow(5, 1, 2 * params.degree)
    return {
        "params": params,
        "encoder": CkksEncoder(params),
        "encryptor": Encryptor(params, keygen.public_key(), keygen),
        "decryptor": Decryptor(params, keygen.secret_key),
        "evaluator": CkksEvaluator(
            params,
            relin_key=keygen.relinearization_key(),
            galois_keys=keygen.galois_keys([rotation]),
        ),
    }


def _make_inputs(setup, count):
    rng = np.random.default_rng(99)
    slots = setup["params"].slot_count
    out = []
    for _ in range(count):
        vec = rng.uniform(-1, 1, slots)
        weights = setup["encoder"].encode(rng.uniform(-1, 1, slots))
        out.append((setup["encryptor"].encrypt(setup["encoder"].encode(vec)), weights))
    return out


def _circuit(evaluator, ciphertext, weights):
    """mult_plain -> rescale -> rotate -> square -> rescale: exercises the
    plaintext cache, the key-switch digit cache, and both NTT directions."""
    scaled = evaluator.rescale(evaluator.multiply_plain(ciphertext, weights))
    rotated = evaluator.rotate(scaled, 1)
    return evaluator.rescale(evaluator.square(rotated))


def _residues(ciphertext):
    parts = [ciphertext.c0.residues.copy(), ciphertext.c1.residues.copy()]
    if getattr(ciphertext, "c2", None) is not None:
        parts.append(ciphertext.c2.residues.copy())
    return parts


def _run_threaded(setup, inputs, *, midflight=None):
    """Evaluate every input once, spread over THREADS threads.

    ``midflight`` is an optional callback fired from a coordinator thread
    once all workers have passed the start barrier (i.e. while circuits are
    genuinely in flight).
    """
    evaluator = setup["evaluator"]
    results: list = [None] * len(inputs)
    errors: list = []
    barrier = threading.Barrier(THREADS + (1 if midflight else 0))

    def worker(thread_index):
        try:
            barrier.wait(timeout=10.0)
            for task_index in range(
                thread_index, len(inputs), THREADS
            ):
                ciphertext, weights = inputs[task_index]
                results[task_index] = _circuit(evaluator, ciphertext, weights)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    if midflight:
        barrier.wait(timeout=10.0)
        midflight()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), "worker hung"
    assert not errors, errors
    return results


class TestSharedEvaluator:
    def test_threads_match_serial_bit_exact(self, shared_setup):
        inputs = _make_inputs(shared_setup, THREADS * PER_THREAD)
        serial = [
            _residues(_circuit(shared_setup["evaluator"], ct, w))
            for ct, w in inputs
        ]
        threaded = _run_threaded(shared_setup, inputs)
        for expected, got in zip(serial, threaded):
            for expected_part, got_part in zip(expected, _residues(got)):
                assert np.array_equal(expected_part, got_part)

    def test_bit_exact_across_midflight_quarantine(self, shared_setup):
        """Quarantining the fast backend while circuits are in flight reroutes
        dispatch (different backend, same ring) without changing one bit."""
        inputs = _make_inputs(shared_setup, THREADS * PER_THREAD)
        serial = [
            _residues(_circuit(shared_setup["evaluator"], ct, w))
            for ct, w in inputs
        ]

        def quarantine_fast_backend():
            ntt_engine.quarantine_backend(
                ntt_engine.BACKEND_FOUR_STEP, reason="mid-flight drill"
            )

        try:
            threaded = _run_threaded(
                shared_setup, inputs, midflight=quarantine_fast_backend
            )
        finally:
            ntt_engine.clear_quarantine()
        for expected, got in zip(serial, threaded):
            for expected_part, got_part in zip(expected, _residues(got)):
                assert np.array_equal(expected_part, got_part)

    def test_decode_still_correct_after_threaded_run(self, shared_setup):
        (ciphertext, weights), = _make_inputs(shared_setup, 1)
        result = _run_threaded(
            shared_setup, [(ciphertext, weights)] * 1
        )[0]
        decoded = shared_setup["encoder"].decode(
            shared_setup["decryptor"].decrypt(result)
        ).real
        assert np.isfinite(decoded).all()


class TestTransformCounters:
    """The limb-row budgets are asserted through these process-wide counters,
    which server worker threads bump concurrently: no update may be lost."""

    def test_no_lost_updates_under_contention(self):
        per_thread, rows = 5_000, 3
        barrier = threading.Barrier(THREADS)
        stop_resetting = threading.Event()

        def worker():
            barrier.wait(timeout=10.0)
            for _ in range(per_thread):
                ntt_engine._count_pass("forward", rows)
                ntt_engine._count_pass("inverse", 1)

        def snapshotter():
            # Readers must never see a pass without its limb rows.
            while not stop_resetting.is_set():
                counts = ntt_engine.transform_counts()
                assert counts["forward_limbs"] == rows * counts["forward"]

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        reader = threading.Thread(target=snapshotter)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force switches inside the read-modify-write
        try:
            ntt_engine.reset_transform_counts()
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            stop_resetting.set()
            reader.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [reader])
        assert ntt_engine.transform_counts() == {
            "forward": THREADS * per_thread,
            "inverse": THREADS * per_thread,
            "forward_limbs": THREADS * per_thread * rows,
            "inverse_limbs": THREADS * per_thread,
        }

    def test_spot_check_sampling_stays_exact(self, monkeypatch):
        """Strict-mode sampling fires exactly every stride-th pass, however
        many threads count passes at once."""
        per_thread, stride = 3_000, 7
        monkeypatch.setenv("REPRO_NTT_SPOT_STRIDE", str(stride))
        fired = [0] * THREADS
        barrier = threading.Barrier(THREADS)

        def worker(index):
            barrier.wait(timeout=10.0)
            fired[index] = sum(
                ntt_engine._spot_check_due() for _ in range(per_thread)
            )

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
        ]
        previous = gemm_mod.set_strict(True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            monkeypatch.setattr(ntt_engine, "_SPOT_COUNTER", 0)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            gemm_mod.set_strict(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert ntt_engine._SPOT_COUNTER == THREADS * per_thread
        assert sum(fired) == THREADS * per_thread // stride

    def test_threaded_circuits_book_the_serial_row_count(self, shared_setup):
        inputs = _make_inputs(shared_setup, THREADS * PER_THREAD)
        _circuit(shared_setup["evaluator"], *inputs[0])  # warm caches
        ntt_engine.reset_transform_counts()
        _circuit(shared_setup["evaluator"], *inputs[0])
        one = ntt_engine.transform_counts()
        ntt_engine.reset_transform_counts()
        _run_threaded(shared_setup, inputs)
        total = ntt_engine.transform_counts()
        assert total == {key: value * len(inputs) for key, value in one.items()}


class TestServerCounters:
    """Every worker thread finalises requests; no count may be lost, and a
    finished ticket is already counted."""

    def test_served_and_failed_lose_no_update(self):
        registry = TenantRegistry()
        build_tenants(registry, ("alice",))
        requests = 1000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force switches inside the read-modify-write
        try:
            with InferenceServer(
                registry, workers=THREADS, queue_capacity=requests
            ) as server:
                tickets = [
                    server.submit(InferenceRequest("alice", _echo, payload=index))
                    for index in range(requests)
                ]
                for ticket in tickets:
                    ticket.wait(timeout=60.0)
                health = server.health()
        finally:
            sys.setswitchinterval(interval)
        assert all(ticket.done() for ticket in tickets)
        assert server.served + server.failed == requests
        assert health["served"] == sum(
            ticket.status == "completed" for ticket in tickets
        )


def _echo(session, payload):
    return payload


def _fresh_owner(kind):
    """A fresh four_step-pinned stack (one limb for ``plan``), its input and
    the exact answer."""
    basis = RnsBasis.generate(3, 28, 64)
    moduli = basis.moduli[:1] if kind == "plan" else basis.moduli
    data = np.stack(
        [np.arange(64, dtype=np.uint64) * np.uint64(7) % np.uint64(q) for q in moduli]
    )
    owner = ntt_engine.NttPlanStack(moduli, 64, backend=ntt_engine.BACKEND_FOUR_STEP)
    expected = ntt_engine.NttPlanStack(
        moduli, 64, backend=ntt_engine.BACKEND_REFERENCE
    ).forward(data)
    return owner, data, expected


class TestSentinelFirstCall:
    @pytest.fixture(autouse=True)
    def clean_dispatch(self, monkeypatch):
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        ntt_engine.clear_quarantine()
        yield
        ntt_engine.clear_quarantine()
        ntt_engine.reset_sentinels()

    def _race(self, monkeypatch, kind, verdict):
        """Thread A holds the first sentinel probe of a fresh ``kind`` owner
        until thread B has had time to transform; that probe then answers
        ``verdict`` (``None``: the real check), and so does the probe of the
        rebuild a refused vet leads to; any later probe runs the real check.
        Returns the owner, the outputs and which threads ran the four-step
        tables."""
        owner, data, expected = _fresh_owner(kind)
        probing, release = threading.Event(), threading.Event()
        sentinel_passes = ntt_engine._sentinel_passes
        transform = ntt_engine._FourStepStack.transform
        four_step_threads = set()

        held = []

        def held_probe(*args):
            held.append(1)
            if len(held) == 1:
                probing.set()
                release.wait(timeout=10.0)
            if verdict is None or len(held) > 2:
                return sentinel_passes(*args)
            return verdict

        def spy(self, *args, **kwargs):
            four_step_threads.add(threading.get_ident())
            return transform(self, *args, **kwargs)

        monkeypatch.setattr(ntt_engine, "_sentinel_passes", held_probe)
        monkeypatch.setattr(ntt_engine._FourStepStack, "transform", spy)
        outputs = {}

        def run(name):
            outputs[name] = (threading.get_ident(), owner.forward(data))

        first = threading.Thread(target=run, args=("a",))
        second = threading.Thread(target=run, args=("b",))
        try:
            first.start()
            assert probing.wait(timeout=10.0)
            second.start()
            second.join(timeout=0.5)
        finally:
            release.set()
            first.join(timeout=30.0)
            second.join(timeout=30.0)
        assert not first.is_alive() and not second.is_alive()
        for _, got in outputs.values():
            assert np.array_equal(got, expected)
        return outputs, four_step_threads

    @pytest.mark.parametrize("kind", ["plan", "stack"])
    def test_second_caller_waits_for_the_verdict(self, monkeypatch, kind):
        """Thread B reaches a fresh plan or stack while thread A is inside its
        four-step sentinel probe: B waits for A's verdict and runs four_step,
        instead of reading a provisional verdict and running reference with
        no fallback recorded."""
        outputs, four_step_threads = self._race(monkeypatch, kind, None)
        assert outputs["b"][0] in four_step_threads
        assert not ntt_engine.quarantined_backends()

    @pytest.mark.parametrize("kind", ["plan", "stack"])
    def test_failed_verdict_heals_both_callers(self, monkeypatch, kind):
        """A probe that mismatches before and after the rebuild quarantines
        four_step once, and the caller that waited for it heals exactly
        instead of running the rejected tables."""
        diagnostics.clear_events()
        outputs, four_step_threads = self._race(monkeypatch, kind, False)
        assert not four_step_threads & {tid for tid, _ in outputs.values()}
        assert ntt_engine.BACKEND_FOUR_STEP in ntt_engine.quarantined_backends()
        assert len(diagnostics.events("backend_quarantined")) == 1

    @pytest.mark.parametrize("kind", ["plan", "stack"])
    def test_concurrent_first_calls_probe_once(self, monkeypatch, kind):
        owner, data, expected = _fresh_owner(kind)
        sentinel_passes = ntt_engine._sentinel_passes
        probes = []
        probes_lock = threading.Lock()

        def counted_probe(*args):
            with probes_lock:
                probes.append(threading.get_ident())
            return sentinel_passes(*args)

        monkeypatch.setattr(ntt_engine, "_sentinel_passes", counted_probe)
        barrier = threading.Barrier(THREADS)
        outputs, errors = [], []

        def worker():
            try:
                barrier.wait(timeout=10.0)
                outputs.append(owner.forward(data))
            except BaseException as exc:  # noqa: BLE001 - surfaced to the test
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(probes) == 1
        assert len(outputs) == THREADS
        assert all(np.array_equal(got, expected) for got in outputs)


class TestQuarantineUnderContention:
    def test_concurrent_quarantines_record_one_event(self, monkeypatch, engine_clock):
        """N threads quarantining four_step at once (sentinels and spot
        checks on worker and fan-out threads) record exactly one event and
        bump the verdict generation once.  The clock read that opens the
        quarantine is held back, so a check outside the lock goes stale and
        lets every thread through."""

        def slow_clock():
            time.sleep(0.01)  # the check's answer goes stale meanwhile
            return engine_clock()

        monkeypatch.setattr(ntt_engine, "_clock", slow_clock)
        generation = ntt_engine._GENERATION
        diagnostics.clear_events()
        barrier = threading.Barrier(THREADS)

        def worker():
            barrier.wait(timeout=10.0)
            ntt_engine.quarantine_backend(ntt_engine.BACKEND_FOUR_STEP, reason="race")

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(diagnostics.events("backend_quarantined")) == 1
            assert ntt_engine._GENERATION == generation + 1
        finally:
            ntt_engine.clear_quarantine()


    def test_concurrent_lapse_records_one_event(self, engine_clock):
        """N threads noticing one lapsed quarantine at once lift it once."""
        ntt_engine.quarantine_backend(ntt_engine.BACKEND_FOUR_STEP, reason="race")
        engine_clock.advance(ntt_engine.QUARANTINE_COOLDOWN_S)
        diagnostics.clear_events()
        barrier = threading.Barrier(THREADS)
        seen = []

        def worker():
            barrier.wait(timeout=10.0)
            seen.append(ntt_engine.quarantined_backends())

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            ntt_engine.clear_quarantine()
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [frozenset()] * THREADS
        assert len(diagnostics.events("backend_quarantine_lifted")) == 1


class TestBoundedLruCacheThreadSafety:
    def test_contended_mixed_operations(self):
        cache = BoundedLruCache(capacity=8, name="stress")
        built = [0]
        build_lock = threading.Lock()
        errors: list = []
        barrier = threading.Barrier(THREADS)

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                barrier.wait(timeout=10.0)
                for step in range(400):
                    key = int(rng.integers(0, 24))
                    op = step % 5
                    if op == 0:
                        def factory():
                            with build_lock:
                                built[0] += 1
                            return key * 2
                        assert cache.get_or_create(key, factory) == key * 2
                    elif op == 1:
                        cache.put(key, key * 2)
                    elif op == 2:
                        value = cache.get(key)
                        assert value is None or value == key * 2
                    elif op == 3:
                        cache.pop(key)
                    else:
                        for entry_key, value in cache.items():
                            assert value == entry_key * 2
                    assert len(cache) <= 8
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "cache op deadlocked"
        assert not errors, errors
        stats = cache.stats()
        assert stats["size"] <= 8
        assert built[0] >= 1

    def test_get_or_create_single_value_wins(self):
        """Racing builders may both run, but every thread adopts one entry."""
        cache = BoundedLruCache(capacity=4, name="race")
        seen = set()
        barrier = threading.Barrier(THREADS)
        seen_lock = threading.Lock()

        def worker(tag):
            barrier.wait(timeout=10.0)
            value = cache.get_or_create("k", lambda: object())
            with seen_lock:
                seen.add(id(value))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        # all threads converged on the single cached object
        assert len(seen) == 1
        assert id(cache.get("k")) in seen

    def test_group_registration_race(self):
        group = WeakCacheGroup("stress-group")
        barrier = threading.Barrier(THREADS)
        errors: list = []
        keepalive = []

        def worker(index):
            try:
                barrier.wait(timeout=10.0)
                for n in range(50):
                    cache = BoundedLruCache(capacity=2, name=f"c{index}-{n}")
                    cache.put("x", 1)
                    keepalive.append(cache)
                    group.add(cache)
                    group.stats()  # concurrent registry walk
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        totals = group.stats()
        assert totals["instances"] == THREADS * 50
        assert totals["size"] == THREADS * 50  # one live entry per member


# ---------------------------------------------------------------------------
# Intra-request parallelism (repro.parallel.fan_out)
# ---------------------------------------------------------------------------


def _pool_is_idle() -> bool:
    """A helper is free again: a two-item fan-out meets on two threads.

    Both items wait on one barrier, so the fan-out only finishes if a helper
    picks up the second item while the caller holds the first.
    """
    barrier = threading.Barrier(2)

    def item(_):
        barrier.wait(timeout=10.0)
        return threading.get_ident()

    with parallel.core_budget_scope(2):
        return len(set(parallel.fan_out(item, range(2)))) == 2


def _helper_threads() -> int:
    return sum(t.name.startswith("repro-fan-out") for t in threading.enumerate())


class SentinelError(Exception):
    """Raised on a helper thread only."""


class TestFanOut:
    def test_budget_one_runs_in_order_on_the_caller(self):
        seen = []
        with parallel.core_budget_scope(1):
            results = parallel.fan_out(
                lambda item: seen.append((item, threading.get_ident())) or item * 2,
                range(5),
            )
        assert results == [0, 2, 4, 6, 8]
        assert seen == [(item, threading.get_ident()) for item in range(5)]

    def test_helper_runs_in_the_callers_context(self):
        """Both threads are inside an item at once (the barrier), each sees
        the caller's cancel scope and budget, and results keep item order."""
        barrier = threading.Barrier(2)

        def item(index):
            barrier.wait(timeout=10.0)
            checkpoint()  # polls the caller's scope only if it is installed
            return index, parallel.core_budget(), threading.get_ident()

        with parallel.core_budget_scope(2), CancelScope(label="outer") as scope:
            results = parallel.fan_out(item, range(2))
        assert [r[0] for r in results] == [0, 1]
        assert scope.checkpoints == 2
        assert all(r[1] == 2 for r in results)
        assert len({r[2] for r in results}) == 2
        assert _pool_is_idle()

    def test_helper_error_keeps_its_type_and_frees_the_slot(self):
        caller = threading.get_ident()
        barrier = threading.Barrier(2)

        def item(index):
            barrier.wait(timeout=10.0)  # one item per thread
            if threading.get_ident() != caller:
                raise SentinelError(f"item {index} on a helper")
            return index

        with parallel.core_budget_scope(2):
            with pytest.raises(SentinelError, match="on a helper"):
                parallel.fan_out(item, range(2))
            assert _pool_is_idle()
            # The freed helper serves the next fan-out.
            barrier.reset()

            def ident(index):
                barrier.wait(timeout=10.0)
                return threading.get_ident()

            idents = parallel.fan_out(ident, range(2))
        assert len(set(idents)) == 2

    def test_nested_fan_out_runs_inline_and_finishes(self):
        outcome = {}

        def inner(value):
            return value, threading.get_ident()

        def outer(index):
            rows = parallel.fan_out(inner, range(index * 4, index * 4 + 4))
            assert {ident for _, ident in rows} == {threading.get_ident()}
            return sum(value for value, _ in rows)

        def run():
            with parallel.core_budget_scope(4):
                outcome["sums"] = parallel.fan_out(outer, range(6))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "nested fan_out deadlocked"
        assert outcome["sums"] == [sum(range(i * 4, i * 4 + 4)) for i in range(6)]
        assert _pool_is_idle()

    def test_concurrent_callers_share_the_pool(self):
        """More callers than cores racing for helpers: claims never block,
        no result is lost, and every helper is parked again afterwards."""
        callers, rounds = 8, 150
        errors: list = []
        barrier = threading.Barrier(callers)

        def caller(seed):
            try:
                barrier.wait(timeout=10.0)
                with parallel.core_budget_scope(3):
                    for step in range(rounds):
                        items = range(seed, seed + 2 + step % 4)
                        got = parallel.fan_out(lambda x: x * x, items)
                        assert got == [x * x for x in items]
            except BaseException as exc:  # noqa: BLE001 - surfaced to the test
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(s,)) for s in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert _pool_is_idle()

    def test_budget_rule(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        assert [parallel.cores_per(n) for n in (1, 2, 3)] == [2, 1, 1]
        assert parallel.core_budget() == 2
        with pytest.raises(ValueError):
            with parallel.core_budget_scope(0):
                pass


@pytest.fixture(scope="module")
def n4096_setup():
    """A ring that fans its giant groups out (and runs four-step slice by
    slice), small L."""
    params = CkksParameters.create(
        degree=4096, limbs=3, log_q=28, dnum=3, scale_bits=26
    )
    assert params.degree >= linear_transform.FAN_OUT_MIN_DEGREE
    keygen = KeyGenerator(params, rng=np.random.default_rng(21))
    encoder = CkksEncoder(params)
    slots = params.slot_count
    rng = np.random.default_rng(22)

    def transform(indices):
        return DiagonalLinearTransform.from_diagonals(
            encoder, {k: rng.uniform(-1, 1, slots) for k in indices}, n1=4
        )

    bsgs = transform((0, 1, 4, 5, 8))  # one baby, two giant groups
    giants_only = transform((0, 4, 8))  # no hoisted babies
    steps = sorted(set(bsgs.rotation_steps()) | {3})
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    return {
        "params": params,
        "evaluator": CkksEvaluator(
            params,
            relin_key=keygen.relinearization_key(),
            galois_keys=keygen.galois_keys_for_steps(steps),
        ),
        "bsgs": bsgs,
        "giants_only": giants_only,
        "cts": [
            encryptor.encrypt(encoder.encode(rng.uniform(-1, 1, slots)))
            for _ in range(2)
        ],
    }


def _fanned_out_ops(env) -> dict:
    evaluator, transform, (a, b) = env["evaluator"], env["bsgs"], env["cts"]
    return {
        "apply": [transform.apply(evaluator, a)],
        "apply_batch": transform.apply_batch(evaluator, [a, b]),
        "square": [evaluator.square(a)],
        "multiply": [evaluator.multiply(a, b)],
        "rotate_many": evaluator.rotate_many(a, [1, 3, 4]),
    }


def _run_at_budget(env, cores: int):
    """Every fanned-out operator at ``cores`` cores, with its counters."""
    evaluator = env["evaluator"]
    with parallel.core_budget_scope(cores):
        _fanned_out_ops(env)  # warm tables, sentinels and key caches
        evaluator.reset_operation_counts()
        ntt_engine.reset_transform_counts()
        results = _fanned_out_ops(env)
    counts = (ntt_engine.transform_counts(), dict(evaluator.operation_counts))
    return results, counts


class TestIntraRequestParallelism:
    @pytest.fixture(autouse=True)
    def _restore_dispatch(self):
        yield
        ntt_engine.clear_quarantine()

    @pytest.mark.parametrize("backend", ntt_engine.BACKENDS)
    def test_two_cores_bit_identical_to_one(self, n4096_setup, backend, monkeypatch):
        monkeypatch.setenv("REPRO_NTT_BACKEND", backend)
        serial, serial_counts = _run_at_budget(n4096_setup, 1)
        parallel_run, parallel_counts = _run_at_budget(n4096_setup, 2)
        assert _helper_threads() >= 1  # the helpers really ran
        assert parallel_counts == serial_counts
        for name, expected in serial.items():
            got = parallel_run[name]
            assert len(got) == len(expected), name
            for want, have in zip(expected, got):
                assert np.array_equal(want.c0.residues, have.c0.residues), name
                assert np.array_equal(want.c1.residues, have.c1.residues), name
                assert want.scale == have.scale and want.level == have.level
        assert _pool_is_idle()

    @pytest.mark.parametrize("degree, fans_out", [(512, False), (1024, True)])
    def test_giant_groups_fan_out_from_the_minimum_degree(
        self, monkeypatch, degree, fans_out
    ):
        """Below N = 1024 (the measured crossover) a giant group costs less
        than the hand-off, so apply runs the groups on the caller at any
        budget."""
        params = CkksParameters.create(
            degree=degree, limbs=3, log_q=28, dnum=3, scale_bits=26
        )
        keygen = KeyGenerator(params, rng=np.random.default_rng(23))
        encoder = CkksEncoder(params)
        rng = np.random.default_rng(24)
        transform = DiagonalLinearTransform.from_diagonals(
            encoder,
            {k: rng.uniform(-1, 1, params.slot_count) for k in (0, 4, 8)},
            n1=4,
        )
        evaluator = CkksEvaluator(
            params, galois_keys=keygen.galois_keys_for_steps(transform.rotation_steps())
        )
        ciphertext = Encryptor(params, keygen.public_key(), keygen).encrypt(
            encoder.encode(rng.uniform(-1, 1, params.slot_count))
        )
        fanned = []

        def recording_fan_out(fn, items):
            fanned.append(len(items))
            return parallel.fan_out(fn, items)

        monkeypatch.setattr(linear_transform, "fan_out", recording_fan_out)
        with parallel.core_budget_scope(2):
            transform.apply(evaluator, ciphertext)
        assert fanned == ([3] if fans_out else [])

    def test_drill_error_reaches_the_caller_typed(self, n4096_setup, monkeypatch):
        """A corrupted four-step table caught by a strict-mode spot check
        inside a giant group (the groups run on two threads) surfaces as
        BackendExactnessError, and the pool is whole again afterwards."""
        env = n4096_setup
        evaluator, transform, ciphertext = (
            env["evaluator"], env["giants_only"], env["cts"][0]
        )
        monkeypatch.setenv("REPRO_NTT_BACKEND", ntt_engine.BACKEND_FOUR_STEP)
        with parallel.core_budget_scope(2):
            expected = transform.apply(evaluator, ciphertext)
            extended = env["params"].extended_basis(ciphertext.level)
            stack = basis_plan(extended)
            monkeypatch.setenv("REPRO_NTT_SPOT_STRIDE", "1")
            previous = gemm_mod.set_strict(True)
            try:
                with corrupted_four_step_tables(stack):
                    with pytest.raises(BackendExactnessError):
                        transform.apply(evaluator, ciphertext)
            finally:
                gemm_mod.set_strict(previous)
            assert _pool_is_idle()
            healed = transform.apply(evaluator, ciphertext)
        assert np.array_equal(healed.c0.residues, expected.c0.residues)
        assert np.array_equal(healed.c1.residues, expected.c1.residues)

    def test_deadline_inside_the_giant_groups(self, n4096_setup):
        """A deadline that passes only once the giant groups are running
        raises DeadlineExceeded from a fan-out item, helper or caller."""
        env = n4096_setup
        ticks = itertools.count()

        def clock():
            next(ticks)
            return 10.0 if parallel._NESTED.get() else 0.0

        with parallel.core_budget_scope(2):
            with CancelScope(deadline=5.0, clock=clock):
                with pytest.raises(DeadlineExceeded):
                    env["bsgs"].apply(env["evaluator"], env["cts"][0])
        assert _pool_is_idle()

    def test_scratch_is_one_largest_pool_per_thread(self, n4096_setup, monkeypatch):
        """After every operator has run on a fresh thread, its four-step
        scratch is one buffer of the largest cascade: five float64 tiles of
        the widest limb stack it transformed."""
        env = n4096_setup
        monkeypatch.setenv("REPRO_NTT_BACKEND", ntt_engine.BACKEND_FOUR_STEP)
        held = {}

        def run():
            with parallel.core_budget_scope(1):
                _fanned_out_ops(env)
            held["bytes"] = ntt_engine._SCRATCH.buffer.nbytes  # this thread's

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120.0)
        assert not thread.is_alive()
        params = env["params"]
        widest = params.extended_basis(params.limbs).size
        assert 0 < held["bytes"] <= 5 * 8 * widest * params.degree
