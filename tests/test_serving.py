"""Serving-runtime tests: queue, deadlines, retry, server, chaos.

Exercises the resilience contract of :mod:`repro.serving` piece by piece
(bounded admission, cooperative cancellation, taxonomy-driven retry
classification) and then end to end: a live
server under concurrent load with every fault drill replayed by the
:mod:`repro.testing.chaos` harness, gated on zero silent corruption and
zero hangs.
"""

from __future__ import annotations

import itertools
import random
import signal
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import diagnostics, parallel
from repro.ckks import CkksEncoder, Encryptor
from repro.ckks.batch import batch_size
from repro.diagnostics import BoundedLruCache
from repro.errors import (
    BackendExactnessError,
    DeadlineExceeded,
    NoiseBudgetExhausted,
    ParameterError,
    ReproError,
    RequestCancelled,
    ServiceOverloaded,
    ServiceUnavailable,
    PoisonRequest,
    ServingError,
    TenantNotFound,
    WorkerCrashed,
    WorkerUnresponsive,
)
from repro.poly import ntt_engine
from repro.serving import (
    BoundedRequestQueue,
    CancelScope,
    InferenceRequest,
    InferenceServer,
    RetryPolicy,
    TenantRegistry,
    checkpoint,
    is_retryable,
)
from repro.serving.shard import TenantSpec
from repro.serving.supervisor import ShardHandle, _death
from repro.testing.chaos import build_tenants, prepare_work, run_chaos


@pytest.fixture
def registry_and_clients():
    registry = TenantRegistry()
    clients = build_tenants(registry, ("alice", "bob"))
    return registry, clients


@pytest.fixture(autouse=True)
def _clean_dispatch():
    yield
    ntt_engine.clear_quarantine()
    ntt_engine.reset_sentinels()


# ---------------------------------------------------------------------------
# Error taxonomy additions
# ---------------------------------------------------------------------------


class TestServingErrors:
    def test_hierarchy(self):
        for exc in (
            ServiceOverloaded,
            ServiceUnavailable,
            DeadlineExceeded,
            RequestCancelled,
            TenantNotFound,
            WorkerCrashed,
            WorkerUnresponsive,
            PoisonRequest,
        ):
            assert issubclass(exc, ServingError)
            assert issubclass(exc, ReproError)

    def test_compat_ancestry(self):
        # catchable by callers written against stdlib types
        assert issubclass(DeadlineExceeded, TimeoutError)
        assert issubclass(TenantNotFound, KeyError)
        with pytest.raises(TimeoutError):
            raise DeadlineExceeded("late")

    def test_tenant_not_found_message_is_flat(self):
        # KeyError would repr() the message; ours must stay readable
        assert "register" in str(TenantNotFound("no tenant; register it"))


# ---------------------------------------------------------------------------
# Bounded queue
# ---------------------------------------------------------------------------


class TestBoundedQueue:
    def test_sheds_instead_of_blocking(self):
        queue = BoundedRequestQueue(2)
        queue.put("a")
        queue.put("b")
        started = time.monotonic()
        with pytest.raises(ServiceOverloaded) as info:
            queue.put("c")
        assert time.monotonic() - started < 0.5  # rejected, not blocked
        assert "queue_capacity" in str(info.value) or "retry" in str(info.value)
        assert queue.stats()["shed"] == 1

    def test_fifo_and_counters(self):
        queue = BoundedRequestQueue(4)
        for item in ("a", "b", "c"):
            queue.put(item)
        assert [queue.get(0.01) for _ in range(3)] == ["a", "b", "c"]
        stats = queue.stats()
        assert stats["accepted"] == 3
        assert stats["high_water"] == 3
        assert stats["depth"] == 0

    def test_get_timeout_returns_none(self):
        assert BoundedRequestQueue(1).get(timeout=0.01) is None

    def test_close_drains_then_wakes_consumers(self):
        queue = BoundedRequestQueue(2)
        queue.put("a")
        assert not queue.closed
        queue.close()
        assert queue.closed
        with pytest.raises(ServiceUnavailable):
            queue.put("b")
        assert queue.get(timeout=0.01) == "a"
        started = time.monotonic()
        assert queue.get(timeout=5.0) is None  # closed and empty: no wait
        assert time.monotonic() - started < 1.0

    def test_drain_matching_takes_matches_keeps_order(self):
        queue = BoundedRequestQueue(8)
        for item in ("a1", "b1", "a2", "b2", "a3"):
            queue.put(item)
        taken = queue.drain_matching(lambda item: item.startswith("a"), 2)
        assert taken == ["a1", "a2"]
        # non-matches and the over-limit match keep their FIFO order
        assert [queue.get(0.01) for _ in range(3)] == ["b1", "b2", "a3"]
        assert queue.drain_matching(lambda item: True, 0) == []

    def test_drain_matching_concurrent_producers(self):
        # Dynamic-batching hot path under contention: producers racing the
        # draining worker must never lose a ticket, double-serve one, or
        # reorder a batch_key's FIFO.
        producers, per_producer = 4, 48
        queue = BoundedRequestQueue(producers * per_producer)
        barrier = threading.Barrier(producers + 1)

        def produce(pid: int) -> None:
            barrier.wait()
            for seq in range(per_producer):
                queue.put((pid, seq, "even" if seq % 2 == 0 else "odd"))

        threads = [
            threading.Thread(target=produce, args=(pid,))
            for pid in range(producers)
        ]
        for thread in threads:
            thread.start()
        served: list = []
        barrier.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            served.extend(
                queue.drain_matching(lambda item: item[2] == "even", 8)
            )
            leader = queue.get(0.001)
            if leader is not None:
                served.append(leader)
            if not any(t.is_alive() for t in threads) and queue.depth() == 0:
                break
        for thread in threads:
            thread.join(timeout=2.0)
        # no ticket lost, none double-served...
        assert len(served) == producers * per_producer
        assert len(set(served)) == len(served)
        # ...and within each (producer, batch_key) stream the serve order
        # is the submission order.
        last_seq: dict = {}
        for pid, seq, key in served:
            assert last_seq.get((pid, key), -1) < seq
            last_seq[(pid, key)] = seq

    def test_drain_shutdown_race_loses_nothing(self):
        # close() racing producers and the drainer: every put either lands
        # (and is served exactly once) or fails typed -- never vanishes.
        queue = BoundedRequestQueue(1024)
        barrier = threading.Barrier(3)
        admitted: list = []
        rejected: list = []

        def produce() -> None:
            barrier.wait()
            for seq in range(256):
                try:
                    queue.put(seq)
                    admitted.append(seq)
                except ServiceUnavailable:
                    rejected.append(seq)

        def close_midstream() -> None:
            barrier.wait()
            time.sleep(0.002)
            queue.close()

        producer = threading.Thread(target=produce)
        closer = threading.Thread(target=close_midstream)
        producer.start()
        closer.start()
        served: list = []
        barrier.wait()
        while producer.is_alive() or queue.depth():
            served.extend(queue.drain_matching(lambda item: True, 16))
            item = queue.get(0.001)
            if item is not None:
                served.append(item)
        producer.join(timeout=2.0)
        closer.join(timeout=2.0)
        served.extend(queue.drain_matching(lambda item: True, 10**6))
        assert sorted(served) == sorted(admitted)
        assert len(served) + len(rejected) == 256

    def test_close_rejects_and_wakes(self):
        queue = BoundedRequestQueue(1)
        got = []
        consumer = threading.Thread(target=lambda: got.append(queue.get(5.0)))
        consumer.start()
        queue.close()
        consumer.join(timeout=2.0)
        assert not consumer.is_alive()
        assert got == [None]
        with pytest.raises(ServiceUnavailable):
            queue.put("x")


# ---------------------------------------------------------------------------
# Cooperative cancellation
# ---------------------------------------------------------------------------


class TestCancellation:
    def test_checkpoint_without_scope_is_noop(self):
        checkpoint()  # must not raise

    def test_deadline_raises_at_checkpoint(self):
        clock = iter([0.0, 0.0, 10.0]).__next__
        with CancelScope(timeout=1.0, clock=clock, label="t"):
            checkpoint()  # clock=0.0 < deadline=1.0
            with pytest.raises(DeadlineExceeded):
                checkpoint()  # clock=10.0

    def test_cancel_from_other_thread(self):
        scope = CancelScope(label="victim")
        with scope:
            threading.Thread(target=lambda: scope.cancel("drain")).start()
            deadline = time.monotonic() + 2.0
            with pytest.raises(RequestCancelled, match="drain"):
                while time.monotonic() < deadline:
                    checkpoint()
                    time.sleep(0.001)

    def test_nested_scope_honours_parent(self):
        outer = CancelScope(label="outer")
        with outer, CancelScope(label="inner"):
            outer.cancel("parent gone")
            with pytest.raises(RequestCancelled, match="parent gone"):
                checkpoint()

    def test_scope_uninstalls_on_exit(self):
        with CancelScope() as scope:
            scope.cancel("inside")
            with pytest.raises(RequestCancelled):
                checkpoint()
        checkpoint()  # the cancelled scope is no longer installed

    def test_evaluator_polls_checkpoints(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]
        session = registry.session(client.tenant_id)
        ciphertext = client.encrypt_features(np.ones(client.params.slot_count))
        scope = CancelScope(label="req")
        scope.cancel("gone")
        with scope, pytest.raises(RequestCancelled):
            session.evaluator.square(ciphertext)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_classification(self):
        assert is_retryable(BackendExactnessError("backend lied"))
        # Worker deaths are infrastructure faults: re-dispatch the request.
        assert is_retryable(WorkerCrashed("shard SIGKILLed"))
        assert is_retryable(WorkerUnresponsive("heartbeats stopped"))
        for terminal in (
            ParameterError("bad"),
            NoiseBudgetExhausted("empty"),
            DeadlineExceeded("late"),
            ServiceOverloaded("full"),
            PoisonRequest("killed two workers"),
            RuntimeError("unknown"),
        ):
            assert not is_retryable(terminal)

    def test_backoff_is_bounded_and_jittered(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.01, max_delay_s=0.05, jitter=0.5
        )
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in range(1, 6)]
        assert all(0 < d <= 0.05 for d in delays)
        # jitter must actually vary the delay
        assert len({policy.delay(3, rng) for _ in range(8)}) > 1

    def test_should_retry_respects_budget(self):
        policy = RetryPolicy(max_attempts=2)
        err = BackendExactnessError("x")
        assert policy.should_retry(err, 1)
        assert not policy.should_retry(err, 2)
        assert not policy.should_retry(ParameterError("x"), 1)


# ---------------------------------------------------------------------------
# Sessions and registry
# ---------------------------------------------------------------------------


class TestTenantRegistry:
    def test_unknown_tenant_names_remedy(self, registry_and_clients):
        registry, _ = registry_and_clients
        with pytest.raises(TenantNotFound) as info:
            registry.session("mallory")
        message = str(info.value)
        assert "mallory" in message
        assert "register" in message

    def test_sessions_are_shared_and_warm(self, registry_and_clients):
        registry, clients = registry_and_clients
        session = registry.session(clients[0].tenant_id)
        assert session is registry.session(clients[0].tenant_id)
        assert session.warmed

    @pytest.mark.parametrize("backend", ["four_step", "reference"])
    def test_first_request_after_warm_builds_no_tables(self, backend, monkeypatch):
        """Registration warms the tenant's chain: its first request, which
        runs at two levels, builds no NTT table and runs no sentinel."""
        monkeypatch.setenv("REPRO_NTT_BACKEND", backend)
        spec = TenantSpec("warm", degree=64, limbs=3, dnum=2, key_seed=1, galois_steps=(1,))
        params = spec.build_params()
        relin, galois = spec.build_keys(params)
        keygen = spec.keygen(params)
        encoder = CkksEncoder(params)
        values = np.random.default_rng(2).uniform(-1, 1, params.slot_count)
        ciphertext = Encryptor(params, keygen.public_key(), keygen).encrypt(
            encoder.encode(values)
        )
        # An empty plan cache: a worker process that has built nothing yet.
        monkeypatch.setattr(
            ntt_engine, "_STACK_CACHE", BoundedLruCache(name="fresh", capacity=128)
        )
        session = TenantRegistry().register(
            "warm", params, relin_key=relin, galois_keys=galois
        )
        assert session.warmed
        builds, probes = [], []
        psi_powers, sentinel = ntt_engine._psi_powers, ntt_engine._sentinel_passes
        monkeypatch.setattr(
            ntt_engine, "_psi_powers", lambda *a: builds.append(1) or psi_powers(*a)
        )
        monkeypatch.setattr(
            ntt_engine, "_sentinel_passes", lambda *a: probes.append(1) or sentinel(*a)
        )
        evaluator = session.evaluator
        evaluator.rotate(evaluator.rescale(evaluator.multiply(ciphertext, ciphertext)), 1)
        assert builds == [] and probes == []

    def test_empty_tenant_id_rejected(self, registry_and_clients):
        registry, clients = registry_and_clients
        with pytest.raises(ParameterError):
            registry.register("", clients[0].params)


# ---------------------------------------------------------------------------
# End-to-end server behaviour
# ---------------------------------------------------------------------------


class TestInferenceServer:
    def test_roundtrip_correct_and_diagnosed(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]
        rng = np.random.default_rng(5)
        features = rng.uniform(-1, 1, client.params.slot_count)
        diagnostics.clear_events()
        with InferenceServer(registry, workers=2) as server:
            ticket = server.submit(
                InferenceRequest(
                    client.tenant_id,
                    client.circuit,
                    payload=client.encrypt_features(features),
                )
            )
            result = ticket.result(timeout=30.0)
        decoded = client.decode(result)
        assert np.abs(decoded - client.expected(features)).max() < 1e-3
        diag = ticket.diagnostics
        assert diag["attempts"] == 1
        assert diag["backend"] in ntt_engine.BACKENDS
        assert diag["queue_wait_s"] >= 0.0
        assert diag["service_s"] > 0.0
        assert diag["noise_headroom_bits"] is None or diag["noise_headroom_bits"] > 0
        kinds = [e["kind"] for e in diagnostics.events()]
        assert "request_served" in kinds

    @pytest.mark.parametrize("workers, budget", [(1, 2), (2, 1)])
    def test_workers_run_under_their_share_of_cores(
        self, registry_and_clients, monkeypatch, workers, budget
    ):
        registry, _ = registry_and_clients
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        with InferenceServer(registry, workers=workers) as server:
            assert server.health()["core_budget"] == budget
            ticket = server.submit(
                InferenceRequest("alice", lambda session, payload: parallel.core_budget())
            )
            assert ticket.result(timeout=30.0) == budget

    def test_unknown_tenant_rejected_at_admission(self, registry_and_clients):
        registry, _ = registry_and_clients
        with InferenceServer(registry, workers=1) as server:
            with pytest.raises(TenantNotFound):
                server.submit(InferenceRequest("mallory", lambda s, p: p))

    def test_overload_sheds_typed(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]
        release = threading.Event()

        def slow_circuit(session, payload):
            release.wait(10.0)
            return payload

        server = InferenceServer(registry, workers=1, queue_capacity=1)
        with server:
            tickets = []
            shed = 0
            # 1 running + 1 queued fit; the rest must shed as typed errors
            for _ in range(6):
                try:
                    tickets.append(
                        server.submit(
                            InferenceRequest(client.tenant_id, slow_circuit)
                        )
                    )
                except ServiceOverloaded:
                    shed += 1
                time.sleep(0.02)
            assert shed >= 1
            assert not server.ready()  # queue saturated
            release.set()
            for ticket in tickets:
                ticket.result(timeout=10.0)

    def test_deadline_exceeded_is_typed(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]

        def endless(session, payload):
            while True:
                checkpoint()
                time.sleep(0.005)

        with InferenceServer(registry, workers=1) as server:
            ticket = server.submit(
                InferenceRequest(client.tenant_id, endless, timeout_s=0.1)
            )
            with pytest.raises(DeadlineExceeded):
                ticket.result(timeout=10.0)
            assert ticket.status == "failed"

    def test_client_cancel_is_typed(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]
        entered = threading.Event()

        def endless(session, payload):
            entered.set()
            while True:
                checkpoint()
                time.sleep(0.005)

        with InferenceServer(registry, workers=1) as server:
            ticket = server.submit(InferenceRequest(client.tenant_id, endless))
            assert entered.wait(5.0)
            ticket.cancel("client gave up")
            with pytest.raises(RequestCancelled):
                ticket.result(timeout=10.0)

    def test_drain_refuses_new_work_and_finishes_old(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]
        server = InferenceServer(registry, workers=2)
        server.start()
        rng = np.random.default_rng(6)
        features = rng.uniform(-1, 1, client.params.slot_count)
        tickets = [
            server.submit(
                InferenceRequest(
                    client.tenant_id,
                    client.circuit,
                    payload=client.encrypt_features(features),
                )
            )
            for _ in range(4)
        ]
        assert server.drain(timeout=30.0)
        with pytest.raises(ServiceUnavailable):
            server.submit(InferenceRequest(client.tenant_id, client.circuit))
        assert all(t.done() for t in tickets)
        assert server.health()["status"] == "draining"
        server.shutdown()
        assert server.health()["status"] == "stopped"

    def test_health_reports_degraded_under_quarantine(self, registry_and_clients):
        registry, _ = registry_and_clients
        with InferenceServer(registry, workers=1) as server:
            assert server.health()["status"] == "ok"
            ntt_engine.quarantine_backend(
                ntt_engine.BACKEND_FOUR_STEP, reason="test"
            )
            health = server.health()
            assert health["status"] == "degraded"
            assert health["quarantined_backends"] == [ntt_engine.BACKEND_FOUR_STEP]

    def test_retry_reroutes_after_backend_fault(self, registry_and_clients):
        """A circuit that fails retryably once must heal via quarantine+retry."""
        registry, clients = registry_and_clients
        client = clients[0]
        rng = np.random.default_rng(8)
        features = rng.uniform(-1, 1, client.params.slot_count)
        calls = {"n": 0}

        def flaky_circuit(session, payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise BackendExactnessError("injected transient fault")
            return client.circuit(session, payload)

        with InferenceServer(registry, workers=1) as server:
            ticket = server.submit(
                InferenceRequest(
                    client.tenant_id,
                    flaky_circuit,
                    payload=client.encrypt_features(features),
                )
            )
            result = ticket.result(timeout=30.0)
        assert ticket.diagnostics["attempts"] == 2
        decoded = client.decode(result)
        assert np.abs(decoded - client.expected(features)).max() < 1e-3

    def test_terminal_error_not_retried(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]
        calls = {"n": 0}

        def broken_circuit(session, payload):
            calls["n"] += 1
            raise ParameterError("malformed request")

        with InferenceServer(registry, workers=1) as server:
            ticket = server.submit(
                InferenceRequest(client.tenant_id, broken_circuit)
            )
            with pytest.raises(ParameterError):
                ticket.result(timeout=10.0)
        assert calls["n"] == 1


# ---------------------------------------------------------------------------
# Dynamic batching
# ---------------------------------------------------------------------------


class TestDynamicBatching:
    """Coalescing queued requests must change throughput, never semantics."""

    def _blocked_server(self, registry, **knobs):
        """One-worker server whose first request parks until released."""
        server = InferenceServer(registry, workers=1, **knobs)
        server.start()
        entered, release = threading.Event(), threading.Event()

        def barrier_circuit(session, payload):
            entered.set()
            release.wait(10.0)
            return payload

        return server, barrier_circuit, entered, release

    def test_knob_validation(self, registry_and_clients):
        registry, _ = registry_and_clients
        with pytest.raises(ValueError):
            InferenceServer(registry, max_batch_size=0)
        with pytest.raises(ValueError):
            InferenceServer(registry, max_batch_wait_s=-1.0)

    def test_health_reports_batching(self, registry_and_clients):
        registry, _ = registry_and_clients
        with InferenceServer(
            registry, workers=1, max_batch_size=4, max_batch_wait_s=0.01
        ) as server:
            batching = server.health()["batching"]
        assert batching["max_batch_size"] == 4
        assert batching["max_batch_wait_s"] == pytest.approx(0.01)
        assert batching["batches_served"] == 0
        assert batching["batched_requests"] == 0

    def test_coalesced_results_bit_exact(self, registry_and_clients):
        """A coalesced batch must return exactly the solo-serving results."""
        registry, clients = registry_and_clients
        client = clients[0]
        rng = np.random.default_rng(21)
        feature_sets = [
            rng.uniform(-1, 1, client.params.slot_count) for _ in range(4)
        ]
        payloads = [client.encrypt_features(f) for f in feature_sets]
        session = registry.session(client.tenant_id)
        oracles = [client.circuit(session, ct) for ct in payloads]

        server, barrier, entered, release = self._blocked_server(
            registry, max_batch_size=4, max_batch_wait_s=0.05
        )
        try:
            server.submit(InferenceRequest(client.tenant_id, barrier))
            assert entered.wait(5.0)
            tickets = [
                server.submit(
                    InferenceRequest(
                        client.tenant_id,
                        client.circuit,
                        payload=ct,
                        batch_key="stream",
                    )
                )
                for ct in payloads
            ]
            release.set()
            results = [t.result(timeout=30.0) for t in tickets]
        finally:
            release.set()
            server.shutdown()
        for ticket, result, oracle, features in zip(
            tickets, results, oracles, feature_sets
        ):
            assert ticket.diagnostics["batched"] is True
            assert ticket.diagnostics["batch_size"] == 4
            assert np.array_equal(
                result.c0.to_coeff().residues, oracle.c0.to_coeff().residues
            )
            assert np.array_equal(
                result.c1.to_coeff().residues, oracle.c1.to_coeff().residues
            )
            decoded = client.decode(result)
            assert np.abs(decoded - client.expected(features)).max() < 1e-3
        assert server.batches_served == 1
        assert server.batched_requests == 4

    def test_requests_without_key_never_coalesce(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]
        rng = np.random.default_rng(22)
        features = rng.uniform(-1, 1, client.params.slot_count)
        server, barrier, entered, release = self._blocked_server(
            registry, max_batch_size=4, max_batch_wait_s=0.05
        )
        try:
            server.submit(InferenceRequest(client.tenant_id, barrier))
            assert entered.wait(5.0)
            tickets = [
                server.submit(
                    InferenceRequest(
                        client.tenant_id,
                        client.circuit,
                        payload=client.encrypt_features(features),
                    )
                )
                for _ in range(3)
            ]
            release.set()
            for ticket in tickets:
                ticket.result(timeout=30.0)
        finally:
            release.set()
            server.shutdown()
        assert server.batches_served == 0
        assert all("batched" not in t.diagnostics for t in tickets)

    def test_deadline_preserved_mid_batch(self, registry_and_clients):
        """A member whose deadline lapses in the queue fails typed; its
        batch-mates still coalesce and complete."""
        registry, clients = registry_and_clients
        client = clients[0]
        rng = np.random.default_rng(23)
        features = rng.uniform(-1, 1, client.params.slot_count)
        server, barrier, entered, release = self._blocked_server(
            registry, max_batch_size=4, max_batch_wait_s=0.05
        )
        try:
            server.submit(InferenceRequest(client.tenant_id, barrier))
            assert entered.wait(5.0)
            healthy = [
                server.submit(
                    InferenceRequest(
                        client.tenant_id,
                        client.circuit,
                        payload=client.encrypt_features(features),
                        batch_key="stream",
                    )
                )
                for _ in range(2)
            ]
            doomed = server.submit(
                InferenceRequest(
                    client.tenant_id,
                    client.circuit,
                    payload=client.encrypt_features(features),
                    batch_key="stream",
                    timeout_s=0.05,
                )
            )
            time.sleep(0.2)  # let the doomed member's deadline lapse queued
            release.set()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30.0)
            for ticket in healthy:
                result = ticket.result(timeout=30.0)
                decoded = client.decode(result)
                assert np.abs(decoded - client.expected(features)).max() < 1e-3
                assert ticket.diagnostics["batched"] is True
                assert ticket.diagnostics["batch_size"] == 2
        finally:
            release.set()
            server.shutdown()

    def test_cancellation_preserved_mid_batch(self, registry_and_clients):
        registry, clients = registry_and_clients
        client = clients[0]
        rng = np.random.default_rng(24)
        features = rng.uniform(-1, 1, client.params.slot_count)
        server, barrier, entered, release = self._blocked_server(
            registry, max_batch_size=4, max_batch_wait_s=0.05
        )
        try:
            server.submit(InferenceRequest(client.tenant_id, barrier))
            assert entered.wait(5.0)
            tickets = [
                server.submit(
                    InferenceRequest(
                        client.tenant_id,
                        client.circuit,
                        payload=client.encrypt_features(features),
                        batch_key="stream",
                    )
                )
                for _ in range(3)
            ]
            tickets[1].cancel("client gave up while queued")
            release.set()
            with pytest.raises(RequestCancelled):
                tickets[1].result(timeout=30.0)
            for ticket in (tickets[0], tickets[2]):
                result = ticket.result(timeout=30.0)
                decoded = client.decode(result)
                assert np.abs(decoded - client.expected(features)).max() < 1e-3
        finally:
            release.set()
            server.shutdown()

    def test_incompatible_payloads_fall_back_to_solo(self, registry_and_clients):
        """Stacking failures degrade to sequential serving, never to errors."""
        registry, clients = registry_and_clients
        client = clients[0]

        def echo(session, payload):
            return payload

        diagnostics.clear_events()
        server, barrier, entered, release = self._blocked_server(
            registry, max_batch_size=4, max_batch_wait_s=0.05
        )
        try:
            server.submit(InferenceRequest(client.tenant_id, barrier))
            assert entered.wait(5.0)
            tickets = [
                server.submit(
                    InferenceRequest(
                        client.tenant_id,
                        echo,
                        payload=payload,
                        batch_key="stream",
                    )
                )
                for payload in ("not-a-ciphertext", "also-not")
            ]
            release.set()
            results = [t.result(timeout=30.0) for t in tickets]
        finally:
            release.set()
            server.shutdown()
        assert results == ["not-a-ciphertext", "also-not"]
        assert server.batches_served == 0
        assert all("batched" not in t.diagnostics for t in tickets)
        events = [
            e for e in diagnostics.events() if e["kind"] == "batch_fallback"
        ]
        assert events and events[-1]["reason"] == "ParameterError"

    @pytest.mark.parametrize("seed", [7, 11])
    def test_chaos_with_dynamic_batching(self, seed):
        """Every fault drill with coalescing on: quarantine reroute must
        still heal mid-batch, with zero silent corruption and zero hangs."""
        report = run_chaos(
            requests_per_drill=8,
            workers=4,
            seed=seed,
            max_batch_size=4,
            max_batch_wait_s=0.01,
        )
        assert report.silent == 0, report.summary()
        assert report.hung == 0, report.summary()
        assert report.ok
        by_drill = {o.drill: o for o in report.outcomes}
        flip = by_drill["ciphertext_bit_flip"]
        assert flip.typed_failures == 1
        assert flip.correct == flip.requests - 1
        for drill in (
            "four_step_table_corruption",
            "vetted_table_corruption",
            "gemm_output_perturbation",
        ):
            outcome = by_drill[drill]
            assert outcome.correct == outcome.requests, outcome.errors
        _assert_four_step_drill_events(by_drill)


# ---------------------------------------------------------------------------
# Chaos: every fault drill under concurrent load
# ---------------------------------------------------------------------------


def _assert_four_step_drill_events(by_drill) -> None:
    """Corrupted tables the re-vet catches heal by one rebuild, with no
    quarantine.  A miscomputing engine is re-vetted under load: its rebuilt
    tables fail too, so four_step is quarantined; a lying split is refused
    the same way on the chaos tenants' dense n64 tile.  A rung pinned to
    ``reference`` never runs the four-step tables these drills fault, so it
    rebuilds and quarantines nothing."""
    four_step = ntt_engine.requested_backend() == ntt_engine.BACKEND_FOUR_STEP
    details = by_drill["four_step_table_corruption"].details
    expected = (1, 0) if four_step else (0, 0)
    assert (
        details["backend_tables_rebuilt"],
        details["backend_quarantined"],
    ) == expected, details
    for drill in ("gemm_output_perturbation", "calibration_lie"):
        details = by_drill[drill].details
        counts = (details["backend_tables_rebuilt"], details["backend_quarantined"])
        if four_step:
            assert min(counts) >= 1, (drill, details)
        else:
            assert counts == (0, 0), (drill, details)


class TestChaos:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_all_drills_under_concurrent_load(self, seed):
        report = run_chaos(requests_per_drill=8, workers=8, seed=seed)
        assert report.silent == 0, report.summary()
        assert report.hung == 0, report.summary()
        assert report.ok
        by_drill = {o.drill: o for o in report.outcomes}
        # every admitted well-formed request completed correctly...
        baseline = by_drill["baseline_no_fault"]
        assert baseline.correct == baseline.requests
        # ...the corrupted-payload victim failed typed, its peers completed
        flip = by_drill["ciphertext_bit_flip"]
        assert flip.typed_failures == 1
        assert flip.correct == flip.requests - 1
        # ...and table corruption healed by reroute, not by luck
        for drill in (
            "four_step_table_corruption",
            "vetted_table_corruption",
            "gemm_output_perturbation",
        ):
            outcome = by_drill[drill]
            assert outcome.correct == outcome.requests, outcome.errors
        _assert_four_step_drill_events(by_drill)

    def test_prepare_work_flips_victim_payload(self):
        registry = TenantRegistry()
        clients = build_tenants(registry, ("solo",))
        work = prepare_work(
            clients,
            requests=2,
            rng=np.random.default_rng(1),
            corrupt_payload_index=1,
        )
        healthy, corrupted = work[0][3], work[1][3]
        modulus = corrupted.c0.basis.moduli[0]
        assert int(corrupted.c0.residues[0, 0]) >= modulus
        assert int(healthy.c0.residues[0, 0]) < modulus


# ---------------------------------------------------------------------------
# The ticket lifecycle as a state machine
# ---------------------------------------------------------------------------

_STATUS_RANK = {"queued": 0, "running": 1, "completed": 2, "failed": 2}


def _echo(session, payload):
    return payload


def _refuse_stacks(session, payload):
    """Echo a single ciphertext; refuse a stacked batch, so it splits."""
    if batch_size(payload) > 1:
        raise ParameterError("this circuit refuses stacked input")
    return payload


class TicketLifecycle(RuleBasedStateMachine):
    """Submit / deadline / cancel / drain interleavings on a live server.

    Every ticket moves ``queued -> running -> completed|failed`` and is
    finalised exactly once -- one ``request_served`` / ``request_failed``
    event, even when its batch splits -- and a drain leaves nothing behind.
    """

    def __init__(self, registry, payloads):
        super().__init__()
        self.registry = registry
        self.payloads = payloads
        self.server = None
        self.tickets = []
        self.seen = {}
        self.drained = False

    @initialize(max_batch_size=st.sampled_from((1, 4)))
    def start(self, max_batch_size):
        diagnostics.clear_events()
        self.server = InferenceServer(
            self.registry,
            workers=2,
            queue_capacity=64,
            max_batch_size=max_batch_size,
            max_batch_wait_s=0.02,
        ).start()

    def _submit(self, keyed, circuit, timeout_s=None):
        payload = self.payloads[len(self.tickets) % len(self.payloads)]
        self.tickets.append(
            self.server.submit(
                InferenceRequest(
                    "alice",
                    circuit,
                    payload=payload,
                    timeout_s=timeout_s,
                    batch_key=circuit.__name__ if keyed else None,
                )
            )
        )

    @precondition(lambda self: not self.drained)
    @rule(
        keyed=st.booleans(),
        circuit=st.sampled_from((_echo, _refuse_stacks)),
        copies=st.integers(1, 4),
    )
    def submit(self, keyed, circuit, copies):
        for _ in range(copies):
            self._submit(keyed, circuit)

    @precondition(lambda self: not self.drained)
    @rule(keyed=st.booleans(), timeout_s=st.sampled_from((0.0005, 0.002, 0.01)))
    def submit_short_timeout(self, keyed, timeout_s):
        self._submit(keyed, _echo, timeout_s)

    @precondition(lambda self: self.tickets)
    @rule(data=st.data())
    def cancel(self, data):
        data.draw(st.sampled_from(self.tickets)).cancel("state machine")

    @rule()
    def pause(self):
        time.sleep(0.002)

    @precondition(lambda self: not self.drained)
    @rule()
    def drain(self):
        assert self.server.drain(timeout=10.0)
        self.drained = True
        self._check_drained()

    @invariant()
    def status_only_moves_forward(self):
        for ticket in self.tickets:
            done = ticket.done()
            status = ticket.status
            assert not done or _STATUS_RANK[status] == 2
            previous = self.seen.get(ticket.request.request_id, "queued")
            assert _STATUS_RANK[status] >= _STATUS_RANK[previous]
            assert _STATUS_RANK[previous] < 2 or status == previous
            self.seen[ticket.request.request_id] = status

    def _check_drained(self):
        assert all(ticket.done() for ticket in self.tickets)
        assert not self.server._outstanding
        assert self.server.served + self.server.failed == len(self.tickets)
        finalised = Counter(
            event["request_id"]
            for event in diagnostics.events()
            if event["kind"] in ("request_served", "request_failed")
        )
        assert finalised == Counter(t.request.request_id for t in self.tickets)
        for ticket in self.tickets:
            if ticket.status == "completed":
                result, payload = ticket.result(), ticket.request.payload
                assert np.array_equal(result.c0.residues, payload.c0.residues)
                assert np.array_equal(result.c1.residues, payload.c1.residues)

    def teardown(self):
        if self.server is None:
            return
        if not self.drained:
            assert self.server.drain(timeout=10.0)
            self._check_drained()
        self.server.shutdown()


def test_ticket_lifecycle_state_machine(registry_and_clients):
    registry, clients = registry_and_clients
    client = clients[0]
    rng = np.random.default_rng(31)
    payloads = [
        client.encrypt_features(rng.uniform(-1, 1, client.params.slot_count))
        for _ in range(3)
    ]
    run_state_machine_as_test(
        lambda: TicketLifecycle(registry, payloads),
        settings=settings(
            max_examples=50,
            stateful_step_count=20,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


# ---------------------------------------------------------------------------
# Worker-fault interleavings through the one retry loop
# ---------------------------------------------------------------------------

#: What one scripted dispatch does; an exhausted script means ``ok``.  The
#: shard deaths are the supervisor's own verdicts for a reaped exit status:
#: ``kill`` a shard exiting with code 13, ``outside_kill`` a SIGKILL.
_SCRIPTED_FAULTS = {
    "kill": lambda: _death(ShardHandle(0), 13, "exited"),
    "hang": lambda: WorkerUnresponsive("scripted hang"),
    "outside_kill": lambda: _death(ShardHandle(0), -signal.SIGKILL, "exited"),
    "undelivered": lambda: WorkerCrashed(
        "scripted dead pipe", request_fault=False
    ),
    "exactness": lambda: BackendExactnessError("scripted sentinel"),
    "terminal": lambda: ParameterError("scripted refusal"),
}
_OUTCOMES = st.sampled_from(("ok", *_SCRIPTED_FAULTS))
_KILLS = ("kill", "hang")


def _solo_verdict(script, max_attempts):
    """``(error type or None, attempts)`` of a unit served alone.

    The retry loop's contract, restated: the second kill the request can own
    poisons (before the retry budget is consulted), an outside SIGKILL or an
    undelivered frame is an attempt but never a kill, a terminal error is
    not retried, and retryable faults run until ``max_attempts``.
    """
    kills = 0
    outcomes = itertools.chain(script, itertools.repeat("ok"))
    for attempt, outcome in enumerate(outcomes, start=1):
        if outcome == "ok":
            return None, attempt
        kills += outcome in _KILLS
        if kills == 2:
            return PoisonRequest, attempt
        if outcome == "terminal" or attempt == max_attempts:
            return type(_SCRIPTED_FAULTS[outcome]()), attempt


class FaultInterleavings(RuleBasedStateMachine):
    """Scripted worker faults against a thread-mode server, no processes.

    The server's executor is a fake that pops each unit's next scripted
    outcome per dispatch (requests and ``batch-<leader>`` units have
    separate scripts), so every interleaving of kill, hang, undelivered
    frame, outside SIGKILL, backend fault and terminal error reaches
    ``_serve``'s one retry loop exactly as a shard's verdicts would.
    """

    def __init__(self, registry, payloads):
        super().__init__()
        self.registry = registry
        self.payloads = payloads
        self.server = None
        self.tickets = []
        self.scripts = {}
        self.solo_scripts = {}
        self.dispatches = []
        self.lock = threading.Lock()

    @initialize(
        max_batch_size=st.sampled_from((1, 4)),
        max_attempts=st.sampled_from((2, 3)),
    )
    def start(self, max_batch_size, max_attempts):
        diagnostics.clear_events()
        self.max_attempts = max_attempts
        self.quarantined = ntt_engine.quarantined_backends()
        self.server = InferenceServer(
            self.registry,
            workers=2,
            queue_capacity=64,
            retry_policy=RetryPolicy(
                max_attempts=max_attempts, base_delay_s=5e-4, max_delay_s=1e-3
            ),
            max_batch_size=max_batch_size,
            max_batch_wait_s=0.01,
        ).start()
        self.server._execute = self._execute

    def _execute(self, *, request_id, tenant_id, circuit, payload, scope):
        with self.lock:
            script = self.scripts.setdefault(request_id, [])
            outcome = script.pop(0) if script else "ok"
            self.dispatches.append((request_id, outcome))
        if outcome == "ok":
            return payload, {}
        raise _SCRIPTED_FAULTS[outcome]()

    @rule(
        solo=st.lists(_OUTCOMES, max_size=4),
        batch=st.lists(_OUTCOMES, max_size=2),
        keyed=st.booleans(),
        copies=st.integers(1, 3),
    )
    def submit(self, solo, batch, keyed, copies):
        for _ in range(copies):
            payload = self.payloads[len(self.tickets) % len(self.payloads)]
            request = InferenceRequest(
                "alice", _echo, payload=payload,
                batch_key="scripted" if keyed else None,
            )
            with self.lock:
                self.scripts[request.request_id] = list(solo)
                self.scripts[f"batch-{request.request_id}"] = list(batch)
            self.solo_scripts[request.request_id] = list(solo)
            self.tickets.append(self.server.submit(request))

    @rule()
    def pause(self):
        time.sleep(0.002)

    def teardown(self):
        if self.server is None:
            return
        assert self.server.drain(timeout=10.0)
        self.server.shutdown()
        self._check()

    def _check(self):
        by_unit = {}
        for unit, outcome in self.dispatches:
            by_unit.setdefault(unit, []).append(outcome)
        events = diagnostics.events()
        # Every ticket is finalised exactly once.
        finalised = Counter(
            event["request_id"]
            for event in events
            if event["kind"] in ("request_served", "request_failed")
        )
        assert finalised == Counter(t.request.request_id for t in self.tickets)
        for unit, outcomes in by_unit.items():
            # Attempts are bounded, a batch never retries, and nothing is
            # dispatched after its second kill.
            assert len(outcomes) <= self.max_attempts
            if unit.startswith("batch-"):
                assert len(outcomes) == 1
            kills = [i for i, outcome in enumerate(outcomes) if outcome in _KILLS]
            assert len(kills) <= 2
            if len(kills) == 2:
                assert kills[1] == len(outcomes) - 1
        # Outside kills and undelivered frames never poison: every poisoned
        # unit saw two kills it could own.
        for event in events:
            if event["kind"] == "request_poisoned":
                outcomes = by_unit[event["request_id"]]
                assert sum(outcome in _KILLS for outcome in outcomes) == 2
        # No scripted fault touches a backend quarantine.
        assert ntt_engine.quarantined_backends() == self.quarantined
        for ticket in self.tickets:
            request_id = ticket.request.request_id
            attempts = ticket.diagnostics["attempts"]
            assert attempts <= self.max_attempts
            if ticket.diagnostics.get("batched"):
                assert ticket.status == "completed"
            else:
                # A ticket not served by its batch ran alone, exactly as a
                # solo request with its own script would have.
                error, expected_attempts = _solo_verdict(
                    self.solo_scripts[request_id], self.max_attempts
                )
                assert len(by_unit[request_id]) == expected_attempts
                assert attempts == expected_attempts
                assert type(ticket.error) is (error or type(None))
            if ticket.status == "completed":
                result, payload = ticket.result(), ticket.request.payload
                assert np.array_equal(result.c0.residues, payload.c0.residues)
                assert np.array_equal(result.c1.residues, payload.c1.residues)


def test_fault_interleavings_state_machine(registry_and_clients):
    registry, clients = registry_and_clients
    client = clients[0]
    rng = np.random.default_rng(37)
    payloads = [
        client.encrypt_features(rng.uniform(-1, 1, client.params.slot_count))
        for _ in range(3)
    ]
    run_state_machine_as_test(
        lambda: FaultInterleavings(registry, payloads),
        settings=settings(
            max_examples=40,
            stateful_step_count=12,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


@pytest.mark.parametrize(
    "script, error, attempts",
    [(("outside_kill", "outside_kill"), None, 3), (("kill", "kill"), PoisonRequest, 2)],
)
def test_only_kills_the_request_owns_poison(
    registry_and_clients, script, error, attempts
):
    """Two outside SIGKILLs under one request cost two retried attempts and
    poison nothing; two exits of the shard's own (code 13) poison it."""
    registry, clients = registry_and_clients
    client = clients[0]
    payload = client.encrypt_features(np.zeros(client.params.slot_count))
    verdicts = [_SCRIPTED_FAULTS[outcome]() for outcome in script]

    def execute(*, request_id, tenant_id, circuit, payload, scope):
        if verdicts:
            raise verdicts.pop(0)
        return payload, {}

    with InferenceServer(
        registry,
        workers=1,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_s=5e-4, max_delay_s=1e-3
        ),
    ) as server:
        server._execute = execute
        ticket = server.submit(
            InferenceRequest(client.tenant_id, _echo, payload=payload)
        )
        assert ticket.wait(10.0)
    assert ticket.diagnostics["attempts"] == attempts
    assert type(ticket.error) is (error or type(None))
    assert server.poisoned == (error is not None)
