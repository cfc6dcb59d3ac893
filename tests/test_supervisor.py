"""Process-isolated sharding tests: specs, framing, supervision, chaos.

The supervision tree's contract (ISSUE 10): worker processes are a fault
domain -- a SIGKILL, hang, or poison payload costs at most the victim
request (typed) while every other in-flight request completes bit-exact
against a solo-served oracle, and the dead shard restarts and passes
``ready()`` within the backoff budget.  A payload that kills workers twice
is quarantined as :class:`~repro.errors.PoisonRequest` without a third
crash.
"""

import gc
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro import diagnostics, parallel
from repro.errors import (
    ParameterError,
    PoisonRequest,
    ReproError,
    ServingError,
    WorkerCrashed,
    WorkerUnresponsive,
)
from repro.poly import ntt_engine
from repro.serving import (
    InferenceRequest,
    InferenceServer,
    TenantRegistry,
    TenantSpec,
    is_retryable,
)
from repro.serving import supervisor as supervisor_module
from repro.serving.shard import (
    FRAME_MAGIC,
    _FRAME_HEADER,
    in_worker,
    recv_frame,
    send_frame,
)
from repro.testing.chaos import (
    BatchCrashCircuit,
    LinearSquareCircuit,
    PoisonPill,
    build_tenants,
    prepare_work,
    run_process_chaos,
)


@pytest.fixture(autouse=True)
def _clean_dispatch():
    yield
    ntt_engine.clear_quarantine()
    ntt_engine.reset_sentinels()


# ---------------------------------------------------------------------------
# TenantSpec: picklable seed material, deterministic re-derivation
# ---------------------------------------------------------------------------


class TestTenantSpec:
    def test_spec_is_picklable(self):
        spec = TenantSpec("alice", degree=64, limbs=4, dnum=2, key_seed=5)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_keygen_is_deterministic(self):
        spec = TenantSpec(
            "alice", degree=64, limbs=4, log_q=28, dnum=2,
            scale_bits=20, key_seed=5,
        )
        first = spec.keygen()
        second = spec.keygen()
        np.testing.assert_array_equal(
            first.secret_key.coefficients, second.secret_key.coefficients
        )

    def test_build_keys_is_deterministic(self):
        # The worker re-derives relin/galois keys from the seed on every
        # (re)boot; key material depends on rng draw *order*, so two builds
        # must agree residue for residue.
        spec = TenantSpec(
            "bob", degree=64, limbs=4, log_q=28, dnum=2,
            scale_bits=20, key_seed=9, galois_steps=(1,),
        )
        params = spec.build_params()
        relin_a, galois_a = spec.build_keys(params)
        relin_b, galois_b = spec.build_keys(params)
        np.testing.assert_array_equal(relin_a.stacks, relin_b.stacks)
        for exponent, key in galois_a.keys.items():
            np.testing.assert_array_equal(key.stacks, galois_b.keys[exponent].stacks)
        assert galois_a.keys.keys() == galois_b.keys.keys()

    def test_registry_register_spec_builds_session(self):
        registry = TenantRegistry()
        spec = TenantSpec("carol", degree=64, limbs=4, dnum=2, key_seed=3)
        registry.register_spec(spec)
        assert registry.session("carol").params.degree == 64
        assert registry.specs() == [spec]
        registry.remove("carol")
        assert registry.specs() == []

    def test_distinct_seeds_distinct_secrets(self):
        one = TenantSpec("t", degree=64, limbs=4, dnum=2, key_seed=1).keygen()
        two = TenantSpec("t", degree=64, limbs=4, dnum=2, key_seed=2).keygen()
        assert not np.array_equal(
            one.secret_key.coefficients, two.secret_key.coefficients
        )


# ---------------------------------------------------------------------------
# Length-prefixed framing over pipes
# ---------------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        parent, child = multiprocessing.Pipe()
        try:
            send_frame(parent, "request", {"request_id": "r1", "n": 7})
            kind, payload = recv_frame(child, timeout=2.0)
            assert kind == "request"
            assert payload == {"request_id": "r1", "n": 7}
        finally:
            parent.close()
            child.close()

    def test_timeout_returns_none(self):
        parent, child = multiprocessing.Pipe()
        try:
            assert recv_frame(child, timeout=0.05) is None
        finally:
            parent.close()
            child.close()

    def test_closed_pipe_raises_eof(self):
        parent, child = multiprocessing.Pipe()
        parent.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(child, timeout=1.0)
        finally:
            child.close()

    def test_bad_magic_rejected(self):
        parent, child = multiprocessing.Pipe()
        try:
            body = pickle.dumps(("request", {}))
            parent.send_bytes(_FRAME_HEADER.pack(b"XX", len(body)) + body)
            with pytest.raises(ReproError, match="magic"):
                recv_frame(child, timeout=2.0)
        finally:
            parent.close()
            child.close()

    def test_truncated_frame_rejected(self):
        parent, child = multiprocessing.Pipe()
        try:
            body = pickle.dumps(("request", {}))
            parent.send_bytes(
                _FRAME_HEADER.pack(FRAME_MAGIC, len(body) + 10) + body
            )
            with pytest.raises(ReproError, match="length mismatch"):
                recv_frame(child, timeout=2.0)
        finally:
            parent.close()
            child.close()


# ---------------------------------------------------------------------------
# Error taxonomy additions (satellite: retryability classifications)
# ---------------------------------------------------------------------------


class TestSupervisionErrors:
    def test_hierarchy(self):
        for cls in (WorkerCrashed, WorkerUnresponsive, PoisonRequest):
            assert issubclass(cls, ServingError)
            assert issubclass(cls, ReproError)
        assert issubclass(WorkerUnresponsive, TimeoutError)

    def test_retryability(self):
        # Crash/hang: the request may be innocent -- re-dispatch it.
        assert is_retryable(WorkerCrashed("shard died"))
        assert is_retryable(WorkerUnresponsive("heartbeats stopped"))
        # Two kills: the request is the fault -- quarantine, never retry.
        assert not is_retryable(PoisonRequest("killed two workers"))


# ---------------------------------------------------------------------------
# Process-mode server lifecycle
# ---------------------------------------------------------------------------


class TestProcessServer:
    def test_invalid_mode_rejected(self):
        registry = TenantRegistry()
        with pytest.raises(ParameterError, match="workers_mode"):
            InferenceServer(registry, workers=2, workers_mode="fibers")

    def test_process_mode_requires_specs(self):
        registry = TenantRegistry()
        clients = build_tenants(registry, ("alice",))
        # A tenant registered without a spec cannot be rebuilt in a worker.
        session = registry.session("alice")
        registry._specs.pop("alice")
        assert session is not None
        server = InferenceServer(registry, workers=2, workers_mode="process")
        with pytest.raises(ParameterError, match="alice"):
            server.start()

    def test_serves_bit_exact_and_reports_shards(self, monkeypatch):
        # Two shards on two cores: each shard's requests get one core.
        monkeypatch.setattr(parallel, "available_cores", lambda: 2)
        registry = TenantRegistry()
        clients = build_tenants(registry, ("alice", "bob"))
        rng = np.random.default_rng(3)
        work = prepare_work(clients, requests=4, rng=rng)
        oracles = {
            index: LinearSquareCircuit(client.weights, client.bias)(
                registry.session(client.tenant_id), ciphertext
            )
            for index, client, _, ciphertext in work
        }
        with InferenceServer(
            registry,
            workers=2,
            workers_mode="process",
            default_timeout_s=60.0,
            supervisor_options={"heartbeat_interval_s": 0.1},
        ) as server:
            assert server.ready()
            health = server.health()
            assert health["workers_mode"] == "process"
            assert health["core_budget"] is None  # reported per shard
            shard_stats = health["shards"]["shards"]
            assert len(shard_stats) == 2
            for stats in shard_stats.values():
                assert stats["state"] in {"ready", "busy"}
                assert stats["pid"] is not None
                assert stats["core_budget"] == 1

            tickets = [
                (
                    index,
                    server.submit(
                        InferenceRequest(
                            client.tenant_id,
                            LinearSquareCircuit(client.weights, client.bias),
                            payload=ciphertext,
                        )
                    ),
                )
                for index, client, _, ciphertext in work
            ]
            for index, ticket in tickets:
                result = ticket.result(timeout=60.0)
                oracle = oracles[index]
                np.testing.assert_array_equal(
                    result.c0.residues, oracle.c0.residues
                )
                np.testing.assert_array_equal(
                    result.c1.residues, oracle.c1.residues
                )
                # Worker-side metadata rode back with the reply.
                assert ticket.diagnostics["shard"].startswith("shard-")
                assert ticket.diagnostics["shard_pid"] is not None
        # Shutdown tore the supervisor down.
        assert server.supervisor is None or not server.supervisor.ready()


class TestProcessBatching:
    """A stacked batch through one shard: every member is a full citizen."""

    def _run_batch(self, circuit_type, **supervisor_options):
        """Serve three coalesced requests on one shard; return the tickets,
        their solo oracles and the supervisor counters."""
        registry = TenantRegistry()
        client = build_tenants(registry, ("alice",))[0]
        work = prepare_work([client], requests=3, rng=np.random.default_rng(4))
        session = registry.session(client.tenant_id)
        oracles = [client.circuit(session, ct) for _, _, _, ct in work]
        circuit = circuit_type(client.weights, client.bias)
        with InferenceServer(
            registry,
            workers=1,
            workers_mode="process",
            default_timeout_s=60.0,
            max_batch_size=len(work),
            max_batch_wait_s=5.0,
            supervisor_options={"heartbeat_interval_s": 0.1, **supervisor_options},
        ) as server:
            tickets = [
                server.submit(
                    InferenceRequest(
                        client.tenant_id, circuit, payload=ct, batch_key="stream"
                    )
                )
                for _, _, _, ct in work
            ]
            results = [ticket.result(timeout=60.0) for ticket in tickets]
            counters = server.health()["shards"]["counters"]
        for result, oracle in zip(results, oracles):
            np.testing.assert_array_equal(
                result.c0.to_coeff().residues, oracle.c0.to_coeff().residues
            )
            np.testing.assert_array_equal(
                result.c1.to_coeff().residues, oracle.c1.to_coeff().residues
            )
        return tickets, counters

    def test_every_member_reports_its_shard(self):
        tickets, counters = self._run_batch(LinearSquareCircuit)
        for ticket in tickets:
            assert ticket.diagnostics["batched"] is True
            assert ticket.diagnostics["batch_size"] == len(tickets)
            assert ticket.diagnostics["shard"] == "shard-0"
            assert ticket.diagnostics["shard_pid"] is not None
        assert counters["crashes"] == 0

    def test_poisoned_batch_spares_its_innocent_members(self):
        # A batch never retries: the stacked call kills the shard once and
        # falls back, and every member, the leader included, then completes
        # served alone (bit-exact, checked by _run_batch).  No id is
        # poisoned.
        tickets, counters = self._run_batch(
            BatchCrashCircuit, restart_backoff_s=0.01
        )
        assert counters["crashes"] == 1
        assert counters["poisoned"] == 0
        assert counters["poisoned_requests"] == []
        assert counters["redispatches"] == 0
        for ticket in tickets:
            assert "batched" not in ticket.diagnostics
            assert ticket.diagnostics["attempts"] == 1
            assert ticket.diagnostics["shard_pid"] is not None


@dataclass
class CrashThenRefuse:
    """Kill the shard on the first run (leaving ``marker``); refuse the next."""

    marker: str

    def __call__(self, session, payload):
        if in_worker() and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(13)
        raise ParameterError("refused on the re-dispatch")


class TestRedispatch:
    """The server's retry loop owns re-dispatch and poison, per request."""

    @staticmethod
    def _server(registry):
        return InferenceServer(
            registry,
            workers=2,
            workers_mode="process",
            default_timeout_s=60.0,
            supervisor_options={
                "heartbeat_interval_s": 0.1,
                "restart_backoff_s": 0.01,
            },
        )

    def test_kill_then_typed_failure_leaves_no_kill_state(self, tmp_path):
        registry = TenantRegistry()
        build_tenants(registry, ("alice",))
        circuit = CrashThenRefuse(str(tmp_path / "crashed"))
        with self._server(registry) as server:
            ticket = server.submit(InferenceRequest("alice", circuit))
            with pytest.raises(ParameterError):
                ticket.result(timeout=60.0)
            request_id = ticket.request.request_id
            for holder in (server, server.supervisor):
                assert not any(
                    isinstance(value, dict) and request_id in value
                    for value in vars(holder).values()
                ), f"{type(holder).__name__} still holds {request_id}"
            counters = server.health()["shards"]["counters"]
        assert ticket.diagnostics["attempts"] == 2
        assert counters["crashes"] == 1
        assert counters["redispatches"] == 1
        assert counters["poisoned"] == 0

    def test_undelivered_frames_retry_and_never_poison(self, monkeypatch):
        registry = TenantRegistry()
        client = build_tenants(registry, ("alice",))[0]
        work = prepare_work([client], requests=1, rng=np.random.default_rng(5))
        ciphertext = work[0][3]
        oracle = client.circuit(registry.session("alice"), ciphertext)
        drops = [BrokenPipeError(), BrokenPipeError()]

        def flaky_send(conn, kind, payload):
            if kind == "request" and drops:
                raise drops.pop()
            send_frame(conn, kind, payload)

        with self._server(registry) as server:
            monkeypatch.setattr(supervisor_module, "send_frame", flaky_send)
            ticket = server.submit(
                InferenceRequest("alice", client.circuit, payload=ciphertext)
            )
            result = ticket.result(timeout=60.0)
            counters = server.health()["shards"]["counters"]
        np.testing.assert_array_equal(result.c0.residues, oracle.c0.residues)
        np.testing.assert_array_equal(result.c1.residues, oracle.c1.residues)
        # Two undelivered frames are two attempts, not two kills.
        assert ticket.diagnostics["attempts"] == 3
        assert counters["crashes"] == 2
        assert counters["redispatches"] == 0
        assert counters["poisoned"] == 0

    def test_resubmitted_poison_fails_typed_without_dispatch(self):
        registry = TenantRegistry()
        build_tenants(registry, ("alice",))
        with self._server(registry) as server:
            first = server.submit(
                InferenceRequest("alice", _echo, PoisonPill(), request_id="pill")
            )
            with pytest.raises(PoisonRequest):
                first.result(timeout=60.0)
            crashes = server.health()["shards"]["counters"]["crashes"]
            again = server.submit(
                InferenceRequest("alice", _echo, PoisonPill(), request_id="pill")
            )
            with pytest.raises(PoisonRequest, match="quarantined"):
                again.result(timeout=60.0)
            counters = server.health()["shards"]["counters"]
        assert crashes == 2
        assert counters["crashes"] == crashes
        assert counters["poisoned"] == 1
        assert counters["poisoned_requests"] == ["pill"]
        assert again.diagnostics["attempts"] == 0


def _echo(session, payload):
    return payload


@dataclass
class QuarantineOnce:
    """Serve ``inner``; on the first run in a shard (leaving ``marker``),
    then quarantine four_step inside that shard."""

    marker: str
    inner: LinearSquareCircuit

    def __call__(self, session, payload):
        result = self.inner(session, payload)
        if in_worker() and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            ntt_engine.quarantine_backend(
                ntt_engine.BACKEND_FOUR_STEP, reason="shard-side drill"
            )
        return result


class TestShardQuarantine:
    def test_shard_reports_and_heals_its_own_quarantine(
        self, tmp_path, monkeypatch
    ):
        """A quarantine inside a shard shows in that shard's tickets and in
        ``health()``, then lapses in the shard after the cooldown."""
        # Auto dispatch, in the shard too: it inherits the environment.
        monkeypatch.delenv("REPRO_NTT_BACKEND", raising=False)
        registry = TenantRegistry()
        client = build_tenants(registry, ("alice",))[0]
        work = prepare_work([client], requests=3, rng=np.random.default_rng(9))
        circuit = QuarantineOnce(str(tmp_path / "quarantined"), client.circuit)
        diagnostics.clear_events()
        with InferenceServer(
            registry,
            workers=1,
            workers_mode="process",
            default_timeout_s=60.0,
            supervisor_options={"heartbeat_interval_s": 0.1},
        ) as server:

            def serve(index):
                _, _, features, ciphertext = work[index]
                ticket = server.submit(
                    InferenceRequest("alice", circuit, payload=ciphertext)
                )
                decoded = client.decode(ticket.result(timeout=60.0))
                assert np.abs(decoded - client.expected(features)).max() < 1e-3
                return ticket.diagnostics["backend"], server.health()

            backend, health = serve(0)
            assert backend == ntt_engine.BACKEND_FOUR_STEP
            backend, health = serve(1)
            assert backend == ntt_engine.BACKEND_REFERENCE
            assert health["status"] == "degraded"
            assert health["quarantined_backends"] == [ntt_engine.BACKEND_FOUR_STEP]
            assert health["shards"]["shards"]["shard-0"]["quarantined"] == [
                ntt_engine.BACKEND_FOUR_STEP
            ]
            time.sleep(ntt_engine.QUARANTINE_COOLDOWN_S + 0.3)
            backend, health = serve(2)
        assert backend == ntt_engine.BACKEND_FOUR_STEP
        assert health["status"] == "ok"
        assert health["quarantined_backends"] == []
        # The parent's own dispatch was never touched.
        assert not ntt_engine.quarantined_backends()
        for kind in ("backend_quarantined", "backend_quarantine_lifted"):
            (event,) = diagnostics.events(kind)
            assert event["shard"] == "shard-0"


@dataclass
class ChainProbe:
    """Serve ``inner``; in a shard, append to ``log`` the live chains and the
    plan cache's size before and after the request."""

    log: str
    inner: LinearSquareCircuit

    def __call__(self, session, payload):
        cached = len(ntt_engine._STACK_CACHE)
        result = self.inner(session, payload)
        gc.collect()
        if in_worker():
            with open(self.log, "a") as out:
                chains = len(ntt_engine._CHAINS)
                out.write(f"{chains} {cached} {len(ntt_engine._STACK_CACHE)}\n")
        return result


class TestShardChains:
    def test_a_shard_serves_on_its_tenant_chain_alone(self, tmp_path):
        """Requests re-bind their pickled bases to the shard's one interned
        chain: after several requests the shard holds one live chain and its
        plan cache has gained no entries (no second table set is built or
        vetted per request)."""
        registry = TenantRegistry()
        client = build_tenants(registry, ("alice",))[0]
        work = prepare_work([client], requests=4, rng=np.random.default_rng(5))
        log = tmp_path / "chains"
        circuit = ChainProbe(str(log), client.circuit)
        with InferenceServer(
            registry, workers=1, workers_mode="process", default_timeout_s=60.0
        ) as server:
            for _, _, features, ciphertext in work:
                ticket = server.submit(
                    InferenceRequest("alice", circuit, payload=ciphertext)
                )
                decoded = client.decode(ticket.result(timeout=60.0))
                assert np.abs(decoded - client.expected(features)).max() < 1e-3
        rows = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert len(rows) == len(work)
        assert [chains for chains, _, _ in rows] == [1] * len(work)
        assert rows[-1][2] == rows[0][1]


# ---------------------------------------------------------------------------
# Crash containment drills: every run_process_chaos drill but the baseline
# (SIGKILL, poison payload, hang, restart storm)
# ---------------------------------------------------------------------------


class TestProcessChaos:
    def test_sigkill_and_poison_contract(self):
        report = run_process_chaos(
            requests_per_drill=4,
            shards=4,
            seed=11,
            drills=["proc_sigkill_mid_request", "proc_poison_deserialize"],
        )
        assert report.silent == 0, report.summary()
        assert report.hung == 0, report.summary()
        assert report.seed == 11
        by_drill = {o.drill: o for o in report.outcomes}

        # SIGKILL mid-request: the victim was re-dispatched and completed
        # (or failed typed); every completion is bit-exact vs solo; the
        # killed shard restarted and passed ready() within the budget.
        sigkill = by_drill["proc_sigkill_mid_request"]
        assert sigkill.details["kills"] >= 1
        assert sigkill.details["recovered"]
        assert sigkill.correct + sigkill.typed_failures == sigkill.requests
        assert sigkill.details["bit_exact"] == sigkill.correct

        # Poison payload: detonates in the worker's deserialiser, kills the
        # shard twice, then quarantines -- typed PoisonRequest, no third
        # crash, all other requests bit-exact.
        poison = by_drill["proc_poison_deserialize"]
        assert poison.details["crash_kills"] == 2
        assert poison.details["poisoned"] == 1
        assert poison.typed_failures == 1
        assert any("PoisonRequest" in error for error in poison.errors)
        assert poison.correct == poison.requests - 1
        assert poison.details["bit_exact"] == poison.correct
        assert poison.details["recovered"]

    def test_hang_is_killed_twice_then_poisoned(self):
        # The victim wedges every shard it lands on: the heartbeat detector
        # kills two of them, then the request is quarantined typed.
        report = run_process_chaos(
            requests_per_drill=4,
            shards=4,
            seed=11,
            drills=["proc_worker_hang_poison"],
        )
        assert report.silent == 0, report.summary()
        assert report.hung == 0, report.summary()
        hang = report.outcomes[0]
        assert hang.details["hang_kills"] == 2
        assert hang.details["poisoned"] == 1
        assert hang.typed_failures == 1
        assert any("PoisonRequest" in error for error in hang.errors)
        assert hang.correct == hang.requests - 1
        assert hang.details["bit_exact"] == hang.correct
        assert hang.details["recovered"]

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_restart_storm_poisons_nothing(self, seed):
        """Outside SIGKILLs never make a request poison, however often they
        land on it."""
        report = run_process_chaos(seed=seed, drills=["proc_restart_storm"])
        assert report.silent == 0, report.summary()
        assert report.hung == 0, report.summary()
        storm = report.outcomes[0]
        assert not any("PoisonRequest" in error for error in storm.errors)
        assert storm.correct + storm.typed_failures == storm.requests

    def test_restart_storm_loses_nothing(self):
        report = run_process_chaos(
            requests_per_drill=4,
            shards=4,
            seed=11,
            drills=["proc_restart_storm"],
        )
        assert report.silent == 0, report.summary()
        assert report.hung == 0, report.summary()
        storm = report.outcomes[0]
        assert storm.details["recovered"]
        assert storm.correct + storm.typed_failures == storm.requests
        assert storm.details.get("bit_exact", 0) == storm.correct
