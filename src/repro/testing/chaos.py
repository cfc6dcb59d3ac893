"""Chaos harness: replay every fault drill *under concurrent serving load*.

PR 6's :mod:`repro.testing.faults` drills prove the guardrail contract for a
single-threaded caller.  This module replays each drill against a live
:class:`~repro.serving.runtime.InferenceServer` with many requests in
flight, which is where resilience claims usually die: a fault now lands
while other threads share the plan caches, the quarantine set and the
dispatch epoch.  The drilled property is the serving contract:

    every admitted, well-formed request either **completes with a
    decode-checked correct result** (possibly after retry/reroute) or
    **fails with a typed** :class:`~repro.errors.ReproError` --
    zero silent corruption, zero hangs.

The harness owns the client side the server never sees (secret keys,
decryptors, plaintext expectations): results are decrypted and compared
against the plaintext model, so "completed" is claimed only for verified
slots.  Strict mode plus a spot-check stride of 1 is forced for the whole
run -- with per-pass known-answer checks active, a half-restored table can
never slip a wrong transform through unnoticed, even at drill boundaries.

Used by ``tests/test_serving.py`` and the ``bench_serving_load.py`` CI gate
(``silent == 0`` and ``hung == 0``).
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import diagnostics
from repro.ckks.batch import batch_size
from repro.ckks.encoding import CkksEncoder
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.params import CkksParameters
from repro.errors import ReproError
from repro.poly import ntt_engine
from repro.poly.gemm_mod import set_strict
from repro.serving import (
    CircuitBreaker,
    InferenceRequest,
    InferenceServer,
    RetryPolicy,
    TenantRegistry,
    TenantSpec,
)
from repro.serving import shard as shard_module
from repro.testing.faults import (
    calibration_lie,
    corrupted_butterfly_tables,
    corrupted_four_step_tables,
    perturbed_gemm_outputs,
)
from repro.workloads import run_encrypted_linear_layer

__all__ = [
    "BatchCrashCircuit",
    "ChaosOutcome",
    "ChaosReport",
    "ClientTenant",
    "HangCircuit",
    "LinearSquareCircuit",
    "PoisonPill",
    "build_tenants",
    "prepare_work",
    "run_chaos",
    "run_process_chaos",
]

#: Ring small enough for fast drills, wide enough that four_step dispatches.
DEGREE = 64
LIMBS = 4
SCALE_BITS = 26
#: Per-ticket watchdog: a request not finished by then counts as *hung* --
#: the gate treats that exactly as badly as silent corruption.
WATCHDOG_S = 60.0


@dataclass
class LinearSquareCircuit:
    """score = (w * x + b)^2 -- the example's model, as a picklable callable.

    A plain dataclass over numpy arrays (no encoder, no locks) so process
    mode can ship it over the shard pipe.  ``delay_s`` stalls before the
    compute -- the chaos drills use it to hold a fault window open long
    enough to SIGKILL a provably mid-request worker.
    """

    weights: np.ndarray
    bias: np.ndarray
    delay_s: float = 0.0

    def __call__(self, session, payload):
        if self.delay_s > 0.0:
            time.sleep(self.delay_s)
        linear = run_encrypted_linear_layer(
            session.evaluator, session.encoder, payload, self.weights, self.bias
        )
        return session.evaluator.rescale(session.evaluator.square(linear))


@dataclass
class HangCircuit:
    """Chaos circuit: wedge the worker it runs on (hang drill).

    Inside a shard it suppresses the heartbeat thread and stalls, faking a
    genuinely wedged process; the supervisor's missed-heartbeat detector
    must kill it.  Re-dispatched by the server, it wedges the next worker
    too -- so the poison-quarantine path (two kills ->
    :class:`PoisonRequest`) is exactly what ends the drill.  In the parent
    (thread mode) it is a no-op pass-through, so misusing it cannot hang
    the harness itself.
    """

    hold_s: float = WATCHDOG_S

    def __call__(self, session, payload):
        if shard_module.in_worker():
            shard_module.suppress_heartbeats(True)
            time.sleep(self.hold_s)
        return payload


class BatchCrashCircuit(LinearSquareCircuit):
    """Chaos circuit: :class:`LinearSquareCircuit` that kills any shard
    handed a stacked batch.

    A batch of one computes normally, so a batch it kills must end with
    every member served bit-exact once re-served alone -- after one crash,
    since a batch never retries, and with no id poisoned.
    """

    def __call__(self, session, payload):
        if shard_module.in_worker() and batch_size(payload) > 1:
            os._exit(13)
        return super().__call__(session, payload)


def _detonate_poison():
    """Unpickle hook of :class:`PoisonPill`: die -- but only inside a shard."""
    if shard_module.in_worker():
        os._exit(13)
    return PoisonPill()


class PoisonPill:
    """A payload that crashes any *worker* that deserialises it.

    ``__reduce__`` routes unpickling through :func:`_detonate_poison`, which
    ``os._exit``\\ s only when running inside a shard process -- the parent
    can pickle and re-pickle the pill safely, which is what lets the
    server re-dispatch it and prove the two-kills-then-quarantine rule.
    """

    def __reduce__(self):
        return (_detonate_poison, ())


@dataclass
class ClientTenant:
    """The client half of one tenant: secret material + plaintext model.

    Lives only in tests/benches -- the server's
    :class:`~repro.serving.session.TenantSession` never holds any of this.
    """

    tenant_id: str
    params: CkksParameters
    encoder: CkksEncoder
    encryptor: Encryptor
    decryptor: Decryptor
    weights: np.ndarray
    bias: np.ndarray
    #: Picklable server-side circuit (see :class:`LinearSquareCircuit`).
    circuit: LinearSquareCircuit
    #: The spec the registry (and every shard) derived this tenant from.
    spec: TenantSpec

    def encrypt_features(self, features: np.ndarray):
        return self.encryptor.encrypt(self.encoder.encode(features))

    def expected(self, features: np.ndarray) -> np.ndarray:
        return (self.weights * features + self.bias) ** 2

    def decode(self, ciphertext) -> np.ndarray:
        return self.encoder.decode(self.decryptor.decrypt(ciphertext)).real


def build_tenants(
    registry: TenantRegistry,
    tenant_ids=("alice", "bob"),
    *,
    degree: int = DEGREE,
    limbs: int = LIMBS,
    seed: int = 7,
) -> list[ClientTenant]:
    """Register ``tenant_ids`` (via shippable specs) and return client kits.

    Registration goes through :meth:`TenantRegistry.register_spec` so the
    same tenants serve in thread AND process mode: a shard re-derives
    bit-identical evaluation keys from the spec's seed.  The client kit
    builds its own :class:`KeyGenerator` from that seed -- the secret is
    drawn at construction, before any key derivation, so the client's
    decryptor matches the server's evaluation keys regardless of rng call
    order after that point.
    """
    clients = []
    for index, tenant_id in enumerate(tenant_ids):
        spec = TenantSpec(
            tenant_id=tenant_id,
            degree=degree,
            limbs=limbs,
            log_q=28,
            dnum=2,
            scale_bits=SCALE_BITS,
            key_seed=seed + index,
        )
        session = registry.register_spec(spec)
        params = session.params
        keygen = spec.keygen(params)
        rng = np.random.default_rng(100 + index)
        weights = rng.uniform(-1, 1, params.slot_count)
        bias = rng.uniform(-0.2, 0.2, params.slot_count)
        clients.append(
            ClientTenant(
                tenant_id=tenant_id,
                params=params,
                encoder=CkksEncoder(params),
                encryptor=Encryptor(params, keygen.public_key(), keygen),
                decryptor=Decryptor(params, keygen.secret_key),
                weights=weights,
                bias=bias,
                circuit=LinearSquareCircuit(weights=weights, bias=bias),
                spec=spec,
            )
        )
    return clients


@dataclass
class ChaosOutcome:
    """Classification of one drill's request batch."""

    drill: str
    requests: int = 0
    correct: int = 0
    typed_failures: int = 0
    silent: int = 0
    hung: int = 0
    shed: int = 0
    retries: int = 0
    latencies_s: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    #: Drill-specific observations (supervisor counters, recovery verdicts,
    #: bit-exactness counts) surfaced into the bench JSON.
    details: dict = field(default_factory=dict)


@dataclass
class ChaosReport:
    """Aggregate over every drill; ``ok`` is the CI gate predicate.

    ``seed`` is the drill-scheduling / fault-site seed: any failure
    reproduces by re-running the harness with the same seed.
    """

    outcomes: list
    seed: int | None = None

    @property
    def requests(self) -> int:
        return sum(o.requests for o in self.outcomes)

    @property
    def silent(self) -> int:
        return sum(o.silent for o in self.outcomes)

    @property
    def hung(self) -> int:
        return sum(o.hung for o in self.outcomes)

    @property
    def correct(self) -> int:
        return sum(o.correct for o in self.outcomes)

    @property
    def typed_failures(self) -> int:
        return sum(o.typed_failures for o in self.outcomes)

    @property
    def ok(self) -> bool:
        return self.silent == 0 and self.hung == 0

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "correct": self.correct,
            "typed_failures": self.typed_failures,
            "silent": self.silent,
            "hung": self.hung,
            "ok": self.ok,
            "drills": [
                {
                    "drill": o.drill,
                    "requests": o.requests,
                    "correct": o.correct,
                    "typed_failures": o.typed_failures,
                    "silent": o.silent,
                    "hung": o.hung,
                    "retries": o.retries,
                    "errors": o.errors[:4],
                    "details": o.details,
                }
                for o in self.outcomes
            ],
        }


def prepare_work(
    clients: list[ClientTenant],
    *,
    requests: int,
    rng: np.random.Generator,
    corrupt_payload_index: int | None = None,
) -> list:
    """Encrypt ``requests`` payloads interleaved across tenants.

    Must run *before* a fault window opens: the client's own encryption
    shares the process-wide plan caches, and a drill that corrupts them
    would break the harness, not the server under test.  When
    ``corrupt_payload_index`` is set, that request's ciphertext gets one
    payload bit flipped past its modulus (non-canonical residue) -- the
    flip is permanent because the server consumes the ciphertext
    asynchronously; it must surface as a typed failure, never a wrong
    decode.
    """
    work = []
    for index in range(requests):
        client = clients[index % len(clients)]
        features = rng.uniform(-1, 1, client.params.slot_count)
        ciphertext = client.encrypt_features(features)
        if index == corrupt_payload_index:
            original = int(ciphertext.c0.residues[0, 0])
            ciphertext.c0.residues[0, 0] = np.uint64(original ^ (1 << 63))
        work.append((index, client, features, ciphertext))
    return work


def _submit_and_wait(
    server: InferenceServer,
    work: list,
    outcome: ChaosOutcome,
    *,
    batch_key: str | None = None,
    circuits: dict | None = None,
) -> list:
    """Submit every prepared request and wait the tickets out (fault live).

    Returns ``(index, client, features, encrypted_result, latency)`` for the
    completed slots; failures are classified here, decode checks happen in
    :func:`_classify_results` once the fault window has closed.  With
    ``batch_key`` set, every request opts into dynamic batching, so faults
    land mid-batch and the server's sequential fallback is what's drilled.
    """
    tickets = []
    for index, client, features, ciphertext in work:
        circuit = client.circuit
        if circuits is not None and index in circuits:
            circuit = circuits[index]
        try:
            ticket = server.submit(
                InferenceRequest(
                    client.tenant_id,
                    circuit,
                    payload=ciphertext,
                    batch_key=batch_key,
                )
            )
        except ReproError:
            outcome.shed += 1
            continue
        tickets.append((index, client, features, ticket))
    completed = []
    for index, client, features, ticket in tickets:
        outcome.requests += 1
        try:
            result = ticket.result(timeout=WATCHDOG_S)
        except ReproError as exc:
            if ticket.done():
                outcome.typed_failures += 1
                outcome.errors.append(f"req{index}:{type(exc).__name__}")
            else:
                outcome.hung += 1
                outcome.errors.append(f"req{index}:HUNG")
            continue
        except Exception as exc:  # untyped escape = silent-contract breach
            outcome.silent += 1
            outcome.errors.append(f"req{index}:untyped:{type(exc).__name__}")
            continue
        diag = ticket.diagnostics
        latency = diag.get("queue_wait_s", 0.0) + diag.get("service_s", 0.0)
        outcome.retries += max(0, diag.get("attempts", 1) - 1)
        completed.append((index, client, features, result, latency))
    return completed


def _classify_results(
    completed: list,
    outcome: ChaosOutcome,
    *,
    tolerance: float = 1e-3,
    oracles: dict | None = None,
) -> None:
    """Decode completed results against the plaintext model (fault lifted).

    With ``oracles`` (index -> solo-served ciphertext) the bar is raised from
    decode-correct to **bit-exact**: a completed request whose residues
    differ from the solo oracle counts as silent corruption even if it still
    decodes within tolerance.
    """
    for index, client, features, result, latency in completed:
        if oracles is not None and index in oracles:
            oracle = oracles[index]
            if not (
                np.array_equal(result.c0.residues, oracle.c0.residues)
                and np.array_equal(result.c1.residues, oracle.c1.residues)
            ):
                outcome.silent += 1
                outcome.errors.append(f"req{index}:not-bit-exact-vs-solo")
                continue
            outcome.details["bit_exact"] = (
                outcome.details.get("bit_exact", 0) + 1
            )
        decoded = client.decode(result)
        if np.abs(decoded - client.expected(features)).max() <= tolerance:
            outcome.correct += 1
            outcome.latencies_s.append(latency)
        else:
            outcome.silent += 1
            outcome.errors.append(f"req{index}:wrong-decode")


def run_chaos(
    *,
    requests_per_drill: int = 10,
    workers: int = 8,
    seed: int = 7,
    drills: list[str] | None = None,
    max_batch_size: int = 1,
    max_batch_wait_s: float = 0.0,
) -> ChaosReport:
    """Replay every fault drill against a live server under concurrent load.

    ``workers`` is the in-flight concurrency (the acceptance bar is >= 8).
    Each drill gets a fresh server (shared warm plan caches) so breaker and
    quarantine state cannot leak between drills; strict mode + per-pass spot
    checks are forced for the whole run.  ``max_batch_size > 1`` turns on
    dynamic batching and tags every request with a shared batch key, so the
    drills land their faults mid-batch: the serving contract (zero silent,
    zero hung) must hold through the batched path's sequential fallback too.
    """
    registry = TenantRegistry()
    clients = build_tenants(registry, seed=seed)
    rng = np.random.default_rng(seed)
    #: Fault-site / drill-order randomness, deterministic from ``seed`` so a
    #: chaos failure reproduces from the seed printed in the bench JSON.
    rand = random.Random(seed)
    stack = clients[0].params.plan_stack()  # every transform's tables

    def drill_none():
        return nullcontext(), None

    def drill_bit_flip():
        # The flip itself lands in prepare_work on the victim request.
        return nullcontext(), rand.randrange(requests_per_drill)

    def drill_four_step():
        return corrupted_four_step_tables(stack), None

    def drill_butterfly():
        # Force the ladder onto butterfly first, then corrupt it: dispatch
        # must fall through to the reference oracle.
        ntt_engine.quarantine_backend(
            ntt_engine.BACKEND_FOUR_STEP, reason="chaos drill setup"
        )
        return corrupted_butterfly_tables(stack), None

    def drill_gemm():
        return perturbed_gemm_outputs(), None

    def drill_calibration():
        return calibration_lie(), None

    all_drills = [
        ("baseline_no_fault", drill_none),
        ("ciphertext_bit_flip", drill_bit_flip),
        ("four_step_table_corruption", drill_four_step),
        ("butterfly_table_corruption", drill_butterfly),
        ("gemm_output_perturbation", drill_gemm),
        ("calibration_lie", drill_calibration),
    ]
    if drills is not None:
        all_drills = [(n, f) for n, f in all_drills if n in drills]
    else:
        # Baseline always runs first (it warms shared caches for the fault
        # windows); the fault drills run in a seed-determined order so drill
        # interactions are exercised differently -- but reproducibly --
        # across seeds.
        faulted = all_drills[1:]
        rand.shuffle(faulted)
        all_drills = all_drills[:1] + faulted

    previous_strict = set_strict(True)
    previous_stride = os.environ.get("REPRO_NTT_SPOT_STRIDE")
    os.environ["REPRO_NTT_SPOT_STRIDE"] = "1"
    outcomes = []
    try:
        for name, setup in all_drills:
            ntt_engine.clear_quarantine()
            diagnostics.clear_events()
            outcome = ChaosOutcome(drill=name)
            server = InferenceServer(
                registry,
                workers=workers,
                queue_capacity=max(4 * requests_per_drill, 16),
                default_timeout_s=WATCHDOG_S / 2,
                retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.005),
                breaker=CircuitBreaker(cooldown_s=0.2),
                probe_interval_s=0.1,
                rng_seed=seed,
                max_batch_size=max_batch_size,
                max_batch_wait_s=max_batch_wait_s,
            )
            with server:
                context, corrupt_index = setup()
                work = prepare_work(
                    clients,
                    requests=requests_per_drill,
                    rng=rng,
                    corrupt_payload_index=corrupt_index,
                )
                with context:
                    completed = _submit_and_wait(
                        server,
                        work,
                        outcome,
                        batch_key="chaos" if max_batch_size > 1 else None,
                    )
            ntt_engine.clear_quarantine()
            ntt_engine.reset_sentinels()
            _classify_results(completed, outcome)
            if outcome.silent or outcome.hung:
                print(
                    f"[chaos] drill {name} FAILED "
                    f"(silent={outcome.silent} hung={outcome.hung}); "
                    f"reproduce with seed={seed}"
                )
            outcomes.append(outcome)
    finally:
        set_strict(previous_strict)
        if previous_stride is None:
            os.environ.pop("REPRO_NTT_SPOT_STRIDE", None)
        else:
            os.environ["REPRO_NTT_SPOT_STRIDE"] = previous_stride
        ntt_engine.clear_quarantine()
        ntt_engine.reset_sentinels()
    return ChaosReport(outcomes=outcomes, seed=seed)


# ------------------------------------------------------- process-level drills
def _kill_shards(
    server: InferenceServer,
    rand: random.Random,
    done: threading.Event,
    *,
    max_kills: int,
    only_busy: bool,
    interval_s: float = 0.0,
) -> list:
    """Killer thread body: SIGKILL shards while requests are in flight.

    ``only_busy`` targets a shard that provably holds a request (the
    SIGKILL-mid-request drill); otherwise any live shard is fair game (the
    restart storm).  The victim at each step comes from ``rand``, so a
    failing storm replays exactly from the logged seed.
    """
    kills = []
    while len(kills) < max_kills and not done.is_set():
        supervisor = server.supervisor
        if supervisor is None:
            break
        shards = supervisor.stats()["shards"]
        candidates = [
            (name, info)
            for name, info in sorted(shards.items())
            if info["pid"] is not None
            and (
                info["state"] == "busy"
                if only_busy
                else info["state"] in ("ready", "busy")
            )
        ]
        if not candidates:
            done.wait(0.005)
            continue
        name, info = rand.choice(candidates)
        try:
            os.kill(info["pid"], signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            continue  # lost the race with a restart; pick again
        kills.append((name, info["pid"]))
        if interval_s > 0.0:
            done.wait(interval_s)
    return kills


def run_process_chaos(
    *,
    requests_per_drill: int = 8,
    shards: int = 4,
    seed: int = 7,
    drills: list[str] | None = None,
    heartbeat_interval_s: float = 0.1,
    restart_backoff_s: float = 0.1,
) -> ChaosReport:
    """Process-level chaos: SIGKILL, hang, poison payload, restart storm.

    Each drill runs a fresh ``workers_mode="process"`` server with ``shards``
    supervised worker processes and asserts the same serving contract as
    :func:`run_chaos` -- every outcome in {correct, typed}, zero silent, zero
    hung -- with the bar raised for surviving requests: results must be
    **bit-exact** against a solo-served oracle, proving that crash
    containment and re-dispatch never touch the arithmetic.  All fault-site
    choices (victim shard, victim request) draw from one seeded
    ``random.Random`` and the seed rides in the report.
    """
    registry = TenantRegistry()
    clients = build_tenants(registry, seed=seed)
    rng = np.random.default_rng(seed)
    rand = random.Random(seed)

    def make_server() -> InferenceServer:
        return InferenceServer(
            registry,
            workers=shards,
            queue_capacity=max(4 * requests_per_drill, 16),
            default_timeout_s=WATCHDOG_S / 2,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.005),
            breaker=CircuitBreaker(cooldown_s=0.2),
            probe_interval_s=0.1,
            rng_seed=seed,
            workers_mode="process",
            supervisor_options={
                "heartbeat_interval_s": heartbeat_interval_s,
                "heartbeat_miss_limit": 4,
                "restart_backoff_s": restart_backoff_s,
                "restart_backoff_cap_s": 1.0,
            },
        )

    def oracles_for(work, *, skip=(), delay_s: float = 0.0) -> dict:
        """Solo-serve every payload through the parent's own sessions."""
        oracles = {}
        for index, client, features, ciphertext in work:
            if index in skip or isinstance(ciphertext, PoisonPill):
                continue
            session = registry.session(client.tenant_id)
            solo = LinearSquareCircuit(client.weights, client.bias)
            oracles[index] = solo(session, ciphertext)
        return oracles

    def drill_baseline(server, outcome):
        work = prepare_work(clients, requests=requests_per_drill, rng=rng)
        oracles = oracles_for(work)
        completed = _submit_and_wait(server, work, outcome)
        return completed, oracles

    def drill_sigkill(server, outcome):
        work = prepare_work(clients, requests=requests_per_drill, rng=rng)
        oracles = oracles_for(work)
        # Slow every circuit down so the killer provably lands mid-request.
        circuits = {
            index: LinearSquareCircuit(
                client.weights, client.bias, delay_s=0.3
            )
            for index, client, _, _ in work
        }
        done = threading.Event()
        kills: list = []
        killer = threading.Thread(
            target=lambda: kills.extend(
                _kill_shards(server, rand, done, max_kills=1, only_busy=True)
            ),
            daemon=True,
        )
        killer.start()
        completed = _submit_and_wait(server, work, outcome, circuits=circuits)
        done.set()
        killer.join(timeout=5.0)
        outcome.details["kills"] = len(kills)
        # The killed shard must restart and pass ready() within the backoff
        # budget -- generous multiple of (backoff cap + warm time).
        outcome.details["recovered"] = server.supervisor.wait_all_ready(30.0)
        return completed, oracles

    def drill_hang(server, outcome):
        work = prepare_work(clients, requests=requests_per_drill, rng=rng)
        victim = rand.randrange(requests_per_drill)
        oracles = oracles_for(work, skip={victim})
        circuits = {victim: HangCircuit()}
        completed = _submit_and_wait(server, work, outcome, circuits=circuits)
        outcome.details["victim"] = victim
        outcome.details["recovered"] = server.supervisor.wait_all_ready(30.0)
        counters = server.health()["shards"]["counters"]
        outcome.details["hang_kills"] = counters["hangs"]
        outcome.details["poisoned"] = counters["poisoned"]
        return completed, oracles

    def drill_poison(server, outcome):
        work = prepare_work(clients, requests=requests_per_drill, rng=rng)
        victim = rand.randrange(requests_per_drill)
        index, client, features, _ = work[victim]
        # The pill detonates in the worker's deserialiser: the parent can
        # pickle it freely, the shard dies before the circuit even starts.
        work[victim] = (index, client, features, PoisonPill())
        oracles = oracles_for(work, skip={victim})
        completed = _submit_and_wait(server, work, outcome)
        outcome.details["victim"] = victim
        outcome.details["recovered"] = server.supervisor.wait_all_ready(30.0)
        counters = server.health()["shards"]["counters"]
        # Two kills then quarantine -- never a third crash for this request.
        outcome.details["crash_kills"] = counters["crashes"]
        outcome.details["poisoned"] = counters["poisoned"]
        return completed, oracles

    def drill_storm(server, outcome):
        work = prepare_work(clients, requests=requests_per_drill, rng=rng)
        oracles = oracles_for(work)
        circuits = {
            index: LinearSquareCircuit(
                client.weights, client.bias, delay_s=0.15
            )
            for index, client, _, _ in work
        }
        done = threading.Event()
        kills: list = []
        killer = threading.Thread(
            target=lambda: kills.extend(
                _kill_shards(
                    server,
                    rand,
                    done,
                    max_kills=max(3, shards),
                    only_busy=False,
                    interval_s=0.25,
                )
            ),
            daemon=True,
        )
        killer.start()
        completed = _submit_and_wait(server, work, outcome, circuits=circuits)
        done.set()
        killer.join(timeout=5.0)
        outcome.details["kills"] = len(kills)
        outcome.details["recovered"] = server.supervisor.wait_all_ready(30.0)
        return completed, oracles

    all_drills = [
        ("proc_baseline_bit_exact", drill_baseline),
        ("proc_sigkill_mid_request", drill_sigkill),
        ("proc_worker_hang_poison", drill_hang),
        ("proc_poison_deserialize", drill_poison),
        ("proc_restart_storm", drill_storm),
    ]
    if drills is not None:
        all_drills = [(n, f) for n, f in all_drills if n in drills]

    previous_strict = set_strict(True)
    previous_stride = os.environ.get("REPRO_NTT_SPOT_STRIDE")
    os.environ["REPRO_NTT_SPOT_STRIDE"] = "1"
    outcomes = []
    try:
        for name, run_drill in all_drills:
            ntt_engine.clear_quarantine()
            diagnostics.clear_events()
            outcome = ChaosOutcome(drill=name)
            server = make_server()
            with server:
                completed, oracles = run_drill(server, outcome)
            ntt_engine.clear_quarantine()
            ntt_engine.reset_sentinels()
            _classify_results(completed, outcome, oracles=oracles)
            if outcome.silent or outcome.hung:
                print(
                    f"[chaos] process drill {name} FAILED "
                    f"(silent={outcome.silent} hung={outcome.hung}); "
                    f"reproduce with seed={seed}"
                )
            outcomes.append(outcome)
    finally:
        set_strict(previous_strict)
        if previous_stride is None:
            os.environ.pop("REPRO_NTT_SPOT_STRIDE", None)
        else:
            os.environ["REPRO_NTT_SPOT_STRIDE"] = previous_stride
        ntt_engine.clear_quarantine()
        ntt_engine.reset_sentinels()
    return ChaosReport(outcomes=outcomes, seed=seed)
