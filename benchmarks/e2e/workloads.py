"""Set-up of one workload: keys, circuit, seeded payloads, oracles, server.

Everything the program under test receives is generated here from ``--seed``:
the tenant's key seed, the circuit's plaintext parameters and the 16 feature
vectors (encoded and encrypted once, reused round-robin).  The inline oracle --
``circuit(session, payload)`` on the parent's own session -- is computed for
every payload before any server starts; each served result must be
bit-identical to it, which is what makes the tiers comparable.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks.e2e import circuits
from benchmarks.e2e.spec import PAYLOADS, RINGS, TENANT, Workload
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.poly import ntt_engine
from repro.serving import InferenceRequest, InferenceServer, TenantRegistry, TenantSpec

#: A decoded slot further than this from the plaintext model is a failure.
DECODE_TOLERANCE = 1e-3
#: Server worker threads, and shards in process mode.
WORKERS = 2
#: Every worker thread / shard serves at least this many warm-up requests.
WARMUP_SERVED = 3
BATCH_KEY = "e2e"


@dataclass
class Kit:
    """One built workload: server-side session, client-side keys, inputs."""

    workload: Workload
    seed: int
    registry: TenantRegistry
    session: object
    encryptor: Encryptor
    decryptor: Decryptor
    circuit: object
    features: list
    payloads: list
    oracles: list
    stream_hash: str
    #: Exact per-circuit counters (one steady inline call): evaluator
    #: ``operation_counts`` and ``ntt_engine.transform_counts``.
    counts: dict
    #: Seconds of the set-up phases, for the report.
    phases: dict = field(default_factory=dict)
    server: InferenceServer | None = None
    #: ``health()["shards"]`` as last seen before the server was stopped.
    shards: dict | None = None

    @property
    def params(self):
        return self.session.params

    def encrypt(self, features: np.ndarray):
        return self.encryptor.encrypt(self.session.encoder.encode(features))

    def decode(self, ciphertext) -> np.ndarray:
        plaintext = self.decryptor.decrypt(ciphertext)
        return self.session.encoder.decode(plaintext).real

    def decode_error(self, index: int, ciphertext) -> float:
        expected = self.circuit.expected(self.features[index])
        return float(np.abs(self.decode(ciphertext) - expected).max())

    def request(self, index: int) -> InferenceRequest:
        batched = self.workload.max_batch_size > 1
        return InferenceRequest(
            TENANT,
            self.circuit,
            payload=self.payloads[index],
            batch_key=BATCH_KEY if batched else None,
        )

    def serve(self, index: int) -> tuple:
        """One request through the workload's tier, submit to result.

        Returns ``(result, ticket diagnostics)``; the bare-evaluator tier has
        no ticket and returns ``None`` for the second.
        """
        if self.server is None:
            return self.circuit(self.session, self.payloads[index]), None
        ticket = self.server.submit(self.request(index))
        return ticket.result(timeout=60.0), ticket.diagnostics


def bit_identical(result, oracle) -> bool:
    """Same ciphertext, residue for residue (the cross-tier contract)."""
    return (
        result.level == oracle.level
        and result.scale == oracle.scale
        and np.array_equal(result.c0.residues, oracle.c0.residues)
        and np.array_equal(result.c1.residues, oracle.c1.residues)
    )


def _make_circuit(workload: Workload, rng: np.random.Generator, slots: int, seed: int):
    if workload.circuit == "matvec_square":
        return circuits.MatvecSquareCircuit.seeded(rng, slots, seed)
    if workload.circuit == "square_rescale":
        return circuits.SquareRescaleCircuit()
    return circuits.LinearSquare.seeded(rng, slots)


def build(workload: Workload, seed: int) -> Kit:
    """Keys, circuit, payloads and oracles for ``workload`` (no server yet).

    The client reuses the session's encoder: a second ``CkksEncoder`` at
    N = 4096 is another 1.4 s and 256 MiB of Vandermonde matrix that measures
    nothing the first one does not.
    """
    phases = {"server_boot_s": 0.0, "warmup_s": 0.0}
    started = time.perf_counter()
    ring = RINGS[workload.ring]
    rng = np.random.default_rng(seed)
    slots = ring["degree"] // 2
    circuit = _make_circuit(workload, rng, slots, seed)
    spec = TenantSpec(TENANT, key_seed=seed, galois_steps=circuit.galois_steps(), **ring)
    registry = TenantRegistry()
    session = registry.register_spec(spec)
    keygen = spec.keygen(session.params)
    kit = Kit(
        workload=workload,
        seed=seed,
        registry=registry,
        session=session,
        encryptor=Encryptor(session.params, keygen.public_key(), keygen),
        decryptor=Decryptor(session.params, keygen.secret_key),
        circuit=circuit,
        features=[rng.uniform(-1.0, 1.0, slots) for _ in range(PAYLOADS)],
        payloads=[],
        oracles=[],
        stream_hash="",
        counts={},
        phases=phases,
    )
    phases["keys_s"] = time.perf_counter() - started

    started = time.perf_counter()
    kit.payloads = [kit.encrypt(features) for features in kit.features]
    kit.stream_hash = hashlib.sha256(
        pickle.dumps(
            [(ct.c0.residues, ct.c1.residues, ct.scale, ct.level) for ct in kit.payloads]
        )
    ).hexdigest()
    phases["payloads_s"] = time.perf_counter() - started

    # Oracles double as the parent's cache warm-up; the first call also pays
    # the lazy builds (transform plaintexts, key eval-digit cache), the second
    # is steady and gives the exact per-circuit counters.
    evaluator = session.evaluator
    call_s = []
    for index, payload in enumerate(kit.payloads):
        evaluator.reset_operation_counts()
        before = ntt_engine.transform_counts()
        started = time.perf_counter()
        kit.oracles.append(circuit(session, payload))
        call_s.append(time.perf_counter() - started)
        if index == 1:
            after = ntt_engine.transform_counts()
            kit.counts = {
                "ops": dict(evaluator.operation_counts),
                "transforms": {k: after[k] - before[k] for k in after},
            }
    phases["first_call_s"] = call_s[0]
    phases["oracles_s"] = sum(call_s)
    phases["inline_p50_ms"] = float(np.median(call_s[1:])) * 1e3
    return kit


def start_server(kit: Kit) -> InferenceServer:
    """Boot the workload's server and warm every worker (part of set-up)."""
    workload = kit.workload
    started = time.perf_counter()
    server = InferenceServer(
        kit.registry,
        workers=WORKERS,
        # Open loop: room for the backlog to grow instead of being shed, so
        # broken batching shows as queue wait, not as refusals.
        queue_capacity=8192 if workload.clients == 0 else 64,
        default_timeout_s=60.0,
        rng_seed=kit.seed,
        max_batch_size=workload.max_batch_size,
        max_batch_wait_s=workload.max_batch_wait_s,
        workers_mode="process" if workload.tier == "process" else "thread",
    ).start()
    kit.server = server
    kit.phases["server_boot_s"] = time.perf_counter() - started
    started = time.perf_counter()
    try:
        _warm(kit)
    except BaseException:
        stop_server(kit)
        raise
    kit.phases["warmup_s"] = time.perf_counter() - started
    return server


def stop_server(kit: Kit) -> None:
    """Shut the server down (idempotent), keeping its last shard report."""
    if kit.server is not None:
        kit.shards = kit.server.health()["shards"]
        kit.server.shutdown()
        kit.server = None


def _warm(kit: Kit) -> None:
    """Concurrent rounds until every worker provably served WARMUP_SERVED.

    Sequential warm-up leaves one shard cold (``_acquire`` always takes the
    first ready one), and its first request then pays the lazy builds inside
    the measured window.  A round is ``WORKERS`` requests in flight at once --
    a full batch when batching is on, so the stacked shapes are warm too.
    """
    server = kit.server
    burst = max(WORKERS, kit.workload.max_batch_size)
    for round_index in range(50):
        tickets = [
            server.submit(kit.request((round_index * burst + k) % PAYLOADS))
            for k in range(burst)
        ]
        for ticket in tickets:
            ticket.result(timeout=120.0)
        health = server.health()
        if health["shards"] is not None:
            served = [s["served"] for s in health["shards"]["shards"].values()]
        else:
            # Thread workers share every cache; rounds of ``WORKERS``
            # concurrent requests are what reaches both of them.
            served = [health["served"] // WORKERS]
            if kit.workload.max_batch_size > 1:
                served.append(health["batching"]["batches_served"])
        if min(served) >= WARMUP_SERVED:
            return
    raise RuntimeError(f"warm-up did not reach every worker: {health}")
