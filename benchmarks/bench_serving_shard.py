"""CI gate: process-sharded serving -- isolation overhead and crash-storm value.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_serving_shard.py [--quick] [--json PATH]

Process isolation (``workers_mode="process"``) buys crash containment: a
SIGKILLed worker costs one shard restart while its siblings keep serving.
This gate prices both sides of that trade at equal worker count:

* **T1 / P1 (fault-free)** -- the same request stream through a thread-pool
  server and a process-sharded server.  Pipe framing + pickling must not
  eat the isolation win: ``P1/T1 >= 0.8``.
* **P2 (crash storm)** -- the process server serves while a killer thread
  SIGKILLs a live shard every storm tick.  The supervisor restarts victims;
  the server's retry loop backs off and re-dispatches their in-flight
  requests, quarantining one that has killed two shards.
* **T2 (thread-mode equivalent crash)** -- the honest baseline: when the
  fault domain is the whole process, ``kill -9`` takes every worker thread
  *and* the server with them, so each crash costs what a supervisor-less
  deployment pays: a fresh interpreter (spawned process: boot + imports),
  cache-cold registry rebuild from :class:`TenantSpec` seed material (keys
  re-derived, plans re-warmed) and a server restart, with the in-flight
  segment re-served by the replacement.  T2 replays the same stream with
  the same number of crashes.  Containment must be worth it:
  ``P2/T2 >= 1.5``.

Circuits carry a small synthetic service time (``SERVICE_DELAY_S``): the
toy ring's ~2 ms arithmetic would otherwise make constant per-request
framing cost look like serving cost; the ratios are measured at a realistic
per-request granularity instead.

Resilience booleans ride along: every storm outcome lands in {correct,
typed} with ``silent == 0`` and ``hung == 0`` (decode-checked against the
plaintext model).  All fault-site choices draw from one seeded
``random.Random``; the seed is printed and written into the JSON so a
failing storm replays exactly.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import threading
import time

import numpy as np

from repro import diagnostics
from repro.errors import ReproError
from repro.poly import ntt_engine
from repro.serving import (
    InferenceRequest,
    InferenceServer,
    RetryPolicy,
    TenantRegistry,
)
from repro.testing.chaos import (
    WATCHDOG_S,
    LinearSquareCircuit,
    _kill_shards,
    build_tenants,
    prepare_work,
)

SHARDS = 4
SEED = 7
STORM_INTERVAL_S = 0.25
STORM_KILLS = 6
SERVICE_DELAY_S = 0.05


def _make_server(registry: TenantRegistry, mode: str) -> InferenceServer:
    options = None
    if mode == "process":
        options = {
            "heartbeat_interval_s": 0.1,
            "heartbeat_miss_limit": 4,
            "restart_backoff_s": 0.1,
            "restart_backoff_cap_s": 1.0,
        }
    return InferenceServer(
        registry,
        workers=SHARDS,
        queue_capacity=256,
        default_timeout_s=WATCHDOG_S / 2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.005),
        rng_seed=SEED,
        workers_mode=mode,
        supervisor_options=options,
    )


def _serve_stream(server: InferenceServer, work: list, *, delay_s: float) -> dict:
    """Push ``work`` through ``server``; classify every outcome.

    Returns throughput over the *completed* requests plus the chaos-contract
    counters: ``silent`` (completed but decode-wrong), ``typed`` (failed
    with a ReproError), ``hung`` (neither, within the watchdog).
    """
    started = time.perf_counter()
    tickets = []
    typed = hung = 0
    for index, client, features, ciphertext in work:
        circuit = LinearSquareCircuit(client.weights, client.bias, delay_s=delay_s)
        tickets.append(
            (
                client,
                features,
                server.submit(
                    InferenceRequest(client.tenant_id, circuit, payload=ciphertext)
                ),
            )
        )
    completed = []
    for client, features, ticket in tickets:
        try:
            result = ticket.result(timeout=WATCHDOG_S)
        except ReproError:
            if ticket.done():
                typed += 1
            else:
                hung += 1
            continue
        completed.append((client, features, result))
    elapsed = time.perf_counter() - started
    correct = silent = 0
    for client, features, result in completed:
        decoded = client.decode(result)
        if np.abs(decoded - client.expected(features)).max() <= 1e-3:
            correct += 1
        else:
            silent += 1
    return {
        "requests": len(work),
        "completed": len(completed),
        "correct": correct,
        "typed": typed,
        "silent": silent,
        "hung": hung,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(len(completed) / elapsed, 2) if elapsed else None,
    }


def run_fault_free(mode: str, requests: int) -> dict:
    registry = TenantRegistry()
    clients = build_tenants(registry, seed=SEED)
    work = prepare_work(clients, requests=requests, rng=np.random.default_rng(SEED))
    with _make_server(registry, mode) as server:
        phase = _serve_stream(server, work, delay_s=SERVICE_DELAY_S)
    phase["mode"] = mode
    return phase


def run_process_storm(requests: int, rand: random.Random) -> dict:
    """The process server under a continuous SIGKILL storm."""
    registry = TenantRegistry()
    clients = build_tenants(registry, seed=SEED)
    work = prepare_work(clients, requests=requests, rng=np.random.default_rng(SEED))
    kills: list = []
    with _make_server(registry, "process") as server:
        done = threading.Event()
        killer = threading.Thread(
            target=lambda: kills.extend(
                _kill_shards(
                    server,
                    rand,
                    done,
                    max_kills=STORM_KILLS,
                    only_busy=False,
                    interval_s=STORM_INTERVAL_S,
                )
            ),
            daemon=True,
        )
        killer.start()
        phase = _serve_stream(server, work, delay_s=SERVICE_DELAY_S)
        done.set()
        killer.join(timeout=5.0)
        phase["recovered"] = server.supervisor.wait_all_ready(30.0)
        phase["supervisor_counters"] = server.health()["shards"]["counters"]
    phase["mode"] = "process"
    phase["kills"] = len(kills)
    return phase


def _replacement_server_entry(specs: list, chunk: list, conn) -> None:
    """The replacement thread-mode server booted after a whole-process crash.

    Runs in a freshly spawned interpreter (the supervisor-less restart path:
    systemd re-execs the service), so it genuinely pays interpreter boot +
    imports + cache-cold registry rebuild from spec seed material before it
    can serve the segment the crash interrupted.  ``chunk`` rows are
    ``(index, tenant_id, weights, bias, ciphertext)``; replies are
    ``(index, "ok"|error_name, result_or_none)``.
    """
    registry = TenantRegistry()
    for spec in specs:
        registry.register_spec(spec)
    replies = []
    with _make_server(registry, "thread") as server:
        tickets = [
            (
                index,
                server.submit(
                    InferenceRequest(
                        tenant_id,
                        LinearSquareCircuit(
                            weights, bias, delay_s=SERVICE_DELAY_S
                        ),
                        payload=ciphertext,
                    )
                ),
            )
            for index, tenant_id, weights, bias, ciphertext in chunk
        ]
        for index, ticket in tickets:
            try:
                result = ticket.result(timeout=WATCHDOG_S)
            except ReproError as exc:
                replies.append((index, type(exc).__name__, None))
            else:
                replies.append((index, "ok", result))
    conn.send(replies)
    conn.close()


def run_thread_equivalent_crash(requests: int, crashes: int) -> dict:
    """Thread-mode baseline paying the whole-process fault-domain price.

    Without process isolation every crash takes the entire server: the
    stream is cut into ``crashes + 1`` segments; the first is served by the
    initially-running server, and each subsequent segment -- interrupted by
    a "crash" -- is served by a replacement interpreter spawned from cold
    (:func:`_replacement_server_entry`).
    """
    registry = TenantRegistry()
    clients = build_tenants(registry, seed=SEED)
    by_id = {client.tenant_id: client for client in clients}
    work = prepare_work(clients, requests=requests, rng=np.random.default_rng(SEED))
    specs = registry.specs()
    segments = np.array_split(np.arange(len(work)), crashes + 1)
    ctx = multiprocessing.get_context("spawn")
    started = time.perf_counter()
    totals = {"completed": 0, "correct": 0, "typed": 0, "silent": 0, "hung": 0}
    restarts = 0
    for count, segment in enumerate(segments):
        chunk = [work[i] for i in segment]
        if not chunk:
            continue
        if count == 0:
            with _make_server(registry, "thread") as server:
                phase = _serve_stream(server, chunk, delay_s=SERVICE_DELAY_S)
            for key in totals:
                totals[key] += phase[key]
            continue
        restarts += 1
        shipped = [
            (index, client.tenant_id, client.weights, client.bias, ciphertext)
            for index, client, _, ciphertext in chunk
        ]
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        replacement = ctx.Process(
            target=_replacement_server_entry,
            args=(specs, shipped, child_conn),
        )
        replacement.start()
        child_conn.close()
        replies = (
            parent_conn.recv() if parent_conn.poll(WATCHDOG_S) else None
        )
        parent_conn.close()
        replacement.join(timeout=10.0)
        features_by_index = {index: features for index, _, features, _ in chunk}
        if replies is None:
            totals["hung"] += len(chunk)
            continue
        for index, status, result in replies:
            if status != "ok":
                totals["typed"] += 1
                continue
            totals["completed"] += 1
            client = by_id[
                next(t for i, t, *_ in shipped if i == index)
            ]
            decoded = client.decode(result)
            expected = client.expected(features_by_index[index])
            if np.abs(decoded - expected).max() <= 1e-3:
                totals["correct"] += 1
            else:
                totals["silent"] += 1
    elapsed = time.perf_counter() - started
    return {
        "mode": "thread",
        "requests": len(work),
        "restarts": restarts,
        **totals,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": (
            round(totals["completed"] / elapsed, 2) if elapsed else None
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller request counts for CI"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write a machine-readable summary"
    )
    args = parser.parse_args()

    requests = 24 if args.quick else 64
    rand = random.Random(SEED)
    print(
        f"Serving shard benchmark ({SHARDS} workers, {requests} requests "
        f"per phase, seed={SEED})"
    )

    thread_free = run_fault_free("thread", requests)
    print(
        f"thread fault-free:  {thread_free['correct']}/{thread_free['requests']} "
        f"correct, {thread_free['throughput_rps']} req/s"
    )
    process_free = run_fault_free("process", requests)
    print(
        f"process fault-free: {process_free['correct']}/{process_free['requests']} "
        f"correct, {process_free['throughput_rps']} req/s"
    )

    storm = run_process_storm(requests, rand)
    print(
        f"process storm:      {storm['correct']}/{storm['requests']} correct, "
        f"{storm['typed']} typed, {storm['kills']} kills, "
        f"recovered={storm['recovered']}, {storm['throughput_rps']} req/s"
    )
    crashes = max(storm["kills"], 1)
    thread_crash = run_thread_equivalent_crash(requests, crashes)
    print(
        f"thread equiv-crash: {thread_crash['correct']}/{thread_crash['requests']} "
        f"correct, {thread_crash['restarts']} full restarts, "
        f"{thread_crash['throughput_rps']} req/s"
    )
    diagnostics_snapshot = diagnostics.as_dict()
    ntt_engine.clear_quarantine()
    ntt_engine.reset_sentinels()

    isolation_ratio = (
        process_free["throughput_rps"] / thread_free["throughput_rps"]
        if thread_free["throughput_rps"]
        else 0.0
    )
    storm_ratio = (
        storm["throughput_rps"] / thread_crash["throughput_rps"]
        if thread_crash["throughput_rps"]
        else 0.0
    )
    storm_silent = storm["silent"] + thread_crash["silent"]
    storm_hung = storm["hung"] + thread_crash["hung"]
    gates = [
        {
            # Pipe framing + pickling must not eat the isolation win.
            "name": "process_fault_free_throughput",
            "threshold": 0.8,
            "speedup": round(isolation_ratio, 2),
            "passed": isolation_ratio >= 0.8,
        },
        {
            # Containment beats whole-process restarts under a kill storm.
            "name": "crash_storm_throughput",
            "threshold": 1.5,
            "speedup": round(storm_ratio, 2),
            "passed": storm_ratio >= 1.5,
        },
        {
            "name": "storm_no_silent_corruption",
            "threshold": 0,
            "value": storm_silent,
            "passed": storm_silent == 0,
        },
        {
            "name": "storm_no_hangs",
            "threshold": 0,
            "value": storm_hung,
            "passed": storm_hung == 0,
        },
        {
            "name": "storm_recovered_all_shards",
            "threshold": True,
            "value": storm["recovered"],
            "passed": bool(storm["recovered"]),
        },
    ]
    passed = all(gate["passed"] for gate in gates)
    print()
    for gate in gates:
        metric = gate.get("value", gate.get("speedup"))
        print(
            f"gate {gate['name']}: value={metric} "
            f"threshold={gate['threshold']} -> "
            f"{'PASS' if gate['passed'] else 'FAIL'}"
        )
    if not passed:
        print(f"reproduce with seed={SEED}")

    if args.json:
        summary = {
            "name": "serving_shard",
            "seed": SEED,
            "config": {
                "shards": SHARDS,
                "requests": requests,
                "storm_interval_s": STORM_INTERVAL_S,
            },
            "thread_fault_free": thread_free,
            "process_fault_free": process_free,
            "process_storm": storm,
            "thread_equivalent_crash": thread_crash,
            "diagnostics": diagnostics_snapshot,
            "gates": gates,
            "passed": passed,
        }
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
