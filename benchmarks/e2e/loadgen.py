"""Load generation and the end-to-end summary of one measured window.

Closed loop: ``clients`` threads, each sending its next request only when the
previous result is back.  Open loop: one generator thread submits on a seeded
Poisson schedule whatever the server does, and every latency counts from the
request's *due* time, so a stall is charged to the requests it delays.  Both
run in this process with at most ``nproc`` client threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from benchmarks.e2e.spec import PAYLOADS, SLO_MS
from benchmarks.e2e.workloads import Kit, bit_identical
from repro.errors import ReproError

#: The window is cut into this many equal segments; the spread of their
#: median latencies says whether the run was steady.
SEGMENTS = 5


@dataclass
class Sample:
    """One attempted request."""

    end: float  # seconds since the window opened
    latency_s: float
    ok: bool
    diagnostics: dict | None = None


@dataclass
class Window:
    """Everything one measured window produced."""

    seconds: float
    samples: list
    #: Open loop only: seconds each submit ran behind its due time, offered
    #: request count, and the queue depth when the generator stopped.
    generator_lag_s: tuple = ()
    backlog_end: int = 0

    @property
    def failed(self) -> int:
        return sum(not sample.ok for sample in self.samples)


def closed_loop(kit: Kit, seconds: float, clients: int | None = None) -> Window:
    """``clients`` (default ``workload.clients``) callers, each waiting for its reply."""
    clients = clients or kit.workload.clients
    per_client: list = [[] for _ in range(clients)]
    opened = time.perf_counter()

    def client(position: int) -> None:
        samples = per_client[position]
        sequence = position
        while True:
            start = time.perf_counter()
            if start - opened >= seconds:
                return
            index = sequence % PAYLOADS
            sequence += clients
            diagnostics = None
            try:
                result, diagnostics = kit.serve(index)
                end = time.perf_counter()
                ok = bit_identical(result, kit.oracles[index])
            except ReproError:
                end = time.perf_counter()
                ok = False
            samples.append(
                Sample(end - opened, end - start, ok, diagnostics)
            )

    threads = [
        threading.Thread(target=client, args=(position,), name=f"e2e-client-{position}")
        for position in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # A request still in flight when the window closes is not part of it,
    # unless it failed: failures are never dropped.
    samples = [
        sample
        for samples in per_client
        for sample in samples
        if sample.end <= seconds or not sample.ok
    ]
    samples.sort(key=lambda sample: sample.end)
    return Window(seconds, samples)


def open_loop(kit: Kit, seconds: float) -> Window:
    """Seeded Poisson arrivals at ``workload.rate_rps`` from one thread.

    Completion times come from the ticket's public diagnostics
    (``submitted_at + queue_wait_s + service_s``, the server's own monotonic
    stamps), so results are collected only after the generator stops and the
    collector never competes with the server for the interpreter.
    """
    rate = kit.workload.rate_rps
    rng = np.random.default_rng([kit.seed, 1])
    due = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 64))
    due = due[due < seconds]
    server = kit.server
    submitted: list = []
    lags: list = []
    state = {}
    opened = time.monotonic() + 0.05

    def generate() -> None:
        for sequence, offset in enumerate(due):
            target = opened + float(offset)
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lags.append(max(0.0, time.monotonic() - target))
            try:
                ticket = server.submit(kit.request(sequence % PAYLOADS))
            except ReproError:
                ticket = None  # shed: a failed request
            submitted.append((sequence % PAYLOADS, target, ticket))
        state["backlog_end"] = server.queue.depth()

    generator = threading.Thread(target=generate, name="e2e-generator")
    generator.start()
    generator.join()

    samples = []
    for index, target, ticket in submitted:
        ok = False
        latency = 60.0
        diagnostics = None
        if ticket is not None:
            try:
                result = ticket.result(timeout=60.0)
                ok = bit_identical(result, kit.oracles[index])
            except ReproError:
                ok = False
            diagnostics = ticket.diagnostics
            if "service_s" in diagnostics:
                latency = (
                    ticket.submitted_at
                    + diagnostics["queue_wait_s"]
                    + diagnostics["service_s"]
                    - target
                )
        samples.append(
            Sample(target + latency - opened, latency, ok, diagnostics)
        )
    samples.sort(key=lambda sample: sample.end)
    return Window(seconds, samples, tuple(lags), state["backlog_end"])


def run_window(kit: Kit, seconds: float) -> Window:
    if kit.workload.clients == 0:
        return open_loop(kit, seconds)
    return closed_loop(kit, seconds)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summarise(kit: Kit, window: Window) -> dict:
    """Latency percentiles, throughput and steadiness of one window.

    The window is cut into ``SEGMENTS`` equal segments and each headline
    number is the *median of the segment values*: a noisy neighbour's two-
    second burst then moves one segment, not the run.  Throughput per segment
    is the completion rate between its first and last completion, which --
    unlike a count over a fixed length -- is not quantised to whole requests.
    A failed request has no latency sample; it is counted in ``failed`` and,
    for the open loop, as missing the latency limit.
    """
    good = [sample for sample in window.samples if sample.ok]
    latencies_ms = np.array([sample.latency_s * 1e3 for sample in good])
    ends = np.array([sample.end for sample in good])
    edges = np.linspace(0.0, window.seconds, SEGMENTS + 1)
    p50s, p90s, rates = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (ends >= lo) & (ends < hi)
        if inside.sum() < 2:
            continue
        p50s.append(percentile(latencies_ms[inside], 50))
        p90s.append(percentile(latencies_ms[inside], 90))
        span = ends[inside].max() - ends[inside].min()
        rates.append((inside.sum() - 1) / span)
    summary = {
        "attempted": len(window.samples),
        "failed": window.failed,
        "samples": len(good),
        "latency_p50_ms": float(np.median(p50s)),
        "latency_p90_ms": float(np.median(p90s)),
        "latency_p99_ms": percentile(latencies_ms, 99),
        "throughput_rps": float(np.median(rates)),
        "completed_rps": float((ends <= window.seconds).sum() / window.seconds),
        "segment_p50_ms": p50s,
        "segment_spread": float((max(p50s) - min(p50s)) / np.median(p50s)),
    }
    if kit.workload.clients == 0:
        offered = len(window.samples) / window.seconds
        saturated = (
            window.backlog_end > 2 * kit.workload.max_batch_size
            or summary["completed_rps"] < 0.98 * offered
        )
        missed = int((latencies_ms > SLO_MS).sum()) + window.failed
        summary.update(
            offered_rps=offered,
            saturated=saturated,
            backlog_end=window.backlog_end,
            generator_lag_p99_ms=percentile(window.generator_lag_s, 99) * 1e3,
            # A saturated run's latencies are whatever the backlog made them:
            # all of them count as limit misses.
            slo_miss_share=1.0 if saturated else missed / len(window.samples),
        )
    return summary
