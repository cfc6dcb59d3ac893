"""Shard workers: the child-process half of process-isolated serving.

A *shard* is one ``multiprocessing`` (spawn) worker that owns a private
:class:`~repro.serving.session.TenantRegistry` and serves one request at a
time over a pipe.  Nothing live crosses the process boundary: the parent
ships a picklable :class:`TenantSpec` per tenant, and the worker re-derives
the evaluation keys from the spec's seed material and re-warms its own NTT
plan caches on boot.  Determinism makes the two registries interchangeable:
``CkksParameters.create`` is a deterministic prime search and
:class:`~repro.ckks.keys.KeyGenerator` draws the secret and every key from a
seeded ``numpy`` generator in a fixed call order, so parent and shard hold
bit-identical key material and a request served by any shard decrypts to the
same residues as one served in-process.

Wire protocol (both pipes): length-prefixed frames -- a 2-byte magic, a
4-byte big-endian payload length, then a pickled ``(kind, payload)`` tuple.
The explicit framing means a frame interrupted by SIGKILL is detected as a
truncated read (EOF mid-frame), never mis-parsed as a different message.
Request pipe kinds: ``request`` / ``result`` / ``shutdown``; event pipe
kinds (worker -> parent only): ``ready``, ``heartbeat``, ``events``.

The heartbeat thread keeps beating while a circuit computes (NumPy releases
the GIL), so a missed-heartbeat verdict means the process is genuinely
wedged -- not merely busy.  :func:`suppress_heartbeats` exists for the chaos
harness to fake exactly that wedge.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import diagnostics, parallel
from repro.cancellation import CancelScope
from repro.ckks.keys import GaloisKeySet, KeyGenerator, RelinearizationKey
from repro.ckks.params import CkksParameters
from repro.errors import ReproError
from repro.poly import ntt_engine

__all__ = [
    "TenantSpec",
    "send_frame",
    "recv_frame",
    "in_worker",
    "suppress_heartbeats",
]

#: Frame magic: a pickled payload can never start with these bytes by
#: accident because every frame is checked before its body is unpickled.
FRAME_MAGIC = b"RS"
_FRAME_HEADER = struct.Struct(">2sI")

#: Set in :func:`_shard_entry`; lets payloads (and drills) detect that they
#: are being deserialised inside a shard rather than in the parent.
_WORKER_SHARD: str | None = None
#: Chaos hook: while set, the heartbeat thread stays silent so the
#: supervisor's missed-heartbeat detector fires on a live-but-"wedged" worker.
_HEARTBEATS_SUPPRESSED = threading.Event()


def in_worker() -> bool:
    """Whether the current process is a shard worker."""
    return _WORKER_SHARD is not None


def suppress_heartbeats(suppress: bool = True) -> None:
    """Chaos hook: silence (or restore) this worker's heartbeat thread."""
    if suppress:
        _HEARTBEATS_SUPPRESSED.set()
    else:
        _HEARTBEATS_SUPPRESSED.clear()


# ------------------------------------------------------------------- framing
def send_frame(conn, kind: str, payload: Any) -> None:
    """Write one ``(kind, payload)`` frame to a multiprocessing connection."""
    body = pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(_FRAME_HEADER.pack(FRAME_MAGIC, len(body)) + body)


def recv_frame(conn, timeout: float | None = None) -> tuple[str, Any] | None:
    """Read one frame; ``None`` on timeout, ``EOFError`` on a closed pipe.

    Raises :class:`~repro.errors.ReproError` on a malformed frame (bad magic
    or truncated body) -- corruption on the control channel must surface
    typed, exactly like corruption in a ciphertext.
    """
    if timeout is not None and not conn.poll(timeout):
        return None
    blob = conn.recv_bytes()
    if len(blob) < _FRAME_HEADER.size:
        raise ReproError(f"shard frame truncated: {len(blob)} byte(s)")
    magic, length = _FRAME_HEADER.unpack_from(blob)
    if magic != FRAME_MAGIC:
        raise ReproError(f"shard frame bad magic {magic!r}")
    body = blob[_FRAME_HEADER.size:]
    if len(body) != length:
        raise ReproError(
            f"shard frame length mismatch: header says {length}, "
            f"got {len(body)}"
        )
    kind, payload = pickle.loads(body)
    return kind, payload


# --------------------------------------------------------------- tenant spec
@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to rebuild one tenant's session in another process.

    Holds only primitives (ring geometry plus key *seed material*), never
    live key objects: a spec pickles in bytes, and the worker re-derives
    bit-identical keys because ``KeyGenerator`` consumes its seeded rng in a
    fixed order -- secret at construction, then ``relinearization_key()``,
    then the Galois keys.  Any process following that order from the same
    seed holds the same key material.
    """

    tenant_id: str
    degree: int
    limbs: int
    log_q: int = 28
    dnum: int = 3
    scale_bits: int = 20
    special_limbs: int | None = None
    key_seed: int = 0
    hamming_weight: int | None = None
    galois_steps: tuple[int, ...] = ()
    conjugation: bool = False

    def build_params(self) -> CkksParameters:
        """The tenant's parameter set (deterministic prime search)."""
        return CkksParameters.create(
            degree=self.degree,
            limbs=self.limbs,
            log_q=self.log_q,
            dnum=self.dnum,
            scale_bits=self.scale_bits,
            special_limbs=self.special_limbs,
        )

    def keygen(self, params: CkksParameters | None = None) -> KeyGenerator:
        """A fresh seeded generator; the secret is drawn at construction."""
        return KeyGenerator(
            params or self.build_params(),
            rng=np.random.default_rng(self.key_seed),
            hamming_weight=self.hamming_weight,
        )

    def build_keys(
        self, params: CkksParameters
    ) -> tuple[RelinearizationKey, GaloisKeySet | None]:
        """Derive the evaluation keys in the canonical rng call order."""
        keygen = self.keygen(params)
        relin = keygen.relinearization_key()
        galois = None
        if self.galois_steps or self.conjugation:
            galois = keygen.galois_keys_for_steps(
                list(self.galois_steps), conjugation=self.conjugation
            )
        return relin, galois


# --------------------------------------------------------------- worker side
def _rss_mb() -> float:
    """Resident set size of this process in MiB (Linux statm, rusage fallback)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        try:
            import resource

            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except Exception:
            return 0.0


def _heartbeat_loop(event_conn, interval_s: float, stop: threading.Event,
                    counters: dict, send_lock: threading.Lock) -> None:
    while not stop.wait(interval_s):
        if _HEARTBEATS_SUPPRESSED.is_set():
            continue
        try:
            with send_lock:
                send_frame(
                    event_conn,
                    "heartbeat",
                    {
                        "pid": os.getpid(),
                        "rss_mb": round(_rss_mb(), 2),
                        "served": counters["served"],
                        "quarantined": sorted(ntt_engine.quarantined_backends()),
                    },
                )
        except (OSError, ValueError, BrokenPipeError):
            return  # parent is gone; the worker is about to exit anyway


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a typed stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(
            f"shard-side {type(exc).__name__} (unpicklable): {exc}"
        )


def _shard_entry(
    name: str,
    specs: list[TenantSpec],
    request_conn,
    event_conn,
    heartbeat_interval_s: float,
    core_budget: int,
) -> None:
    """Worker main: rebuild sessions, warm plans, then serve one-at-a-time.

    Every request frame gets exactly one ``result`` frame back (ok or error)
    carrying the diagnostics events the circuit recorded, so the parent's
    bounded event log sees what happened inside the fault domain, the
    shard's quarantined NTT rungs, and a ``meta`` dict (``shard``,
    ``shard_pid``, and the ``backend`` the tenant's chain resolved here
    before the circuit ran) the parent merges into the ticket's
    diagnostics; everything else about the result, such as its noise
    headroom, the parent works out itself.  Only a
    crash (or the poison payload detonating inside ``recv_frame``'s unpickle)
    breaks that invariant -- which is precisely what the supervisor's
    exitcode/heartbeat watchers are for.

    Everything runs under ``core_budget`` cores (the supervisor's share of
    the machine for this shard), reported back in the ``ready`` frame.
    """
    with parallel.core_budget_scope(core_budget):
        _serve_shard(name, specs, request_conn, event_conn, heartbeat_interval_s)


def _serve_shard(
    name: str,
    specs: list[TenantSpec],
    request_conn,
    event_conn,
    heartbeat_interval_s: float,
) -> None:
    global _WORKER_SHARD
    _WORKER_SHARD = name
    from repro.serving.session import TenantRegistry  # after spawn bootstrap

    counters = {"served": 0}
    #: Every reply's ``meta``: which fault domain served the request, keyed
    #: as the parent's ticket diagnostics record it.
    meta = {"shard": name, "shard_pid": os.getpid()}
    stop = threading.Event()
    registry = TenantRegistry()
    for spec in specs:
        params = spec.build_params()
        relin, galois = spec.build_keys(params)
        registry.register(
            spec.tenant_id, params, relin_key=relin, galois_keys=galois
        )
    event_lock = threading.Lock()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(event_conn, heartbeat_interval_s, stop, counters, event_lock),
        name=f"{name}-heartbeat",
        daemon=True,
    )
    heartbeat.start()
    last_event_seq = 0
    with event_lock:
        send_frame(
            event_conn,
            "ready",
            {
                "pid": os.getpid(),
                "tenants": registry.tenants(),
                "core_budget": parallel.core_budget(),
            },
        )
    try:
        while True:
            try:
                frame = recv_frame(request_conn)
            except EOFError:
                return
            if frame is None:
                continue
            kind, payload = frame
            if kind == "shutdown":
                return
            if kind != "request":
                send_frame(
                    request_conn,
                    "result",
                    {
                        "ok": False,
                        "error": ReproError(
                            f"shard {name} got unexpected frame kind {kind!r}"
                        ),
                        "events": [],
                        "meta": {},
                    },
                )
                continue
            backend = None
            try:
                session = registry.session(payload["tenant_id"])
                backend = session.backend()
                scope = CancelScope(
                    timeout=payload.get("timeout_s"),
                    label=payload.get("request_id", ""),
                )
                with scope:
                    result = payload["circuit"](session, payload["payload"])
                reply: dict[str, Any] = {"ok": True, "result": result}
                counters["served"] += 1
            except BaseException as exc:  # noqa: BLE001 - shipped typed
                reply = {"ok": False, "error": _picklable_error(exc)}
            reply["meta"] = {**meta, "backend": backend}
            reply["quarantined"] = sorted(ntt_engine.quarantined_backends())
            fresh = [
                event
                for event in diagnostics.events()
                if event["seq"] > last_event_seq
            ]
            if fresh:
                last_event_seq = fresh[-1]["seq"]
            reply["events"] = fresh
            send_frame(request_conn, "result", reply)
    except (EOFError, OSError, BrokenPipeError):
        return  # parent went away; nothing to report to
    finally:
        stop.set()
