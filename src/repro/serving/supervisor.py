"""The shard supervisor: spawn, watch, kill, restart.

Parent-side half of process-isolated serving.  A :class:`ShardSupervisor`
owns N shard processes (see :mod:`repro.serving.shard`), each a fault domain
with its own interpreter, plan caches and key material.  The supervision
contract mirrors a classic one-for-one supervision tree:

* **crash** -- a dead process (``exitcode`` set: SIGKILL, native crash, OOM
  kill) or a broken pipe fails the in-flight request typed as
  :class:`~repro.errors.WorkerCrashed` and schedules a restart;
* **hang** -- a worker that misses ``heartbeat_miss_limit`` consecutive
  heartbeats (the heartbeat thread beats *through* GIL-releasing compute, so
  silence means wedged, not busy) is killed and the request fails typed as
  :class:`~repro.errors.WorkerUnresponsive`;
* **memory** -- a heartbeat reporting RSS above ``memory_ceiling_mb`` gets
  the worker killed before the kernel's OOM killer picks a victim at random;
* **restart** -- dead shards respawn with exponential backoff
  (``restart_backoff_s * 2**consecutive_failures``, capped), re-deriving
  keys and re-warming plans from the same :class:`TenantSpec`s;
* **one attempt** -- :meth:`ShardSupervisor.execute` runs a request once
  and reports a kill typed; re-dispatching it to a healthy shard, and
  quarantining it as :class:`~repro.errors.PoisonRequest` after its second
  kill, is the server's retry loop's call
  (:meth:`repro.serving.runtime.InferenceServer._serve`).

Every setting is a constructor argument (the server passes its
``supervisor_options`` through); none is read from the environment.

Backend quarantine state is per-process: a shard that trips a kernel
sentinel degrades its *own* dispatch ladder, which is exactly the fault
isolation this tier exists for.  Parent-side breaker accounting only ever
sees backend-attributable errors (see :func:`repro.serving.retry.backend_attributable`).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from typing import Any, Callable, Sequence

from repro import diagnostics, parallel
from repro.cancellation import CancelScope
from repro.errors import (
    ReproError,
    ServiceUnavailable,
    WorkerCrashed,
    WorkerUnresponsive,
)
from repro.serving.shard import TenantSpec, _shard_entry, recv_frame, send_frame

__all__ = ["ShardSupervisor", "ShardHandle"]

STARTING = "starting"
READY = "ready"
BUSY = "busy"
DEAD = "dead"
STOPPED = "stopped"


class _PendingCall:
    """One in-flight request on one shard; failed by the monitor on death."""

    __slots__ = ("request_id", "error", "done")

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.error: BaseException | None = None
        self.done = threading.Event()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()


class ShardHandle:
    """Parent-side bookkeeping for one shard process (state + counters)."""

    def __init__(self, index: int):
        self.index = index
        self.name = f"shard-{index}"
        self.process: multiprocessing.process.BaseProcess | None = None
        self.request_conn = None
        self.event_conn = None
        self.state = STOPPED
        self.pid: int | None = None
        self.restarts = 0
        self.consecutive_failures = 0
        self.started_at = 0.0
        self.last_heartbeat = 0.0
        self.restart_at = 0.0
        self.served = 0
        self.rss_mb = 0.0
        #: Cores the shard's requests may fan out over, as it reported.
        self.core_budget: int | None = None
        self.current: _PendingCall | None = None

    def stats(self) -> dict[str, Any]:
        age = (
            None
            if self.last_heartbeat == 0.0
            else round(time.monotonic() - self.last_heartbeat, 3)
        )
        return {
            "state": self.state,
            "pid": self.pid,
            "restarts": self.restarts,
            "last_heartbeat_age_s": age,
            "served": self.served,
            "rss_mb": self.rss_mb,
            "core_budget": self.core_budget,
            "in_flight": (
                None if self.current is None else self.current.request_id
            ),
        }


class ShardSupervisor:
    """One-for-one supervision over a pool of shard worker processes."""

    def __init__(
        self,
        specs: Sequence[TenantSpec],
        *,
        shards: int = 2,
        heartbeat_interval_s: float = 0.25,
        heartbeat_miss_limit: int = 4,
        memory_ceiling_mb: float | None = None,
        restart_backoff_s: float = 0.25,
        restart_backoff_cap_s: float = 4.0,
        boot_timeout_s: float = 120.0,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.specs = list(specs)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_miss_limit = int(heartbeat_miss_limit)
        self.memory_ceiling_mb = memory_ceiling_mb
        self.restart_backoff_s = float(restart_backoff_s)
        self.restart_backoff_cap_s = float(restart_backoff_cap_s)
        self.boot_timeout_s = float(boot_timeout_s)
        self._ctx = multiprocessing.get_context("spawn")
        self._shards = [ShardHandle(index) for index in range(shards)]
        self._cond = threading.Condition()
        self._stopping = False
        self._started = False
        self._monitor: threading.Thread | None = None
        self._monitor_stop = threading.Event()
        self.counters = {
            "spawns": 0,
            "crashes": 0,
            "hangs": 0,
            "memory_breaches": 0,
            "abandoned_kills": 0,
        }
        self._stats_key: str | None = None

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "ShardSupervisor":
        """Spawn every shard, start the monitor, wait for the pool to warm."""
        with self._cond:
            if self._started:
                return self
            self._started = True
            self._stopping = False
        for shard in self._shards:
            self._spawn(shard)
        self._monitor_stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()
        self._stats_key = diagnostics.register_stats_provider(
            "shard_supervisor", self.stats
        )
        if not self.wait_all_ready(self.boot_timeout_s):
            self.stop()
            raise ServiceUnavailable(
                f"shard pool failed to become ready within "
                f"{self.boot_timeout_s}s"
            )
        return self

    def stop(self) -> None:
        """Shut every shard down (politely, then with force) and clean up."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for shard in self._shards:
            if shard.request_conn is not None:
                try:
                    send_frame(shard.request_conn, "shutdown", None)
                except (OSError, ValueError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + 5.0
        for shard in self._shards:
            process = shard.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
            self._close_conns(shard)
            with self._cond:
                call, shard.current = shard.current, None
                shard.state = STOPPED
                shard.process = None
                self._cond.notify_all()
            if call is not None:
                call.fail(
                    ServiceUnavailable("shard supervisor stopped mid-request")
                )
        if self._stats_key is not None:
            diagnostics.unregister_stats_provider(self._stats_key)
            self._stats_key = None
        with self._cond:
            self._started = False

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -------------------------------------------------------------- readiness
    def ready(self) -> bool:
        """At least one shard is alive and warmed (idle or serving)."""
        with self._cond:
            return any(s.state in (READY, BUSY) for s in self._shards)

    def all_ready(self) -> bool:
        """Every shard is alive and warmed -- full capacity."""
        with self._cond:
            return all(s.state in (READY, BUSY) for s in self._shards)

    def wait_all_ready(self, timeout: float) -> bool:
        """Block until :meth:`all_ready` (or ``timeout``); returns the verdict."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not all(s.state in (READY, BUSY) for s in self._shards):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stopping:
                    return False
                self._cond.wait(timeout=min(remaining, 0.05))
            return True

    def stats(self) -> dict[str, Any]:
        """Per-shard state plus pool counters (health report / diagnostics)."""
        with self._cond:
            shards = {s.name: s.stats() for s in self._shards}
            counters = dict(self.counters)
        return {"shards": shards, "counters": counters}

    # --------------------------------------------------------------- dispatch
    def execute(
        self,
        *,
        request_id: str,
        tenant_id: str,
        circuit: Callable,
        payload: Any,
        scope: CancelScope | None = None,
    ) -> tuple[Any, dict[str, Any]]:
        """Run one attempt of one request on a healthy shard.

        Returns ``(result, meta)`` where ``meta`` names the serving shard
        (``shard``, ``shard_pid``).  Raises the worker's own typed error for
        a request that fails *inside* a healthy shard, and
        :class:`WorkerCrashed` / :class:`WorkerUnresponsive` when the shard
        died or hung under it -- ``WorkerCrashed.delivered`` is ``False``
        when the pipe died before the worker received the frame.  Whether to
        run the request again is the caller's decision.
        """
        shard, call = self._acquire(request_id, scope)
        frame_payload = {
            "request_id": request_id,
            "tenant_id": tenant_id,
            "circuit": circuit,
            "payload": payload,
            "timeout_s": None if scope is None else scope.remaining(),
        }
        try:
            send_frame(shard.request_conn, "request", frame_payload)
        except (OSError, ValueError, BrokenPipeError, AttributeError) as exc:
            error = WorkerCrashed(
                f"{shard.name} pipe write failed before delivery: "
                f"{type(exc).__name__}",
                delivered=False,
            )
            self._fail_shard(
                shard, error, counter="crashes", event="shard_crashed"
            )
            raise error from exc
        return self._await_reply(shard, call, scope)

    def _acquire(
        self, request_id: str, scope: CancelScope | None
    ) -> tuple[ShardHandle, _PendingCall]:
        """Claim an idle shard (waiting for restarts), honouring the deadline."""
        with self._cond:
            while True:
                if self._stopping or not self._started:
                    raise ServiceUnavailable("shard supervisor is stopped")
                shard = next(
                    (s for s in self._shards if s.state == READY), None
                )
                if shard is not None:
                    call = _PendingCall(request_id)
                    shard.current = call
                    shard.state = BUSY
                    return shard, call
                if scope is not None:
                    scope.check()  # typed DeadlineExceeded / RequestCancelled
                self._cond.wait(timeout=0.05)

    def _await_reply(
        self, shard: ShardHandle, call: _PendingCall, scope: CancelScope | None
    ) -> tuple[Any, dict[str, Any]]:
        """Wait out the reply to a delivered request, or the shard's death."""
        grace = max(1.0, self.heartbeat_miss_limit * self.heartbeat_interval_s)
        expired_since: float | None = None
        while not call.done.is_set():
            try:
                frame = recv_frame(shard.request_conn, timeout=0.02)
            except (EOFError, OSError, ValueError, ReproError, AttributeError) as exc:
                verdict = (
                    WorkerCrashed(
                        f"{shard.name} died mid-request ({type(exc).__name__})"
                    ),
                    "crashes",
                    "shard_crashed",
                )
                break
            if frame is not None and frame[0] == "result":
                reply = frame[1]
                self._forward_events(shard, reply.get("events", ()))
                with self._cond:
                    shard.current = None
                    if shard.state == BUSY:
                        shard.state = READY
                        shard.served += 1
                    self._cond.notify_all()
                if not reply.get("ok"):
                    raise reply.get("error")
                return reply.get("result"), reply.get("meta", {})
            if scope is None:
                continue
            if scope.cancelled:
                # A cancelled request cannot be interrupted inside the worker
                # (nothing cooperative crosses the pipe), so the shard is
                # sacrificed rather than left running abandoned work.
                verdict = (
                    WorkerCrashed(f"{shard.name} abandoned: request cancelled"),
                    "abandoned_kills",
                    "shard_abandoned",
                )
                break
            if scope.expired():
                # The worker holds the same deadline and normally replies
                # DeadlineExceeded on its own; only a wedged worker overruns
                # the grace window.
                if expired_since is None:
                    expired_since = time.monotonic()
                elif time.monotonic() - expired_since > grace:
                    verdict = (
                        WorkerUnresponsive(
                            f"{shard.name} ignored the request deadline for "
                            f"{grace:.1f}s past expiry; killed"
                        ),
                        "hangs",
                        "shard_unresponsive",
                    )
                    break
        else:
            raise call.error  # the monitor failed the shard under us
        error, counter, event = verdict
        self._fail_shard(shard, error, counter=counter, event=event)
        call.done.wait(timeout=1.0)
        if scope is not None and scope.cancelled:
            scope.check()  # raises RequestCancelled
        raise call.error or error

    # ------------------------------------------------------------ supervision
    def _spawn(self, shard: ShardHandle) -> None:
        """(Re)spawn one shard process with fresh pipes."""
        parent_req, child_req = self._ctx.Pipe(duplex=True)
        parent_evt, child_evt = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shard_entry,
            args=(
                shard.name,
                self.specs,
                child_req,
                child_evt,
                self.heartbeat_interval_s,
                # Shards serve concurrently, so each gets its share of cores.
                parallel.cores_per(len(self._shards)),
            ),
            name=f"repro-{shard.name}",
            daemon=True,
        )
        process.start()
        child_req.close()
        child_evt.close()
        now = time.monotonic()
        with self._cond:
            shard.process = process
            shard.request_conn = parent_req
            shard.event_conn = parent_evt
            shard.state = STARTING
            shard.pid = process.pid
            shard.started_at = now
            shard.last_heartbeat = now
            self.counters["spawns"] += 1
            self._cond.notify_all()
        diagnostics.record_event(
            "shard_spawned", shard=shard.name, pid=process.pid,
            restarts=shard.restarts,
        )

    def _close_conns(self, shard: ShardHandle) -> None:
        for conn in (shard.request_conn, shard.event_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        shard.request_conn = None
        shard.event_conn = None

    def _fail_shard(
        self,
        shard: ShardHandle,
        error: BaseException,
        *,
        counter: str,
        event: str,
    ) -> None:
        """Declare a shard dead: kill it, fail its call, schedule a restart.

        Idempotent -- the monitor and a dispatcher discovering the same death
        race benignly; only the first transition out of a live state acts.
        """
        with self._cond:
            if shard.state in (DEAD, STOPPED):
                return
            call, shard.current = shard.current, None
            shard.state = DEAD
            shard.restarts += 1
            shard.consecutive_failures += 1
            backoff = min(
                self.restart_backoff_s
                * (2 ** (shard.consecutive_failures - 1)),
                self.restart_backoff_cap_s,
            )
            shard.restart_at = time.monotonic() + backoff
            self.counters[counter] = self.counters.get(counter, 0) + 1
            process, pid = shard.process, shard.pid
            self._cond.notify_all()
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=2.0)
        # Fail the call BEFORE tearing the pipes down: the dispatcher polls
        # ``call.done`` first, so it never touches a connection that this
        # thread has already closed and nulled out.
        if call is not None:
            call.fail(error)
        self._close_conns(shard)
        diagnostics.record_event(
            event,
            shard=shard.name,
            pid=pid,
            error=type(error).__name__,
            backoff_s=round(backoff, 3),
            request_id=None if call is None else call.request_id,
        )

    def _forward_events(self, shard: ShardHandle, events) -> None:
        """Replay worker-side diagnostics events into the parent's log."""
        for entry in events:
            details = {
                key: value
                for key, value in entry.items()
                if key not in ("seq", "kind", "shard")
            }
            diagnostics.record_event(
                entry.get("kind", "shard_event"), shard=shard.name, **details
            )

    def _drain_event_conn(self, shard: ShardHandle) -> None:
        """Consume ready/heartbeat frames from one shard's event pipe."""
        conn = shard.event_conn
        if conn is None:
            return
        while True:
            try:
                if not conn.poll(0):
                    return
                frame = recv_frame(conn)
            except (EOFError, OSError, ValueError, ReproError):
                return  # death is detected via exitcode, not this pipe
            if frame is None:
                return
            kind, payload = frame
            now = time.monotonic()
            if kind == "ready":
                with self._cond:
                    if shard.state == STARTING:
                        shard.state = READY
                        shard.consecutive_failures = 0
                    shard.pid = payload.get("pid", shard.pid)
                    shard.core_budget = payload.get("core_budget")
                    shard.last_heartbeat = now
                    self._cond.notify_all()
                diagnostics.record_event(
                    "shard_ready",
                    shard=shard.name,
                    pid=payload.get("pid"),
                    tenants=payload.get("tenants"),
                )
            elif kind == "heartbeat":
                with self._cond:
                    shard.last_heartbeat = now
                    shard.rss_mb = payload.get("rss_mb", shard.rss_mb)

    def _monitor_loop(self) -> None:
        tick = max(0.01, self.heartbeat_interval_s / 2.0)
        miss_budget = self.heartbeat_miss_limit * self.heartbeat_interval_s
        while not self._monitor_stop.wait(tick):
            now = time.monotonic()
            for shard in self._shards:
                self._drain_event_conn(shard)
                with self._cond:
                    state = shard.state
                    process = shard.process
                    stale = now - shard.last_heartbeat
                    rss = shard.rss_mb
                if state in (STARTING, READY, BUSY):
                    exitcode = None if process is None else process.exitcode
                    if exitcode is not None:
                        self._fail_shard(
                            shard,
                            WorkerCrashed(
                                f"{shard.name} (pid {shard.pid}) exited with "
                                f"code {exitcode}"
                            ),
                            counter="crashes",
                            event="shard_crashed",
                        )
                        continue
                    if state in (READY, BUSY) and stale > miss_budget:
                        self._fail_shard(
                            shard,
                            WorkerUnresponsive(
                                f"{shard.name} (pid {shard.pid}) missed "
                                f"{self.heartbeat_miss_limit} heartbeats "
                                f"({stale:.2f}s silent); killed"
                            ),
                            counter="hangs",
                            event="shard_unresponsive",
                        )
                        continue
                    if (
                        state in (READY, BUSY)
                        and self.memory_ceiling_mb
                        and rss > self.memory_ceiling_mb
                    ):
                        self._fail_shard(
                            shard,
                            WorkerCrashed(
                                f"{shard.name} (pid {shard.pid}) breached the "
                                f"memory ceiling ({rss:.1f} > "
                                f"{self.memory_ceiling_mb:.1f} MiB); killed"
                            ),
                            counter="memory_breaches",
                            event="shard_memory_breach",
                        )
                        continue
                    if (
                        state == STARTING
                        and now - shard.started_at > self.boot_timeout_s
                    ):
                        self._fail_shard(
                            shard,
                            WorkerUnresponsive(
                                f"{shard.name} failed to become ready within "
                                f"{self.boot_timeout_s}s"
                            ),
                            counter="hangs",
                            event="shard_unresponsive",
                        )
                        continue
                elif state == DEAD:
                    with self._cond:
                        due = now >= shard.restart_at and not self._stopping
                    if due:
                        self._spawn(shard)
