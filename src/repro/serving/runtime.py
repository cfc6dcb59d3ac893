"""The multi-tenant encrypted-inference server: workers, lifecycle, resilience.

One :class:`InferenceServer` owns a :class:`~repro.serving.queue.BoundedRequestQueue`,
a pool of worker threads, a :class:`~repro.serving.retry.RetryPolicy` and a
:class:`~repro.serving.breaker.CircuitBreaker`.  The resilience contract --
the property the chaos harness drills -- is that every admitted, well-formed
request either completes with a correct result or fails with a typed
:class:`~repro.errors.ReproError`, under faults and overload alike:

* admission control sheds excess load as
  :class:`~repro.errors.ServiceOverloaded` before it queues;
* each request runs inside a :class:`~repro.cancellation.CancelScope` whose
  deadline the evaluator polls at every operation, so slow circuits abort as
  :class:`~repro.errors.DeadlineExceeded` instead of hogging a worker;
* retryable faults (backend exactness failures) trip the circuit breaker,
  which quarantines the backend so the bounded retry re-dispatches down the
  degradation ladder; terminal faults propagate immediately;
* the breaker half-opens cooled-down backends via ``verify_plan`` re-probes,
  restoring full capacity once the fault clears;
* :meth:`InferenceServer.drain` stops admission and lets in-flight work
  finish; :meth:`InferenceServer.health` / :meth:`InferenceServer.ready`
  expose liveness and readiness for orchestration.

Every request takes one path, :meth:`InferenceServer._serve`: a solo
request is a batch of one, and a failed batch is re-served as batches of
one.  Where the circuit runs -- on the worker thread, or in a supervised
shard process -- is decided once, in :meth:`InferenceServer.start`.

Every served request leaves a structured ``request_served`` /
``request_failed`` diagnostics event carrying queue wait, attempt count,
backend used, and remaining noise headroom.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import diagnostics, parallel
from repro.cancellation import CancelScope
from repro.ckks.batch import stack_ciphertexts, unstack_ciphertext
from repro.ckks.ciphertext import Ciphertext
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    PoisonRequest,
    ReproError,
    ServiceUnavailable,
    WorkerCrashed,
    WorkerUnresponsive,
)
from repro.poly import ntt_engine
from repro.serving.breaker import CircuitBreaker
from repro.serving.queue import BoundedRequestQueue
from repro.serving.retry import RetryPolicy, backend_attributable
from repro.serving.session import TenantRegistry, TenantSession
from repro.serving.supervisor import ShardSupervisor

__all__ = ["InferenceRequest", "RequestTicket", "InferenceServer"]

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

_request_ids = itertools.count(1)
#: Worker kills that make a request poison: one kill may be the shard's
#: fault, the second is the request's.
POISON_KILLS = 2
#: Poisoned request ids remembered (oldest forgotten first).
POISON_MEMORY = 1024


@dataclass
class InferenceRequest:
    """One unit of work: a circuit to run in a tenant's session.

    ``circuit`` is any callable ``(session, payload) -> result``; the
    payload is typically a ciphertext (or a tuple of them) the client
    encrypted.  ``timeout_s`` overrides the server's default deadline.
    """

    tenant_id: str
    circuit: Callable[[TenantSession, Any], Any]
    payload: Any = None
    timeout_s: float | None = None
    #: Dynamic-batching opt-in.  Requests from the same tenant carrying the
    #: same non-``None`` key promise that (a) their circuits are
    #: interchangeable (the leader's callable runs for the whole batch) and
    #: (b) their payloads are single ciphertexts that stack -- same ring,
    #: level and scale.  The server then coalesces queued compatible
    #: requests into one stacked evaluator pass; ``None`` (default) always
    #: serves solo.
    batch_key: str | None = None
    request_id: str = field(
        default_factory=lambda: f"req-{next(_request_ids):06d}"
    )


class RequestTicket:
    """Client handle for a submitted request: poll, wait, cancel, inspect."""

    def __init__(self, request: InferenceRequest, deadline: float | None):
        self.request = request
        self.scope = CancelScope(deadline=deadline, label=request.request_id)
        self.submitted_at = time.monotonic()
        self.status = QUEUED
        self.diagnostics: dict[str, Any] = {
            "request_id": request.request_id,
            "tenant": request.tenant_id,
        }
        self._done = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None

    # ----------------------------------------------------------- client side
    def done(self) -> bool:
        """Whether the request has completed or failed."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until done (or timeout); returns :meth:`done`."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The circuit's result; re-raises its typed error on failure.

        Raises :class:`~repro.errors.DeadlineExceeded` when the ticket is
        still pending after ``timeout`` seconds of waiting.
        """
        if not self._done.wait(timeout):
            raise DeadlineExceeded(
                f"request {self.request.request_id} still "
                f"{self.status} after waiting {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Cooperatively cancel: the next evaluator checkpoint aborts."""
        self.scope.cancel(reason)

    @property
    def error(self) -> BaseException | None:
        """The failure, if the request failed (``None`` while pending)."""
        return self._error

    # ----------------------------------------------------------- server side
    def _complete(self, result: Any) -> None:
        self._result = result
        self.status = COMPLETED
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.status = FAILED
        self._done.set()


class InferenceServer:
    """Bounded-queue, deadline-aware, fault-rerouting inference runtime."""

    def __init__(
        self,
        registry: TenantRegistry,
        *,
        workers: int = 2,
        queue_capacity: int = 32,
        default_timeout_s: float | None = 30.0,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        probe_interval_s: float = 0.25,
        rng_seed: int | None = None,
        max_batch_size: int = 1,
        max_batch_wait_s: float = 0.0,
        workers_mode: str = "thread",
        supervisor_options: dict[str, Any] | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_batch_wait_s < 0:
            raise ValueError("max_batch_wait_s must be >= 0")
        if workers_mode not in ("thread", "process"):
            raise ParameterError(
                f"workers_mode must be 'thread' or 'process', got "
                f"{workers_mode!r}"
            )
        #: ``thread``: circuits run on the worker threads themselves (one
        #: shared fault domain).  ``process``: each worker thread fronts one
        #: supervised shard process -- the leaf circuit execution crosses a
        #: pipe, everything else (queue, deadlines, retry, batching) is
        #: unchanged.
        self.workers_mode = workers_mode
        self.supervisor: ShardSupervisor | None = None
        self._supervisor_options = dict(supervisor_options or {})
        self.registry = registry
        self.queue = BoundedRequestQueue(queue_capacity)
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.default_timeout_s = default_timeout_s
        self.probe_interval_s = probe_interval_s
        #: Dynamic-batching knobs: a worker that pops a keyed request drains
        #: up to ``max_batch_size - 1`` queued compatible requests, waiting at
        #: most ``max_batch_wait_s`` for stragglers, and serves the whole
        #: batch as one stacked evaluator call.  ``max_batch_size=1`` (the
        #: default) disables coalescing entirely.
        self.max_batch_size = int(max_batch_size)
        self.max_batch_wait_s = float(max_batch_wait_s)
        self.batches_served = 0
        self.batched_requests = 0
        self._worker_count = workers
        #: Cores each worker thread's request may fan out over: the workers
        #: serve concurrently, so each gets its share of the machine.
        self.core_budget = parallel.cores_per(workers)
        self._threads: list[threading.Thread] = []
        self._rng = random.Random(rng_seed)
        self._lock = threading.Lock()
        self._running = False
        self._draining = False
        self._in_flight = 0
        self._idle = threading.Condition(self._lock)
        #: Tickets admitted but not yet finalised (incl. still-queued ones) --
        #: the drain condition and the forced-shutdown cancellation target.
        self._outstanding: set[RequestTicket] = set()
        self._last_probe = 0.0
        self._probe_lock = threading.Lock()
        self.served = 0
        self.failed = 0
        #: Poison quarantine (request id -> reason) and the re-dispatch
        #: counters, reported beside the supervisor's under ``health()``.
        self._poison_ids: dict[str, str] = {}
        self.redispatches = 0
        self.poisoned = 0

    # --------------------------------------------------------------- lifecycle
    def start(self) -> "InferenceServer":
        """Spawn the worker pool (and the shard pool in process mode)."""
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._draining = False
        #: The leaf executor, ``(request_id, tenant_id, circuit, payload,
        #: scope) -> (result, meta)``: inline on the worker thread, or the
        #: supervisor's dispatch to a shard.  Chosen here, once.
        self._execute = self._execute_inline
        if self.workers_mode == "process":
            specs = self.registry.specs()
            missing = sorted(
                set(self.registry.tenants()) - {s.tenant_id for s in specs}
            )
            if missing:
                raise ParameterError(
                    f"workers_mode='process' requires every tenant to be "
                    f"registered via TenantRegistry.register_spec (shippable "
                    f"seed material); missing specs for: {missing}"
                )
            options = dict(self._supervisor_options)
            options.setdefault("shards", self._worker_count)
            self.supervisor = ShardSupervisor(specs, **options).start()
            self._execute = self.supervisor.execute
        for index in range(self._worker_count):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serving-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        diagnostics.record_event(
            "server_started",
            workers=self._worker_count,
            queue_capacity=self.queue.capacity,
            workers_mode=self.workers_mode,
        )
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admission, let queued + in-flight requests finish.

        Returns ``True`` when the server is idle within ``timeout``;
        ``False`` (with admission still closed) otherwise -- callers can
        follow up with :meth:`shutdown` to cancel stragglers.
        """
        with self._lock:
            self._draining = True
        diagnostics.record_event("server_draining")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._outstanding:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=0.05 if remaining is None else min(remaining, 0.05))
        return True

    def shutdown(self, *, drain_timeout: float | None = 5.0) -> None:
        """Graceful stop: drain, cancel stragglers, join the workers."""
        drained = self.drain(timeout=drain_timeout)
        if not drained:
            # Cancel whatever is still outstanding; running circuits abort
            # at their next evaluator checkpoint as typed RequestCancelled,
            # still-queued tickets fail the moment a worker picks them up.
            diagnostics.record_event("server_drain_timeout")
            with self._lock:
                stragglers = list(self._outstanding)
            for ticket in stragglers:
                ticket.cancel("server shutdown")
            self.drain(timeout=5.0)
        with self._lock:
            self._running = False
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        diagnostics.record_event(
            "server_stopped", served=self.served, failed=self.failed
        )

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -------------------------------------------------------------- admission
    def submit(self, request: InferenceRequest) -> RequestTicket:
        """Admit a request (or shed it) and return its ticket.

        Raises :class:`~repro.errors.ServiceUnavailable` when not accepting
        (stopped/draining), :class:`~repro.errors.TenantNotFound` for an
        unknown tenant, and :class:`~repro.errors.ServiceOverloaded` when the
        bounded queue is full.
        """
        with self._lock:
            if not self._running or self._draining:
                raise ServiceUnavailable(
                    "server is not accepting requests "
                    f"(running={self._running}, draining={self._draining})"
                )
        # Fail unknown tenants at admission, not on a worker thread.
        self.registry.session(request.tenant_id)
        timeout_s = (
            request.timeout_s
            if request.timeout_s is not None
            else self.default_timeout_s
        )
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        ticket = RequestTicket(request, deadline)
        with self._idle:
            self._outstanding.add(ticket)
        try:
            self.queue.put(ticket)
        except ReproError:
            with self._idle:
                self._outstanding.discard(ticket)
                self._idle.notify_all()
            diagnostics.record_event(
                "request_shed",
                request_id=request.request_id,
                tenant=request.tenant_id,
                queue_depth=self.queue.depth(),
            )
            raise
        return ticket

    # ------------------------------------------------------------ health
    def ready(self) -> bool:
        """Readiness: accepting work and the queue has admission headroom.

        In process mode also requires at least one live, warmed shard --
        accepted work could not execute anywhere otherwise.
        """
        with self._lock:
            accepting = self._running and not self._draining
        if accepting and self.supervisor is not None:
            accepting = self.supervisor.ready()
        return accepting and self.queue.depth() < self.queue.capacity

    def health(self) -> dict[str, Any]:
        """Structured liveness report for operators and probes.

        ``status`` is ``ok`` (healthy), ``degraded`` (serving, but a backend
        is quarantined or the queue is saturated -- capacity or latency is
        reduced), ``draining`` or ``stopped``.
        """
        quarantined = sorted(ntt_engine.quarantined_backends())
        queue_stats = self.queue.stats()
        with self._lock:
            running, draining = self._running, self._draining
            in_flight = self._in_flight
        if not running:
            status = "stopped"
        elif draining:
            status = "draining"
        elif quarantined or queue_stats["depth"] >= queue_stats["capacity"]:
            status = "degraded"
        else:
            status = "ok"
        supervisor_stats = None
        if self.supervisor is not None:
            supervisor_stats = self.supervisor.stats()
            with self._idle:
                supervisor_stats["counters"].update(
                    redispatches=self.redispatches,
                    poisoned=self.poisoned,
                    poisoned_requests=list(self._poison_ids),
                )
        if (
            status == "ok"
            and supervisor_stats is not None
            and any(
                shard["state"] not in ("ready", "busy")
                for shard in supervisor_stats["shards"].values()
            )
        ):
            status = "degraded"  # serving, but a shard is down/restarting
        return {
            "status": status,
            "ready": self.ready(),
            "workers": self._worker_count,
            "workers_mode": self.workers_mode,
            # Process mode reports each shard's own budget under "shards".
            "core_budget": self.core_budget if self.workers_mode == "thread" else None,
            "in_flight": in_flight,
            "queue": queue_stats,
            "served": self.served,
            "failed": self.failed,
            "quarantined_backends": quarantined,
            "shards": supervisor_stats,
            "batching": {
                "max_batch_size": self.max_batch_size,
                "max_batch_wait_s": self.max_batch_wait_s,
                "batches_served": self.batches_served,
                "batched_requests": self.batched_requests,
            },
            "breaker": {
                name: vars(snap) for name, snap in self.breaker.snapshot().items()
            },
        }

    # ---------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        with parallel.core_budget_scope(self.core_budget):
            while True:
                ticket = self.queue.get(timeout=0.05)
                if ticket is None:
                    with self._lock:
                        if not self._running:
                            return
                    self._maybe_probe()
                    continue
                batch = self._collect_batch(ticket)
                with self._lock:
                    self._in_flight += len(batch)
                try:
                    self._serve(batch)
                finally:
                    with self._idle:
                        self._in_flight -= len(batch)
                        self._idle.notify_all()
                    self._maybe_probe()

    def _collect_batch(self, leader: RequestTicket) -> list[RequestTicket]:
        """Coalesce queued requests compatible with ``leader`` (FIFO order).

        Drains same-tenant requests carrying the leader's ``batch_key``; when
        the batch is not yet full and ``max_batch_wait_s`` allows, lingers
        briefly (never past the leader's own deadline) re-draining for
        stragglers.  Requests without a batch key never coalesce.
        """
        request = leader.request
        if self.max_batch_size <= 1 or request.batch_key is None:
            return [leader]

        def matches(ticket: RequestTicket) -> bool:
            other = ticket.request
            return (
                other.tenant_id == request.tenant_id
                and other.batch_key == request.batch_key
            )

        batch = [leader]
        batch.extend(
            self.queue.drain_matching(matches, self.max_batch_size - 1)
        )
        wait = self.max_batch_wait_s
        remaining = leader.scope.remaining()
        if remaining is not None:
            wait = min(wait, max(0.0, remaining - 1e-3))
        if len(batch) < self.max_batch_size and wait > 0:
            linger_until = time.monotonic() + wait
            while len(batch) < self.max_batch_size:
                now = time.monotonic()
                if now >= linger_until:
                    break
                time.sleep(min(5e-4, linger_until - now))
                batch.extend(
                    self.queue.drain_matching(
                        matches, self.max_batch_size - len(batch)
                    )
                )
        return batch

    def _maybe_probe(self) -> None:
        """Periodic circuit-breaker recovery probe (one worker at a time)."""
        now = time.monotonic()
        if now - self._last_probe < self.probe_interval_s:
            return
        if not self._probe_lock.acquire(blocking=False):
            return
        try:
            self._last_probe = now
            self.breaker.maybe_probe(self._probe_plans())
        finally:
            self._probe_lock.release()

    def _probe_plans(self) -> list:
        """The NTT chain of every registered tenant, each once."""
        plans = {}
        for session in self.registry.sessions():
            stack = session.params.plan_stack()
            plans[id(stack.chain)] = stack
        return list(plans.values())

    def _resolved_backend(self, session: TenantSession) -> str:
        """The backend the tenant's NTT chain dispatches to now."""
        return session.params.plan_stack().resolve_backend()

    def _execute_inline(
        self,
        *,
        request_id: str,
        tenant_id: str,
        circuit: Callable,
        payload: Any,
        scope: CancelScope,
    ) -> tuple[Any, dict[str, Any]]:
        """Thread mode's executor: the circuit runs on this worker thread."""
        return circuit(self.registry.session(tenant_id), payload), {}

    def _serve(self, tickets: list[RequestTicket]) -> None:
        """Serve 1..``max_batch_size`` tickets as one circuit run.

        1. Shed: each ticket goes ``running``; one whose scope expired or
           was cancelled in the queue fails typed with 0 attempts.
        2. Build the unit: a batch of one runs its payload as is under its
           own scope; a larger batch runs the stacked ciphertext under the
           tightest member deadline as ``batch-<leader id>``, so a shard it
           kills is charged to the batch, not to its leader.
        3. Execute: only a batch of one retries.  A worker kill re-dispatches
           it like any retryable fault, and its second kill quarantines its
           id as :class:`~repro.errors.PoisonRequest`; an undelivered frame
           costs an attempt but never counts as a kill.  Any failure of a
           larger batch records ``batch_fallback`` and re-serves each member
           as a batch of one, so batching never costs correctness.
        4. Finish: split the result, re-check each member's own scope, and
           record the executor's ``meta`` and the noise headroom per member.
        """
        started = time.monotonic()
        live: list[RequestTicket] = []
        for ticket in tickets:
            ticket.status = RUNNING
            ticket.diagnostics["queue_wait_s"] = round(
                started - ticket.submitted_at, 6
            )
            try:
                ticket.scope.check()
            except BaseException as exc:  # noqa: BLE001 - typed, finalised
                self._finalise(ticket, None, exc, 0, "unknown", started)
            else:
                live.append(ticket)
        if not live:
            return
        size = len(live)
        request = live[0].request
        attempts, backend = 0, "unknown"
        try:
            session = self.registry.session(request.tenant_id)
            if size == 1:
                unit_id, scope, payload = (
                    request.request_id, live[0].scope, request.payload
                )
            else:
                payloads = [ticket.request.payload for ticket in live]
                if not all(isinstance(p, Ciphertext) for p in payloads):
                    raise ParameterError(
                        "dynamic batching requires single-ciphertext payloads"
                    )
                payload = stack_ciphertexts(payloads)
                deadlines = [
                    ticket.scope.deadline
                    for ticket in live
                    if ticket.scope.deadline is not None
                ]
                unit_id = f"batch-{request.request_id}"
                scope = CancelScope(
                    deadline=min(deadlines, default=None), label=unit_id
                )
            reason = self._poison_ids.get(unit_id)
            if reason is not None:
                raise PoisonRequest(
                    f"request {unit_id} is quarantined: {reason}"
                )
            kills = 0
            while True:
                attempts += 1
                backend = self._resolved_backend(session)
                try:
                    with scope:
                        result, meta = self._execute(
                            request_id=unit_id,
                            tenant_id=request.tenant_id,
                            circuit=request.circuit,
                            payload=payload,
                            scope=scope,
                        )
                    break
                except BaseException as exc:  # noqa: BLE001 - classified here
                    if backend_attributable(exc):
                        # Not worker kills: a crashed shard says nothing
                        # about the NTT backend.
                        self.breaker.record_failure(backend, request_id=unit_id)
                    killed = isinstance(exc, WorkerUnresponsive) or (
                        isinstance(exc, WorkerCrashed) and exc.delivered
                    )
                    kills += killed
                    if kills >= POISON_KILLS:
                        raise self._quarantine(unit_id, kills, exc) from exc
                    if size > 1 or not self.retry_policy.should_retry(
                        exc, attempts
                    ):
                        raise
                    delay = self.retry_policy.delay(attempts, self._rng)
                    remaining = scope.remaining()
                    if remaining is not None and delay >= remaining:
                        raise  # no deadline headroom for another attempt
                    if killed:
                        with self._idle:
                            self.redispatches += 1
                    diagnostics.record_event(
                        "request_retry",
                        request_id=unit_id,
                        tenant=request.tenant_id,
                        attempt=attempts,
                        backend=backend,
                        error=type(exc).__name__,
                        backoff_s=round(delay, 4),
                    )
                    time.sleep(delay)
                    scope.check()  # cancelled or expired during the backoff
            self.breaker.record_success(backend)
            members = [result]
            if size > 1:
                members = unstack_ciphertext(result)
                if len(members) != size:
                    raise ParameterError(
                        f"batched circuit returned {len(members)} members "
                        f"for a batch of {size}"
                    )
        except BaseException as exc:  # noqa: BLE001 - finalised or re-served
            if size == 1:
                self._finalise(live[0], None, exc, attempts, backend, started)
                return
            diagnostics.record_event(
                "batch_fallback",
                tenant=request.tenant_id,
                batch_key=request.batch_key,
                batch_size=size,
                backend=backend,
                reason=type(exc).__name__,
            )
            for ticket in live:
                self._serve([ticket])
            return
        if size > 1:
            with self._idle:
                self.batches_served += 1
                self.batched_requests += size
        for ticket, member in zip(live, members):
            try:
                ticket.scope.check()
            except BaseException as exc:  # noqa: BLE001 - typed, finalised
                self._finalise(ticket, None, exc, attempts, backend, started)
                continue
            ticket.diagnostics.update(meta)
            try:
                headroom = session.noise_headroom_bits(member)
            except Exception:  # diagnostics must never fail a served request
                headroom = None
            ticket.diagnostics["noise_headroom_bits"] = (
                None if headroom is None else round(headroom, 2)
            )
            if size > 1:
                ticket.diagnostics.update(batched=True, batch_size=size)
            self._finalise(ticket, member, None, attempts, backend, started)

    def _quarantine(
        self, unit_id: str, kills: int, error: BaseException
    ) -> PoisonRequest:
        """Quarantine ``unit_id`` after its ``kills``-th worker kill."""
        reason = (
            f"killed {kills} worker(s); last: {type(error).__name__}: {error}"
        )
        with self._idle:
            self.poisoned += 1
            self._poison_ids[unit_id] = reason
            while len(self._poison_ids) > POISON_MEMORY:
                self._poison_ids.pop(next(iter(self._poison_ids)))
        diagnostics.record_event(
            "request_poisoned",
            request_id=unit_id,
            kills=kills,
            error=type(error).__name__,
        )
        return PoisonRequest(
            f"request {unit_id} killed {kills} shard worker(s) (last: "
            f"{type(error).__name__}); quarantined instead of crash-looping "
            "the pool"
        )

    def _finalise(
        self,
        ticket: RequestTicket,
        result: Any,
        error: BaseException | None,
        attempts: int,
        backend: str,
        started: float,
    ) -> None:
        ticket.diagnostics.update(
            attempts=attempts,
            backend=backend,
            service_s=round(time.monotonic() - started, 6),
        )
        if error is not None:
            ticket.diagnostics["error"] = type(error).__name__
        diagnostics.record_event(
            "request_served" if error is None else "request_failed",
            **ticket.diagnostics,
        )
        # One lock for counters, completion and the drain condition: whoever
        # sees the ticket done (or the server drained) sees it counted.
        with self._idle:
            if error is None:
                self.served += 1
                ticket._complete(result)
            else:
                self.failed += 1
                ticket._fail(error)
            self._outstanding.discard(ticket)
            self._idle.notify_all()
