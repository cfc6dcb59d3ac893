"""Per-backend circuit breaker layered on the NTT quarantine ladder.

The NTT engine's quarantine (PR 6) is the *tripping* half of a circuit
breaker: a failed exactness sentinel removes the backend from dispatch and
every plan reroutes down the degradation ladder.  What it lacks is
*recovery* -- a quarantine holds until an operator calls
``clear_quarantine()``, so one transient fault permanently costs the fast
backend.  This breaker adds the missing states:

* **closed** -- backend healthy, failures counted against ``failure_threshold``.
* **open** -- backend quarantined (by this breaker after repeated failures,
  or adopted from a sentinel-driven quarantine).  Dispatch routes around it;
  a cooldown timer runs.
* **half-open** -- cooldown elapsed: :meth:`maybe_probe` lifts the
  quarantine (:func:`repro.poly.ntt_engine.lift_quarantine`) and re-probes
  with :func:`repro.poly.ntt_engine.verify_plan` known-answer checks.  A
  clean probe closes the circuit (full capacity restored); a failed probe
  re-quarantines and doubles the cooldown, up to ``max_cooldown_s``.

Every transition is recorded in :mod:`repro.diagnostics` so the healing is
observable.  All methods are thread-safe; probes are serialised so
concurrent workers cannot double-lift a quarantine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro import diagnostics
from repro.poly import ntt_engine

__all__ = ["CircuitBreaker", "BreakerSnapshot"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class _BackendCircuit:
    backend: str
    state: str = CLOSED
    failures: int = 0
    opened_at: float = 0.0
    cooldown_s: float = 0.0
    probes: int = 0
    trips: int = 0


@dataclass(frozen=True)
class BreakerSnapshot:
    """Read-only view of one backend's circuit for health reports."""

    backend: str
    state: str
    failures: int
    trips: int
    probes: int
    cooldown_s: float

    def as_dict(self) -> dict:
        """JSON-ready form for ``--json`` bench output and health probes."""
        return {
            "backend": self.backend,
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
            "probes": self.probes,
            "cooldown_s": self.cooldown_s,
        }


class CircuitBreaker:
    """Trip, route around, and re-probe NTT backends per the quarantine ladder."""

    def __init__(
        self,
        *,
        failure_threshold: int = 1,
        cooldown_s: float = 0.5,
        cooldown_multiplier: float = 2.0,
        max_cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.base_cooldown_s = cooldown_s
        self.cooldown_multiplier = cooldown_multiplier
        self.max_cooldown_s = max_cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._circuits: dict[str, _BackendCircuit] = {}

    def _circuit(self, backend: str) -> _BackendCircuit:
        circuit = self._circuits.get(backend)
        if circuit is None:
            circuit = self._circuits[backend] = _BackendCircuit(backend=backend)
        return circuit

    # ----------------------------------------------------------- observations
    def record_failure(self, backend: str, **details) -> bool:
        """Count a backend-attributed failure; trip the circuit at threshold.

        Tripping quarantines the backend (idempotently -- the sentinel may
        already have), so the very next dispatch reroutes.  Returns whether
        this call opened the circuit.
        """
        with self._lock:
            circuit = self._circuit(backend)
            circuit.failures += 1
            if circuit.state == OPEN:
                return False
            if circuit.state == HALF_OPEN or circuit.failures >= self.failure_threshold:
                self._open(circuit, reason=details.pop("reason", "failure threshold"))
                tripped = True
            else:
                tripped = False
        if tripped and backend in ntt_engine.BACKENDS_QUARANTINABLE:
            ntt_engine.quarantine_backend(backend, reason="circuit breaker", **details)
        return tripped

    def record_success(self, backend: str) -> None:
        """A request served on ``backend`` succeeded; decay its failure count."""
        with self._lock:
            circuit = self._circuits.get(backend)
            if circuit is None:
                return
            if circuit.state == CLOSED and circuit.failures:
                circuit.failures = 0

    def _open(self, circuit: _BackendCircuit, *, reason: str) -> None:
        previous = circuit.cooldown_s
        circuit.state = OPEN
        circuit.trips += 1
        circuit.opened_at = self._clock()
        circuit.cooldown_s = (
            self.base_cooldown_s
            if previous == 0.0
            else min(previous * self.cooldown_multiplier, self.max_cooldown_s)
        )
        diagnostics.record_event(
            "breaker_opened",
            backend=circuit.backend,
            reason=reason,
            cooldown_s=round(circuit.cooldown_s, 3),
            trips=circuit.trips,
        )

    def observe_quarantine(self) -> None:
        """Adopt sentinel-driven quarantines so they also get cooldown recovery."""
        for backend in ntt_engine.quarantined_backends():
            with self._lock:
                circuit = self._circuit(backend)
                if circuit.state != OPEN:
                    self._open(circuit, reason="adopted external quarantine")

    # ---------------------------------------------------------------- probing
    def maybe_probe(self, plans: Iterable) -> dict[str, bool]:
        """Half-open every cooled-down circuit and re-probe it.

        ``plans`` are representative
        :class:`~repro.poly.ntt_engine.NttPlanStack` objects (typically one
        per tenant ring); each is re-verified with :func:`verify_plan` after
        the quarantine is lifted.
        Returns ``{backend: recovered}`` for every probe attempted.
        """
        self.observe_quarantine()
        outcomes: dict[str, bool] = {}
        now = self._clock()
        with self._lock:
            due = [
                circuit
                for circuit in self._circuits.values()
                if circuit.state == OPEN
                and now - circuit.opened_at >= circuit.cooldown_s
            ]
            for circuit in due:
                circuit.state = HALF_OPEN
        for circuit in due:
            outcomes[circuit.backend] = self._probe(circuit, plans)
        return outcomes

    def _probe(self, circuit: _BackendCircuit, plans: Iterable) -> bool:
        backend = circuit.backend
        with self._lock:
            circuit.probes += 1
        lifted = ntt_engine.lift_quarantine(backend)
        healthy = True
        for plan in plans:
            # verify_plan probes whatever backend the plan resolves to *now*
            # (the lifted one, for plans that prefer it) and re-quarantines
            # on a known-answer mismatch.
            if not ntt_engine.verify_plan(plan):
                healthy = False
        if backend in ntt_engine.quarantined_backends():
            healthy = False
        with self._lock:
            if healthy:
                circuit.state = CLOSED
                circuit.failures = 0
                circuit.cooldown_s = 0.0
                diagnostics.record_event(
                    "breaker_closed", backend=backend, probes=circuit.probes
                )
            else:
                self._open(circuit, reason="half-open probe failed")
        if not healthy and lifted and backend not in ntt_engine.quarantined_backends():
            # The probe plans never resolved to this backend, so verify_plan
            # could not re-quarantine it; restore the open state's quarantine.
            ntt_engine.quarantine_backend(backend, reason="circuit breaker re-open")
        return healthy

    # ------------------------------------------------------------- inspection
    def snapshot(self) -> dict[str, BreakerSnapshot]:
        """Per-backend circuit states for the health report."""
        with self._lock:
            return {
                name: BreakerSnapshot(
                    backend=name,
                    state=circuit.state,
                    failures=circuit.failures,
                    trips=circuit.trips,
                    probes=circuit.probes,
                    cooldown_s=circuit.cooldown_s,
                )
                for name, circuit in self._circuits.items()
            }

    def state(self, backend: str) -> str:
        """The circuit state of ``backend`` (``closed`` when untracked)."""
        with self._lock:
            circuit = self._circuits.get(backend)
            return circuit.state if circuit else CLOSED
