"""Retry policy: classify the error taxonomy, back off with jitter.

PR 6's typed :class:`~repro.errors.ReproError` hierarchy makes retry
classification a type check instead of message matching:

* **retryable** -- :class:`~repro.errors.BackendExactnessError`: a kernel
  backend failed an exactness sentinel.  The guardrails quarantine the
  backend (directly or via the circuit breaker), so the retry re-dispatches
  down the degradation ladder ``four_step -> butterfly -> reference`` and
  succeeds on a healthy rung.  This is the *transient* class: the fault is
  in the compute substrate, not the request.

* **retryable** -- :class:`~repro.errors.WorkerCrashed` /
  :class:`~repro.errors.WorkerUnresponsive`: a shard process died or hung
  under the request (one attempt of
  :meth:`~repro.serving.supervisor.ShardSupervisor.execute`).  The fault
  lives in the dead fault domain, not the request, so the server's retry
  loop re-dispatches it to a healthy shard -- until the same request kills
  a second worker and the loop converts it to the terminal
  :class:`~repro.errors.PoisonRequest` before consulting this policy.  A
  frame the worker never received (``WorkerCrashed.delivered`` false)
  costs an attempt but is never a kill.  These are the only retryable
  errors that are *not* backend-attributable (see
  :func:`backend_attributable`): feeding a worker kill to the circuit
  breaker would quarantine an innocent NTT backend.

* **terminal** -- everything that retrying cannot fix: malformed requests
  (:class:`~repro.errors.ParameterError` and subclasses), an exhausted noise
  budget (:class:`~repro.errors.NoiseBudgetExhausted` -- only ``bootstrap()``
  or a fresh encryption helps), missing key material
  (:class:`~repro.errors.MissingKeyError`), and every other
  :class:`~repro.errors.ServingError` (a passed deadline stays passed, a
  poisoned request stays poisoned).  Unknown exception types are
  conservatively terminal: retrying an undiagnosed failure just burns the
  deadline.

Backoff is exponential with full jitter (``delay = U(1 - jitter, 1] *
base * multiplier**attempt``, capped), the standard shape for avoiding
retry synchronisation across concurrent requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    BackendExactnessError,
    PoisonRequest,
    ReproError,
    ServingError,
    WorkerCrashed,
    WorkerUnresponsive,
)

__all__ = ["RetryPolicy", "backend_attributable", "is_retryable"]


def is_retryable(error: BaseException) -> bool:
    """Whether the serving runtime should re-attempt after ``error``."""
    if isinstance(error, PoisonRequest):
        return False
    if isinstance(error, (WorkerCrashed, WorkerUnresponsive)):
        # Checked before the ServingError branch: worker kills are the one
        # serving fault that a re-dispatch (to a healthy shard) can fix.
        return True
    if isinstance(error, ServingError):
        return False
    if isinstance(error, BackendExactnessError):
        return True
    if isinstance(error, ReproError):
        return False
    return False


def backend_attributable(error: BaseException) -> bool:
    """Whether ``error`` indicts the compute backend (circuit-breaker food).

    Only exactness-sentinel failures implicate the kernel substrate; a shard
    crash or hang is a process-level fault and must not push an NTT backend
    down the quarantine ladder.
    """
    return isinstance(error, BackendExactnessError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with full jitter.

    ``max_attempts`` counts executions, not retries: the default of 3 means
    one initial attempt plus up to two retries.  ``jitter`` is the fraction
    of each delay that is randomised away (0 = deterministic, 1 = anywhere
    in ``(0, delay]``).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    max_delay_s: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(
            self.base_delay_s * self.multiplier ** max(attempt - 1, 0),
            self.max_delay_s,
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        rng = rng or random
        return raw * (1.0 - self.jitter * rng.random())

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether to run attempt ``attempt + 1`` after ``error``."""
        return attempt < self.max_attempts and is_retryable(error)
