"""Typed error taxonomy for the whole stack.

Every failure the library can diagnose is raised as a :class:`ReproError`
subclass, so callers (and the serving layer the ROADMAP aims at) can catch one
base type, and tests can assert on *which* guardrail fired instead of pattern
matching message strings.  The concrete classes multiply-inherit from the
builtin exception the old code raised (``ValueError`` / ``KeyError``), so
pre-existing ``except ValueError`` call sites and tests keep working.

Hierarchy
---------
``ReproError``
    ``ParameterError(ValueError)`` -- malformed or out-of-range arguments
        ``IncompatibleOperands`` -- two operands whose ring / level / scale /
        domain metadata disagree (both operands' metadata in the message)
        ``LevelExhausted`` -- the modulus chain has no level left for the
        requested rescale / level-drop
        ``ScaleOverflow`` -- a scale product would overflow the remaining
        modulus budget
    ``NoiseBudgetExhausted(ValueError)`` -- the tracked noise estimate says a
    decode would be garbage; ``bootstrap()`` is the remedy
    ``MissingKeyError(KeyError)`` -- evaluation/Galois key material absent
    ``BackendExactnessError(ArithmeticError)`` -- a kernel backend failed an
    exactness sentinel (known-answer probe or strict-mode spot check)
    ``ServingError`` -- the serving-runtime branch (``repro.serving``)
        ``ServiceOverloaded(RuntimeError)`` -- admission control shed the
        request (queue full); safe for the *client* to retry with backoff
        ``ServiceUnavailable(RuntimeError)`` -- the server is draining or
        stopped and accepts no new work
        ``DeadlineExceeded(TimeoutError)`` -- the request's deadline passed
        (checked cooperatively at evaluator checkpoints); terminal
        ``RequestCancelled`` -- the request's cancel scope was cancelled
        explicitly (drain, client abandon); terminal
        ``TenantNotFound(KeyError)`` -- no session registered for the tenant
        ``WorkerCrashed(RuntimeError)`` -- a shard process died mid-request
        (SIGKILL, native crash, OOM kill); retryable on a healthy shard
        ``WorkerUnresponsive(TimeoutError)`` -- a shard stopped heartbeating
        and was killed by the supervisor; retryable on a healthy shard
        ``PoisonRequest(RuntimeError)`` -- the same request killed two
        workers; quarantined instead of crash-looping the pool; terminal
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "ReproError",
    "ParameterError",
    "IncompatibleOperands",
    "LevelExhausted",
    "ScaleOverflow",
    "NoiseBudgetExhausted",
    "MissingKeyError",
    "BackendExactnessError",
    "ServingError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "DeadlineExceeded",
    "RequestCancelled",
    "TenantNotFound",
    "WorkerCrashed",
    "WorkerUnresponsive",
    "PoisonRequest",
    "operand_signature",
]


class ReproError(Exception):
    """Base class of every typed error raised by this library."""


class ParameterError(ReproError, ValueError):
    """An argument is malformed, out of range, or inconsistent."""


def operand_signature(operand: Any) -> str:
    """One-line ring/level/scale/domain signature of a ciphertext or plaintext.

    Reads attributes defensively so it can describe half-built objects inside
    an exception path without raising a second error.
    """
    parts: list[str] = [type(operand).__name__]
    if getattr(operand, "basis", None) is not None:
        poly = operand  # a bare RnsPolynomial
    else:
        poly = getattr(operand, "c0", None)
        if poly is None:
            poly = getattr(operand, "poly", None)
    basis = getattr(poly, "basis", None)
    if basis is not None:
        parts.append(f"ring=N{basis.degree}xL{basis.size}")
        domain = getattr(poly, "domain", None)
        if domain is not None:
            parts.append(f"domain={domain}")
    level = getattr(operand, "level", None)
    if level is not None:
        parts.append(f"level={level}")
    scale = getattr(operand, "scale", None)
    if scale is not None:
        if scale > 0:
            parts.append(f"scale=2^{math.log2(scale):.2f}")
        else:
            parts.append(f"scale={scale}")
    return "<" + " ".join(parts) + ">"


class IncompatibleOperands(ParameterError):
    """Two operands disagree on ring identity, level, scale, or domain.

    The message always carries both operands' signatures so a failure deep in
    an evaluator pipeline is diagnosable without a debugger.
    """

    def __init__(self, reason: str, lhs: Any = None, rhs: Any = None):
        detail = reason
        if lhs is not None or rhs is not None:
            detail = (
                f"{reason}: lhs={operand_signature(lhs)} "
                f"rhs={operand_signature(rhs)}"
            )
        super().__init__(detail)
        self.reason = reason
        self.lhs = lhs
        self.rhs = rhs


class LevelExhausted(ParameterError):
    """The modulus chain is out of levels for the requested operation."""


class ScaleOverflow(ParameterError):
    """A scale product would exceed the remaining ciphertext-modulus budget."""


class NoiseBudgetExhausted(ReproError, ValueError):
    """The tracked noise budget is spent: decoding now would return garbage.

    Raised *before* the corrupted decode happens.  The remedy is to
    ``bootstrap()`` the ciphertext (or restart from a fresh encryption at a
    higher level).
    """


class MissingKeyError(ReproError, KeyError, ValueError):
    """Required evaluation / relinearisation / Galois key material is absent.

    Inherits both ``KeyError`` (the historical type for absent key-set
    entries) and ``ValueError`` (the historical type for evaluators built
    without keys), so either legacy ``except`` clause still catches it.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep a readable message
        return ", ".join(str(a) for a in self.args)


class BackendExactnessError(ReproError, ArithmeticError):
    """A compute backend failed an exactness sentinel.

    Raised when a known-answer probe or strict-mode spot check catches a
    backend producing wrong residues (hardware fault, corrupted tables,
    miscalibration).  The dispatch layer quarantines the backend and degrades
    four_step -> butterfly -> reference instead of corrupting
    ciphertexts.
    """


class ServingError(ReproError):
    """Base class of the serving-runtime (``repro.serving``) failures.

    The retry policy treats every ``ServingError`` as terminal *server-side*:
    a shed or expired request must not silently re-enter the queue.  Clients
    may retry :class:`ServiceOverloaded` with their own backoff.
    """


class ServiceOverloaded(ServingError, RuntimeError):
    """Admission control rejected the request: the bounded queue is full.

    This is load shedding, not failure of the work itself -- the request was
    never accepted, so the client can safely retry after backing off.  The
    message carries the queue depth and capacity so the rejection is
    self-diagnosing.
    """


class ServiceUnavailable(ServingError, RuntimeError):
    """The server is draining or stopped and accepts no new requests."""


class DeadlineExceeded(ServingError, TimeoutError):
    """The request's deadline passed before its circuit completed.

    Raised cooperatively at evaluator checkpoints (every public operator
    validates its operands and polls the ambient cancel scope), so a deep
    circuit aborts between HE operations instead of running to completion on
    a request nobody is waiting for.  Terminal: retrying cannot beat a
    deadline that has already passed.
    """


class RequestCancelled(ServingError):
    """The request's cancel scope was cancelled explicitly.

    Graceful drain and client abandonment cancel in-flight scopes; the next
    evaluator checkpoint raises this instead of finishing the circuit.
    """


class TenantNotFound(ServingError, KeyError):
    """No session is registered for the requested tenant id."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep a readable message
        return ", ".join(str(a) for a in self.args)


class WorkerCrashed(ServingError, RuntimeError):
    """A shard worker process died while holding a request.

    Raised parent-side when the supervisor observes a dead process (nonzero
    exitcode, a kill signal, pipe EOF) with a request in flight.  Unlike the
    rest of the ``ServingError`` branch this is *retryable*: the fault is in
    the crashed fault domain, not the request, so the server re-dispatches
    to a healthy shard while the victim restarts.  ``delivered`` is
    ``False`` when the pipe died before the worker received the request: it
    never ran, so the crash says nothing about it.
    """

    def __init__(self, message: str = "", *, delivered: bool = True):
        super().__init__(message)
        self.delivered = delivered


class WorkerUnresponsive(ServingError, TimeoutError):
    """A shard worker stopped heartbeating (or overran its reply grace).

    The supervisor kills the wedged process and raises this for the in-flight
    request.  Retryable for the same reason as :class:`WorkerCrashed`: a hang
    in one fault domain says nothing about the request on a healthy shard --
    unless it happens twice, at which point :class:`PoisonRequest` takes over.
    """


class PoisonRequest(ServingError, RuntimeError):
    """The same request has killed (or hung) two workers; it is quarantined.

    Re-dispatching a worker-killing request a third time would crash-loop the
    pool, so after the second kill the server fails it typed and refuses to
    execute that request id again.  Terminal: the fault travels with the
    request, and only the client can fix the payload.
    """
