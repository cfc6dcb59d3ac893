"""Cooperative cancellation and deadlines for deep evaluator circuits.

A homomorphic circuit is a long chain of CPU-bound NumPy calls: nothing in it
blocks, so nothing in it can be interrupted from outside.  The serving layer
therefore cancels *cooperatively*: each request runs inside a
:class:`CancelScope` (installed per-thread via a ``contextvars.ContextVar``),
and the hot path polls :func:`checkpoint` at natural operation boundaries --
:meth:`repro.ckks.evaluator.CkksEvaluator.validate` calls it on entry to
every public operator, so a depth-63 Paterson-Stockmeyer chain or a full
bootstrap hits a checkpoint between every HE operation it executes.

Past-deadline scopes raise :class:`~repro.errors.DeadlineExceeded`; scopes
cancelled explicitly (graceful drain, client abandonment) raise
:class:`~repro.errors.RequestCancelled`.  Outside any scope,
:func:`checkpoint` is a single ``ContextVar.get`` -- cheap enough to sit on
the evaluator entry path unconditionally.

Scopes nest: an inner scope checks its ancestors too, so a sub-circuit with
its own (tighter) timeout still honours the request-level deadline.
"""

from __future__ import annotations

import contextvars
import threading
import time
from typing import Callable, Optional

from repro.errors import DeadlineExceeded, RequestCancelled

__all__ = ["CancelScope", "checkpoint"]

_SCOPE: "contextvars.ContextVar[Optional[CancelScope]]" = contextvars.ContextVar(
    "repro_cancel_scope", default=None
)


class CancelScope:
    """One cancellable unit of work with an optional deadline.

    ``timeout`` is seconds from scope creation; ``deadline`` is an absolute
    time on ``clock`` (default ``time.monotonic``).  :meth:`cancel` may be
    called from any thread; the owning thread observes it at its next
    :func:`checkpoint`.  Use as a context manager to install the scope for
    the current thread/context.
    """

    __slots__ = (
        "label",
        "deadline",
        "checkpoints",
        "_clock",
        "_cancelled",
        "_reason",
        "_parent",
        "_token",
    )

    def __init__(
        self,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        label: str = "",
    ):
        self._clock = clock
        self.label = label
        if deadline is None and timeout is not None:
            deadline = clock() + float(timeout)
        self.deadline = deadline
        self.checkpoints = 0
        self._cancelled = threading.Event()
        self._reason = ""
        self._parent: CancelScope | None = None
        self._token = None

    # ------------------------------------------------------------- inspection
    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called (deadline expiry excluded)."""
        return self._cancelled.is_set()

    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` without one, floored at 0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    def expired(self) -> bool:
        """Whether the deadline (if any) has passed."""
        return self.deadline is not None and self._clock() >= self.deadline

    # ---------------------------------------------------------------- control
    def cancel(self, reason: str = "") -> None:
        """Request cancellation; the owning thread raises at its next checkpoint."""
        self._reason = reason or "cancelled"
        self._cancelled.set()

    def check(self) -> None:
        """Raise if this scope (or an enclosing one) is cancelled or expired."""
        self.checkpoints += 1
        scope: CancelScope | None = self
        while scope is not None:
            if scope._cancelled.is_set():
                raise RequestCancelled(
                    f"request {scope.label or 'scope'} cancelled: {scope._reason}"
                )
            if scope.expired():
                raise DeadlineExceeded(
                    f"request {scope.label or 'scope'} exceeded its deadline "
                    f"after {scope.checkpoints} checkpoint(s)"
                )
            scope = scope._parent
        return None

    # ---------------------------------------------------------- scope install
    def __enter__(self) -> "CancelScope":
        self._parent = _SCOPE.get()
        self._token = _SCOPE.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _SCOPE.reset(self._token)
            self._token = None
        self._parent = None


def checkpoint() -> None:
    """Poll the ambient cancel scope; no-op (one ``ContextVar.get``) without one."""
    scope = _SCOPE.get()
    if scope is not None:
        scope.check()
