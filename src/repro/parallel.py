"""Intra-request parallelism: :func:`fan_out` under a per-context core budget.

One HE request holds independent work -- the giant steps of a BSGS matvec
(:meth:`repro.ckks.linear_transform.DiagonalLinearTransform.apply`) never
read each other's results.  :func:`fan_out` runs such a list of independent
calls on up to
:func:`core_budget` cores: the calling thread plus helper jobs submitted to
one lazily started, process-wide ``ThreadPoolExecutor`` (one thread per spare
core, at least one).  NumPy and BLAS release the GIL inside their kernels, so
the helpers overlap real work.

The budget is a ``contextvars`` value, so it follows a request into every
thread that serves it.  It defaults to the CPUs this process may run on
(``os.sched_getaffinity``); a serving tier that already runs several requests
at once sets ``max(1, cores // callers)`` around each of its callers
(:func:`cores_per`, :func:`core_budget_scope`), which on a machine with as
many callers as cores is 1.  Budget 1 is the serial case of the same call:
every item runs in order on the calling thread.

Guarantees:

* the caller never waits for a helper to become free -- it works through
  the shared item cursor itself, and a helper job that has not started by
  the time the items run out is cancelled;
* a ``fan_out`` inside a ``fan_out`` item runs inline, so nesting cannot
  deadlock and the budget is never exceeded;
* each helper runs in a copy of the caller's context, so the caller's
  :class:`~repro.cancellation.CancelScope` (and :func:`checkpoint`) apply
  inside it;
* the caller joins every helper job that started before it returns or
  raises, and the first error raised by any item is re-raised unchanged.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = [
    "available_cores",
    "core_budget",
    "core_budget_scope",
    "cores_per",
    "fan_out",
]

T = TypeVar("T")
R = TypeVar("R")

_BUDGET: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "repro_core_budget", default=None
)
#: True inside a fan_out (on the caller while it runs items, and in every
#: helper): a nested fan_out then runs inline.
_NESTED: "contextvars.ContextVar[bool]" = contextvars.ContextVar(
    "repro_fan_out_nested", default=False
)


def available_cores() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def cores_per(callers: int) -> int:
    """The budget of each of ``callers`` concurrent requests: ``cores // callers``, at least 1."""
    return max(1, available_cores() // callers)


def core_budget() -> int:
    """Cores :func:`fan_out` may use in the current context."""
    budget = _BUDGET.get()
    return available_cores() if budget is None else budget


@contextlib.contextmanager
def core_budget_scope(cores: int) -> Iterator[int]:
    """Run the block (and every helper it fans out to) under ``cores`` cores."""
    cores = int(cores)
    if cores < 1:
        raise ValueError(f"a core budget must be >= 1, got {cores}")
    token = _BUDGET.set(cores)
    try:
        yield cores
    finally:
        _BUDGET.reset(token)


_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_LOCK = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The process-wide helper threads: one per spare core, at least one."""
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            _EXECUTOR = ThreadPoolExecutor(
                max(1, available_cores() - 1), thread_name_prefix="repro-fan-out"
            )
        return _EXECUTOR


def fan_out(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(item) for item in items]``, on up to :func:`core_budget` cores.

    Items are handed out one at a time to the calling thread and to the
    helpers that pick up its jobs, so unequal items balance themselves;
    results come back in item order.  Callers pass independent items only --
    the order in which items run is not defined.  The first exception any
    item raises stops the hand-out and is re-raised here, after every helper
    that started has finished its current item.
    """
    items = list(items)
    budget = core_budget()
    if len(items) < 2 or budget < 2 or _NESTED.get():
        return [fn(item) for item in items]

    results: list = [None] * len(items)
    errors: list[BaseException] = []
    lock = threading.Lock()
    cursor = iter(range(len(items)))

    def work() -> None:
        while True:
            with lock:
                index = None if errors else next(cursor, None)
            if index is None:
                return
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # re-raised by the caller below
                with lock:
                    errors.append(exc)
                return

    token = _NESTED.set(True)
    helpers: list[Future] = []
    try:
        executor = _executor()
        for _ in range(min(budget, len(items)) - 1):
            # One context copy per helper (a context runs on one thread at a
            # time); each carries _NESTED = True and the caller's scope.
            helpers.append(executor.submit(contextvars.copy_context().run, work))
        work()
    finally:
        _NESTED.reset(token)
        # A job still queued behind busy helpers is not waited for: the
        # caller has already run its share.
        for helper in helpers:
            helper.cancel()
        wait(helpers)
    if errors:
        raise errors[0]
    return results
