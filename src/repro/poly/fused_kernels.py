"""Fused element-wise kernels: the ModDown subtract-and-divide.

Each kernel is one element-wise stage of the key-switch hot path executed as
ONE pass, with three interchangeable, bit-exact implementations:

* ``numexpr`` -- each kernel is a single ``ne.evaluate`` expression, one
  chunked pass over the operand;
* ``numba`` -- ``@njit`` kernels compiled lazily on first use;
* ``numpy`` -- the eager pass sequence, op for op, used when neither
  accelerator is installed (bit-exact, merely not faster).

The one kernel is ``moddown_sub_div``
(`repro.ckks.keyswitch.mod_down_stacked`).  The NTT itself runs as dense
GEMMs in `repro.poly.ntt_engine`; none of its stages route through here.

Implementation selection is process-wide via :func:`active_mode`
(``REPRO_FUSED_KERNELS`` = ``auto`` | ``numexpr`` | ``numba`` | ``numpy``).
Requesting an accelerator that is not importable falls back to ``numpy`` and
records a ``fused_kernels_unavailable`` diagnostics event -- never an import
error at call time.

Exactness contract: every implementation computes the same integer residues
as the eager path, so outputs are bit-identical across modes.  The hypothesis
sweeps in ``tests/test_fused_kernels.py`` enforce this kernel by kernel.

Instrumentation: inside a :func:`trace` context every kernel call is appended
to the trace buffer -- which is how tests pin "this stage executed as that
kernel".
"""

from __future__ import annotations

import contextlib
import os
import threading
from importlib import import_module

import numpy as np

from repro import diagnostics
from repro.errors import ParameterError

MODE_ENV = "REPRO_FUSED_KERNELS"
MODE_AUTO = "auto"
MODE_NUMEXPR = "numexpr"
MODE_NUMBA = "numba"
MODE_NUMPY = "numpy"
MODES = (MODE_AUTO, MODE_NUMEXPR, MODE_NUMBA, MODE_NUMPY)

#: numexpr has no unsigned 64-bit type; integer kernels route through int64,
#: which is exact only while products stay below 2**62, i.e. q < 2**31.
_NUMEXPR_INT_MODULUS_BOUND = 1 << 31

_module_cache: dict[str, object | None] = {}


def _optional_module(name: str):
    """Import an optional accelerator module once; ``None`` when absent."""
    if name not in _module_cache:
        try:
            _module_cache[name] = import_module(name)
        except Exception:  # pragma: no cover - import-time failures vary
            _module_cache[name] = None
    return _module_cache[name]


def requested_mode() -> str:
    """The ``REPRO_FUSED_KERNELS`` request (validated), default ``auto``."""
    value = os.environ.get(MODE_ENV, "").strip().lower()
    if value and value not in MODES:
        raise ParameterError(f"{MODE_ENV}={value!r} is not one of {MODES}")
    return value or MODE_AUTO


#: Memoised (env value, resolved mode); re-resolved when the env changes.
_resolved: tuple[str, str] | None = None


def active_mode() -> str:
    """The implementation actually executing: ``numexpr``/``numba``/``numpy``.

    ``auto`` prefers numexpr (single-expression kernels, no compile latency),
    then numba, then the numpy fallback.  An explicit request for an absent
    accelerator degrades to ``numpy`` with a ``fused_kernels_unavailable``
    diagnostics event rather than failing.
    """
    global _resolved
    requested = requested_mode()
    if _resolved is not None and _resolved[0] == requested:
        return _resolved[1]
    if requested == MODE_NUMPY:
        mode = MODE_NUMPY
    elif requested in (MODE_NUMEXPR, MODE_NUMBA):
        if _optional_module(requested) is not None:
            mode = requested
        else:
            diagnostics.record_event(
                "fused_kernels_unavailable", requested=requested, fallback=MODE_NUMPY
            )
            mode = MODE_NUMPY
    else:  # auto
        if _optional_module(MODE_NUMEXPR) is not None:
            mode = MODE_NUMEXPR
        elif _optional_module(MODE_NUMBA) is not None:
            mode = MODE_NUMBA
        else:
            mode = MODE_NUMPY
    _resolved = (requested, mode)
    return mode


# -------------------------------------------------------------- bookkeeping
_TRACES: list[list[str]] = []
#: Kernels run on several threads at once (server workers, fan-out helpers),
#: so the trace buffers are guarded by this lock.
_TRACES_LOCK = threading.Lock()


@contextlib.contextmanager
def trace():
    """Record the kernel names executed inside the block, in call order.

    Yields the (live) list; nested traces each capture independently.
    """
    buffer: list[str] = []
    with _TRACES_LOCK:
        _TRACES.append(buffer)
    try:
        yield buffer
    finally:
        with _TRACES_LOCK:
            _TRACES.remove(buffer)


def _record(name: str) -> None:
    with _TRACES_LOCK:
        for buffer in _TRACES:
            buffer.append(name)


# ---------------------------------------------------------------- numpy impls
# Each numpy implementation replays the eager expression it replaced op for op.
def _np_moddown_sub_div(residues, subtrahend, moduli, inverses):
    diff = residues + (moduli - subtrahend)
    diff = np.where(diff >= moduli, diff - moduli, diff)
    return (diff * inverses) % moduli


# -------------------------------------------------------------- numexpr impls
# One ne.evaluate per kernel: the whole expression is a single chunked pass.
def _ne(expr: str, local_dict: dict):
    return _optional_module(MODE_NUMEXPR).evaluate(expr, local_dict=local_dict)


def _ne_int_ok(q) -> bool:
    return bool(np.all(np.asarray(q, dtype=np.uint64) < _NUMEXPR_INT_MODULUS_BOUND))


def _ne_int(a):
    return np.asarray(a, dtype=np.uint64).astype(np.int64)


def _ne_moddown_sub_div(residues, subtrahend, moduli, inverses):
    if not _ne_int_ok(moduli):
        return _np_moddown_sub_div(residues, subtrahend, moduli, inverses)
    out = _ne(
        "(((r + (q - s)) % q) * v) % q",
        {
            "r": _ne_int(residues),
            "s": _ne_int(subtrahend),
            "q": _ne_int(moduli),
            "v": _ne_int(inverses),
        },
    )
    return out.astype(np.uint64)


# ---------------------------------------------------------------- numba impls
#: Lazily compiled @njit kernels, keyed by kernel name.
_NUMBA_KERNELS: dict[str, object] = {}


def _numba_kernel(name: str):
    if not _NUMBA_KERNELS:
        _build_numba_kernels()
    return _NUMBA_KERNELS[name]


def _build_numba_kernels() -> None:
    """Compile the njit kernel set on first use.

    Array expressions inside njit follow NumPy broadcasting, so the kernel
    takes the per-limb modulus and inverse columns as they are.
    """
    numba = _optional_module(MODE_NUMBA)
    njit = numba.njit

    @njit(cache=False, fastmath=False)
    def nb_moddown(residues, subtrahend, moduli, inverses):
        diff = residues + (moduli - subtrahend)
        diff = np.where(diff >= moduli, diff - moduli, diff)
        return (diff * inverses) % moduli

    _NUMBA_KERNELS.update(moddown=nb_moddown)


def _nb_moddown_sub_div(residues, subtrahend, moduli, inverses):
    return _numba_kernel("moddown")(
        np.asarray(residues, dtype=np.uint64), subtrahend, moduli, inverses
    )


_IMPLS = {
    MODE_NUMPY: {"moddown_sub_div": _np_moddown_sub_div},
    MODE_NUMEXPR: {"moddown_sub_div": _ne_moddown_sub_div},
    MODE_NUMBA: {"moddown_sub_div": _nb_moddown_sub_div},
}


# ------------------------------------------------------------ public kernels
def moddown_sub_div(residues, subtrahend, moduli, inverses):
    """Fused RNS division: ``(residues - subtrahend) * inverses mod q``.

    The ModDown correction and the rescale: ``moduli``/``inverses`` are
    per-limb columns broadcast against ``(..., L, N)`` residues.
    """
    _record("moddown_sub_div")
    return _IMPLS[active_mode()]["moddown_sub_div"](
        residues, subtrahend, moduli, inverses
    )
