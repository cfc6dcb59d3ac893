"""Fused element-wise kernels: the executable lowering target for `core/schedule`.

The four-step GEMM backend's residual ceiling is the ~30 eager NumPy
element-wise passes between its two BLAS calls: every reduce / scale / merge
step streams the whole tile through memory again.  This module packages each
*segment* of the compiled execution schedule (see
`repro.core.schedule.ExecutionSchedule`) as ONE fused kernel with three
interchangeable, bit-exact implementations:

* ``numexpr`` -- each segment is a single ``ne.evaluate`` expression, so the
  whole merge/reduce chain runs in one chunked pass over the operand;
* ``numba`` -- ``@njit`` kernels (``fastmath=False``: the exact-float64
  algebra of `repro.poly.gemm_mod` must not be re-associated) compiled lazily
  on first use;
* ``numpy`` -- the eager pass sequence, op for op, used when neither
  accelerator is installed.  This keeps the ``fused`` NTT backend available
  (and bit-exact) on a minimal install, it is merely not faster there.

Implementation selection is process-wide via :func:`active_mode`
(``REPRO_FUSED_KERNELS`` = ``auto`` | ``numexpr`` | ``numba`` | ``numpy``).
Requesting an accelerator that is not importable falls back to ``numpy`` and
records a ``fused_kernels_unavailable`` diagnostics event -- never an import
error at call time.

Exactness contract: every implementation performs the *same* IEEE-754 float64
operations in the same order as the eager path (multiply / add / ``floor`` are
correctly rounded and therefore deterministic), so outputs are bit-identical
across modes.  The hypothesis sweeps in ``tests/test_fused_backend.py``
enforce this kernel by kernel; the dispatch-layer sentinels and strict-mode
spot checks (`repro.poly.ntt_engine`) enforce it end to end at runtime.

Instrumentation: every kernel call is counted (:func:`kernel_counts`) and,
inside a :func:`trace` context, appended to the trace buffer -- which is how
the compiler-lowering parity tests pin "this schedule segment executed as
that kernel".
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

    ``auto`` prefers numexpr (single-expression segments, no compile latency),
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


def accelerated() -> bool:
    """True when an accelerated (numexpr/numba) implementation is active."""
    return active_mode() != MODE_NUMPY


def available_modes() -> tuple[str, ...]:
    """The implementations importable in this process (always includes numpy)."""
    modes = [
        mode
        for mode in (MODE_NUMEXPR, MODE_NUMBA)
        if _optional_module(mode) is not None
    ]
    return tuple(modes) + (MODE_NUMPY,)


# -------------------------------------------------------------- bookkeeping
KERNEL_NAMES = (
    "merge_lazy",
    "twist_split",
    "merge_canonical",
    "vec_mod_mul",
    "vec_mod_add",
    "vec_mod_sub",
    "moddown_sub_div",
)

_COUNTS = {name: 0 for name in KERNEL_NAMES}
_TRACES: list[list[str]] = []
#: Kernels run on several threads at once (server workers, fan-out helpers);
#: ``+=`` on a dict entry is a read-modify-write, so counting holds this lock.
_COUNTS_LOCK = threading.Lock()


def kernel_counts() -> dict[str, int]:
    """Snapshot of the per-kernel invocation counters."""
    with _COUNTS_LOCK:
        return dict(_COUNTS)


def reset_kernel_counts() -> None:
    """Zero the invocation counters (test instrumentation)."""
    with _COUNTS_LOCK:
        for name in _COUNTS:
            _COUNTS[name] = 0


@contextlib.contextmanager
def trace():
    """Record the kernel names executed inside the block, in call order.

    Yields the (live) list; nested traces each capture independently.  The
    parity tests use this to assert a compiled schedule's segments execute
    as exactly the kernels the schedule names.
    """
    buffer: list[str] = []
    with _COUNTS_LOCK:
        _TRACES.append(buffer)
    try:
        yield buffer
    finally:
        with _COUNTS_LOCK:
            _TRACES.remove(buffer)


def _record(name: str) -> None:
    with _COUNTS_LOCK:
        _COUNTS[name] += 1
        for buffer in _TRACES:
            buffer.append(name)


# ---------------------------------------------------------------- numpy impls
# Each numpy implementation replays the eager pass sequence of
# `ntt_engine._FourStepExec._cascade` / `numtheory.crt.subtract_and_divide`
# op for op -- same operations, same order, hence bit-identical results.
def _np_merge_lazy(hi, lo, scale, q_f, inv_q):
    hi -= np.floor(hi * inv_q) * q_f
    hi *= scale
    hi += lo
    hi -= np.floor(hi * inv_q) * q_f
    return hi


def _np_twist_split(x, tw_hi, tw_lo, scale_tw, q_f, inv_q, out=None):
    t = np.multiply(x, tw_hi, out=out)
    t -= np.floor(t * inv_q) * q_f
    t *= scale_tw
    t += x * tw_lo
    t -= np.floor(t * inv_q) * q_f
    return t


def _np_merge_canonical(hi, lo, scale, q_f, q_u, inv_q):
    _np_merge_lazy(hi, lo, scale, q_f, inv_q)
    out = np.empty(hi.shape, dtype=np.uint64)
    np.copyto(out, hi, casting="unsafe")
    np.minimum(out, out - q_u, out=out)
    return out


def _np_vec_mod_mul(a, b, q_u):
    return (a * b) % q_u


def _np_vec_mod_add(a, b, q_u):
    return (a + b) % q_u


def _np_vec_mod_sub(a, b, q_u):
    return (a + (q_u - b)) % q_u


def _np_moddown_sub_div(residues, subtrahend, moduli, inverses):
    diff = residues + (moduli - subtrahend)
    diff = np.where(diff >= moduli, diff - moduli, diff)
    return (diff * inverses) % moduli


# -------------------------------------------------------------- numexpr impls
# One ne.evaluate per kernel: the full merge/reduce chain is a single chunked
# pass.  Sub-expressions repeat textually (numexpr has no CSE) -- the kernels
# are memory-bound, so recomputing register-resident arithmetic is free.
def _ne(expr: str, local_dict: dict, out=None):
    ne = _optional_module(MODE_NUMEXPR)
    return ne.evaluate(expr, local_dict=local_dict, out=out)


def _ne_merge_lazy(hi, lo, scale, q_f, inv_q):
    inner = "((hi - floor(hi * i) * q) * s + lo)"
    _ne(
        f"{inner} - floor({inner} * i) * q",
        {"hi": hi, "lo": lo, "s": scale, "q": q_f, "i": inv_q},
        out=hi,
    )
    return hi


def _ne_twist_split(x, tw_hi, tw_lo, scale_tw, q_f, inv_q, out=None):
    a = "(x * th - floor(x * th * i) * q)"
    inner = f"({a} * s + x * tl)"
    result = _ne(
        f"{inner} - floor({inner} * i) * q",
        {"x": x, "th": tw_hi, "tl": tw_lo, "s": scale_tw, "q": q_f, "i": inv_q},
        out=out,
    )
    return result if out is None else out


def _ne_merge_canonical(hi, lo, scale, q_f, q_u, inv_q):
    inner = "((hi - floor(hi * i) * q) * s + lo)"
    lazy = f"({inner} - floor({inner} * i) * q)"
    _ne(
        f"where({lazy} < q, {lazy}, {lazy} - q)",
        {"hi": hi, "lo": lo, "s": scale, "q": q_f, "i": inv_q},
        out=hi,
    )
    out = np.empty(hi.shape, dtype=np.uint64)
    np.copyto(out, hi, casting="unsafe")
    return out


def _ne_int_ok(q) -> bool:
    return bool(np.all(np.asarray(q, dtype=np.uint64) < _NUMEXPR_INT_MODULUS_BOUND))


def _ne_int(a):
    return np.asarray(a, dtype=np.uint64).astype(np.int64)


def _ne_vec_mod_mul(a, b, q_u):
    if not _ne_int_ok(q_u):
        return _np_vec_mod_mul(a, b, q_u)
    out = _ne(
        "(a * b) % q", {"a": _ne_int(a), "b": _ne_int(b), "q": _ne_int(q_u)}
    )
    return out.astype(np.uint64)


def _ne_vec_mod_add(a, b, q_u):
    if not _ne_int_ok(q_u):
        return _np_vec_mod_add(a, b, q_u)
    out = _ne(
        "(a + b) % q", {"a": _ne_int(a), "b": _ne_int(b), "q": _ne_int(q_u)}
    )
    return out.astype(np.uint64)


def _ne_vec_mod_sub(a, b, q_u):
    if not _ne_int_ok(q_u):
        return _np_vec_mod_sub(a, b, q_u)
    out = _ne(
        "(a + (q - b)) % q", {"a": _ne_int(a), "b": _ne_int(b), "q": _ne_int(q_u)}
    )
    return out.astype(np.uint64)


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

    ``fastmath=False`` is load-bearing: the split-float64 exactness proof of
    `repro.poly.gemm_mod` assumes IEEE-ordered multiply/add/floor.  Array
    expressions inside njit follow NumPy broadcasting, so the same kernels
    serve the scalar-modulus plan layout and the ``(L, 1, 1)`` stacked one.
    """
    numba = _optional_module(MODE_NUMBA)
    njit = numba.njit

    @njit(cache=False, fastmath=False)
    def nb_merge_lazy(hi, lo, scale, q_f, inv_q):
        t = hi - np.floor(hi * inv_q) * q_f
        t = t * scale + lo
        hi[:] = t - np.floor(t * inv_q) * q_f

    @njit(cache=False, fastmath=False)
    def nb_twist_split(x, tw_hi, tw_lo, scale_tw, q_f, inv_q, out):
        t = x * tw_hi
        t = t - np.floor(t * inv_q) * q_f
        t = t * scale_tw + x * tw_lo
        out[:] = t - np.floor(t * inv_q) * q_f

    @njit(cache=False, fastmath=False)
    def nb_canonical(hi, lo, scale, q_f, inv_q):
        t = hi - np.floor(hi * inv_q) * q_f
        t = t * scale + lo
        t = t - np.floor(t * inv_q) * q_f
        hi[:] = np.where(t < q_f, t, t - q_f)

    @njit(cache=False, fastmath=False)
    def nb_vec_mod_mul(a, b, q_u):
        return (a * b) % q_u

    @njit(cache=False, fastmath=False)
    def nb_vec_mod_add(a, b, q_u):
        return (a + b) % q_u

    @njit(cache=False, fastmath=False)
    def nb_vec_mod_sub(a, b, q_u):
        return (a + (q_u - b)) % q_u

    @njit(cache=False, fastmath=False)
    def nb_moddown(residues, subtrahend, moduli, inverses):
        diff = residues + (moduli - subtrahend)
        diff = np.where(diff >= moduli, diff - moduli, diff)
        return (diff * inverses) % moduli

    _NUMBA_KERNELS.update(
        merge_lazy=nb_merge_lazy,
        twist_split=nb_twist_split,
        canonical=nb_canonical,
        vec_mod_mul=nb_vec_mod_mul,
        vec_mod_add=nb_vec_mod_add,
        vec_mod_sub=nb_vec_mod_sub,
        moddown=nb_moddown,
    )


def _nb_merge_lazy(hi, lo, scale, q_f, inv_q):
    _numba_kernel("merge_lazy")(hi, lo, scale, np.asarray(q_f), np.asarray(inv_q))
    return hi


def _nb_twist_split(x, tw_hi, tw_lo, scale_tw, q_f, inv_q, out=None):
    if out is None:
        out = np.empty(x.shape, dtype=np.float64)
    _numba_kernel("twist_split")(
        np.ascontiguousarray(x),
        tw_hi,
        tw_lo,
        scale_tw,
        np.asarray(q_f),
        np.asarray(inv_q),
        out,
    )
    return out


def _nb_merge_canonical(hi, lo, scale, q_f, q_u, inv_q):
    _numba_kernel("canonical")(hi, lo, scale, np.asarray(q_f), np.asarray(inv_q))
    out = np.empty(hi.shape, dtype=np.uint64)
    np.copyto(out, hi, casting="unsafe")
    return out


def _nb_vec_mod_mul(a, b, q_u):
    return _numba_kernel("vec_mod_mul")(
        np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64), q_u
    )


def _nb_vec_mod_add(a, b, q_u):
    return _numba_kernel("vec_mod_add")(
        np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64), q_u
    )


def _nb_vec_mod_sub(a, b, q_u):
    return _numba_kernel("vec_mod_sub")(
        np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64), q_u
    )


def _nb_moddown_sub_div(residues, subtrahend, moduli, inverses):
    return _numba_kernel("moddown")(
        np.asarray(residues, dtype=np.uint64), subtrahend, moduli, inverses
    )


_IMPLS = {
    MODE_NUMPY: {
        "merge_lazy": _np_merge_lazy,
        "twist_split": _np_twist_split,
        "merge_canonical": _np_merge_canonical,
        "vec_mod_mul": _np_vec_mod_mul,
        "vec_mod_add": _np_vec_mod_add,
        "vec_mod_sub": _np_vec_mod_sub,
        "moddown_sub_div": _np_moddown_sub_div,
    },
    MODE_NUMEXPR: {
        "merge_lazy": _ne_merge_lazy,
        "twist_split": _ne_twist_split,
        "merge_canonical": _ne_merge_canonical,
        "vec_mod_mul": _ne_vec_mod_mul,
        "vec_mod_add": _ne_vec_mod_add,
        "vec_mod_sub": _ne_vec_mod_sub,
        "moddown_sub_div": _ne_moddown_sub_div,
    },
    MODE_NUMBA: {
        "merge_lazy": _nb_merge_lazy,
        "twist_split": _nb_twist_split,
        "merge_canonical": _nb_merge_canonical,
        "vec_mod_mul": _nb_vec_mod_mul,
        "vec_mod_add": _nb_vec_mod_add,
        "vec_mod_sub": _nb_vec_mod_sub,
        "moddown_sub_div": _nb_moddown_sub_div,
    },
}


def implementations(name: str) -> dict[str, object]:
    """Every *importable* implementation of one kernel, keyed by mode (tests)."""
    return {
        mode: impls[name]
        for mode, impls in _IMPLS.items()
        if mode == MODE_NUMPY or _optional_module(mode) is not None
    }


# ------------------------------------------------------------ public kernels
def merge_lazy(hi, lo, scale, q_f, inv_q):
    """Fused GEMM-half merge: ``hi = lazy(lazy(hi) * scale + lo)``, in place.

    ``hi``/``lo`` are the split GEMM's doubled-height output halves (float64,
    exact integers); the result is the lazily reduced recombination in
    ``[0, 2q)``.  Executes the ``*-reduce`` VectorOps of a lowered NTT/BConv
    graph as one pass.
    """
    _record("merge_lazy")
    return _IMPLS[active_mode()]["merge_lazy"](hi, lo, scale, q_f, inv_q)


def twist_split(x, tw_hi, tw_lo, scale_tw, q_f, inv_q, out=None):
    """Fused transpose+twist: split-table multiply of ``x`` into ``out``.

    ``x`` is typically a transposed (strided) view; the kernel walks it once
    and writes a C-contiguous, lazily reduced operand for the second GEMM --
    the ``step2-twiddle-mul`` VectorOp (+ fused ``transpose`` Permutation) of
    the lowered graph.
    """
    _record("twist_split")
    return _IMPLS[active_mode()]["twist_split"](
        x, tw_hi, tw_lo, scale_tw, q_f, inv_q, out
    )


def merge_canonical(hi, lo, scale, q_f, q_u, inv_q):
    """Fused final merge: like :func:`merge_lazy` but canonicalised to uint64.

    The single conditional subtract relies on the lazy value being in
    ``[0, 2q)`` (guaranteed by the underestimating reciprocal ``inv_q``).
    """
    _record("merge_canonical")
    return _IMPLS[active_mode()]["merge_canonical"](hi, lo, scale, q_f, q_u, inv_q)


def vec_mod_mul(a, b, q_u):
    """Element-wise modular product of reduced uint64 operands."""
    _record("vec_mod_mul")
    return _IMPLS[active_mode()]["vec_mod_mul"](a, b, q_u)


def vec_mod_add(a, b, q_u):
    """Element-wise modular sum of reduced uint64 operands."""
    _record("vec_mod_add")
    return _IMPLS[active_mode()]["vec_mod_add"](a, b, q_u)


def vec_mod_sub(a, b, q_u):
    """Element-wise modular difference of reduced uint64 operands."""
    _record("vec_mod_sub")
    return _IMPLS[active_mode()]["vec_mod_sub"](a, b, q_u)


def moddown_sub_div(residues, subtrahend, moduli, inverses):
    """Fused ModDown correction: ``(residues - subtrahend) * inverses mod q``.

    Bit-identical to `repro.numtheory.crt.subtract_and_divide`'s eager pass
    sequence; ``moduli``/``inverses`` broadcast the same way (per-limb
    columns against ``(..., L, N)`` residues).
    """
    _record("moddown_sub_div")
    return _IMPLS[active_mode()]["moddown_sub_div"](
        residues, subtrahend, moduli, inverses
    )
