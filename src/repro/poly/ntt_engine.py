"""Vectorized limb-parallel NTT engine with cached twiddle plans and Shoup hot paths.

The reference transform (`repro.poly.ntt_reference`) is bit-exact but rebuilds
its twiddle, twist, and bit-reversal tables inside Python loops on every call,
and the RNS layer invokes it once per limb.  This module is the production
path: an :class:`NttPlan` precomputes, once per ``(degree, modulus)`` ring,

* the bit-reversal permutation,
* the per-stage forward and inverse twiddle tables,
* the negacyclic twist / untwist vectors (untwist folds in ``N^{-1}``), and
* Shoup companion constants ``floor(w * 2**32 / q)`` for every fixed
  multiplier,

then executes the radix-2 butterflies as a handful of whole-array NumPy
passes.  The hot loop never divides: multiplication by a precomputed constant
uses Shoup's method (two word multiplies, see `repro.numtheory.shoup`), and
the butterflies are *lazy* in Harvey's sense -- intermediate values live in
``[0, 4q)``, each stage performs a single conditional subtraction of ``2q``
(via the uint64 wrap-around ``minimum`` trick), and values are reduced to the
canonical ``[0, q)`` range only once at the end.  This is exact for any
``q < 2**30``; the transform output is therefore bit-identical to the
reference oracle, which every plan is property-tested against.

:class:`NttPlanStack` stacks the per-limb tables of an RNS basis into
``(L, ...)`` arrays so an entire ``(L, N)`` residue matrix is transformed in
one shot -- the limb-parallel execution model the paper maps onto wide batched
hardware.  Stacks additionally accept *stacked operands*: any leading batch
axes before the ``(L, N)`` tail (e.g. the ``(dnum, L', N)`` all-digit tensor
the fused key switch builds) ride through the same butterfly cascade as extra
broadcast dimensions, so converting every key-switch digit still counts as a
single transform pass.  Plans and stacks are memoised process-wide via
:func:`plan_for` and :func:`plan_stack_for`.  Oversized moduli (``>= 2**30``)
are not planned; callers fall back to the big-int-safe reference path.

Backends
--------
Since PR 5 the butterfly cascade is one of several interchangeable, bit-exact
backends behind every plan (the paper's thesis is that the NTT *is* a block
matmul, so it should run on the matrix engine):

* ``butterfly`` -- the Harvey lazy-butterfly cascade described above;
* ``four_step`` -- the transform factored as ``N = n1 * n2``: column NTTs as
  a precomputed ``(n1, n1)`` twiddle-matrix matmul, a cached mod-``q`` twist,
  and row NTTs as an ``(n2, n2)`` matmul, both matmuls executed by the exact
  hi/lo split-float64 BLAS GEMM kernel shared with BConv
  (`repro.poly.gemm_mod`); and
* ``reference`` -- the per-call table-building oracle
  (`repro.poly.ntt_reference`).

``NttPlan.backend`` / ``NttPlanStack.backend`` pin a backend explicitly; the
default (``None``) defers to :func:`resolve_backend`, i.e. the
``REPRO_NTT_BACKEND`` environment override, :func:`set_default_backend`, or
the memoised one-shot per-ring calibration (keyed on ``(N, L, modulus
bits)``; set ``REPRO_NTT_CALIBRATE=measure`` to time the two fast backends on
the actual shape instead of using the closed-form heuristic).  Dispatch never
selects a backend that would be inexact for the ring's modulus width.

Every ``forward``/``inverse`` entry point counts one *pass* plus the number
of length-``N`` limb rows it transformed (:func:`transform_counts` /
:func:`reset_transform_counts`), which is how the test suite asserts dataflow
claims such as "fused key switching runs exactly one batched forward and one
inverse pass" without a stacked call hiding per-limb work.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import diagnostics
from repro.diagnostics import BoundedLruCache, register_cache
from repro.errors import BackendExactnessError, ParameterError
from repro.poly import fused_kernels
from repro.numtheory.bitrev import bit_reverse_indices, is_power_of_two
from repro.numtheory.modular import mod_inv, primitive_nth_root_of_unity
from repro.poly.gemm_mod import (
    as_blas_operand,
    canonical_from_lazy,
    is_strict as _gemm_is_strict,
    lazy_mod_reduce,
    split_halves,
    split_shift,
)
from repro.poly.ntt_reference import ntt_forward_negacyclic, ntt_inverse_negacyclic

#: Lazy (Harvey-style) butterflies need ``4q < 2**32`` so every intermediate
#: fits the 32-bit Shoup precision and uint64 products never overflow.
MAX_PLAN_MODULUS = 1 << 30

_SHIFT32 = np.uint64(32)

#: Backend identifiers (``NttPlan.backend`` / ``REPRO_NTT_BACKEND`` values).
BACKEND_BUTTERFLY = "butterfly"
BACKEND_FOUR_STEP = "four_step"
BACKEND_REFERENCE = "reference"
BACKEND_AUTO = "auto"
BACKENDS = (BACKEND_BUTTERFLY, BACKEND_FOUR_STEP, BACKEND_REFERENCE)
#: Backends the quarantine ladder may remove from dispatch (the reference
#: oracle is the floor of the ladder and can never be quarantined).  The
#: degradation order is ``four_step -> butterfly -> reference``.
BACKENDS_QUARANTINABLE = (BACKEND_BUTTERFLY, BACKEND_FOUR_STEP)

_BACKEND_ENV = "REPRO_NTT_BACKEND"
_CALIBRATE_ENV = "REPRO_NTT_CALIBRATE"
#: ``REPRO_NTT_SENTINEL=0`` disables the known-answer probe run the first time
#: a plan's four-step GEMM tables are selected for execution.
_SENTINEL_ENV = "REPRO_NTT_SENTINEL"
#: Strict-mode runtime spot checks re-verify one transformed row against the
#: reference oracle every this-many counted passes (``REPRO_NTT_SPOT_STRIDE``).
_SPOT_STRIDE_ENV = "REPRO_NTT_SPOT_STRIDE"
_SPOT_STRIDE_DEFAULT = 64


def sentinel_enabled() -> bool:
    """True unless ``REPRO_NTT_SENTINEL`` disables the build-time probes."""
    value = os.environ.get(_SENTINEL_ENV, "1").strip().lower()
    return value not in ("0", "off", "false", "no")


def _spot_stride() -> int:
    try:
        return max(1, int(os.environ.get(_SPOT_STRIDE_ENV, _SPOT_STRIDE_DEFAULT)))
    except ValueError:
        return _SPOT_STRIDE_DEFAULT

#: Closed-form calibration threshold: below this degree the butterfly cascade
#: wins, at and above it the four-step GEMM backend wins.  Measured on the
#: benchmark shapes (see ``benchmarks/bench_ntt_fourstep.py``): on the CI
#: hardware the GEMM cascade wins at *every* exact shape (its pass count is
#: ``O(1)`` vs the butterfly's ``O(log N)`` stages), so the threshold sits at
#: the smallest factorable degree; ``REPRO_NTT_CALIBRATE=measure`` retimes the
#: two backends per ring shape on platforms where the crossover differs.
FOUR_STEP_MIN_DEGREE = 4

#: Process-wide transform counters.  ``forward``/``inverse`` count *passes*
#: (one increment per ``forward``/``inverse`` call on a plan or plan stack,
#: however many limbs or stacked operands that call batches);
#: ``forward_limbs``/``inverse_limbs`` count the length-``N`` rows actually
#: transformed, so a stacked ``(B, L, N)`` call books ``B * L`` limb passes.
#: Tests use both views to pin down dataflow claims.
_TRANSFORM_COUNTS = {
    "forward": 0,
    "inverse": 0,
    "forward_limbs": 0,
    "inverse_limbs": 0,
}
#: Server worker threads transform concurrently and ``+=`` on a dict entry is
#: a read-modify-write, so every access to the counters holds this lock.
_TRANSFORM_COUNTS_LOCK = threading.Lock()


def transform_counts() -> dict[str, int]:
    """Snapshot of the process-wide pass and limb-pass counters."""
    with _TRANSFORM_COUNTS_LOCK:
        return dict(_TRANSFORM_COUNTS)


def reset_transform_counts() -> None:
    """Reset the transform counters (test instrumentation)."""
    with _TRANSFORM_COUNTS_LOCK:
        for key in _TRANSFORM_COUNTS:
            _TRANSFORM_COUNTS[key] = 0


def _count_pass(direction: str, limb_rows: int) -> None:
    """Book one counted pass that transformed ``limb_rows`` length-N rows."""
    with _TRANSFORM_COUNTS_LOCK:
        _TRANSFORM_COUNTS[direction] += 1
        _TRANSFORM_COUNTS[direction + "_limbs"] += limb_rows


def _shoup_quotients(values: np.ndarray, modulus: int) -> np.ndarray:
    """Per-element 32-bit Shoup companions ``floor(w * 2**32 / q)``."""
    flat = [(int(w) << 32) // modulus for w in values.ravel().tolist()]
    return np.array(flat, dtype=np.uint64).reshape(values.shape)


def _reduce_once(x: np.ndarray, q, scratch: np.ndarray | None = None) -> None:
    """In-place conditional subtract of ``q`` for values in ``[0, 2q)``.

    Uses the wrap-around trick: ``x - q`` underflows past ``x`` whenever
    ``x < q``, so ``minimum`` selects the reduced representative.
    """
    if scratch is None:
        np.minimum(x, x - q, out=x)
    else:
        np.subtract(x, q, out=scratch)
        np.minimum(x, scratch, out=x)


def _twist_in_place(data: np.ndarray, w: np.ndarray, w_shoup: np.ndarray, q, hi: np.ndarray) -> None:
    """Lazy Shoup multiply of ``data`` by a same-shape table, allocation-free.

    ``hi`` is a full-size scratch buffer; ``data`` ends up in ``[0, 2q)``.
    """
    np.multiply(data, w_shoup, out=hi)
    hi >>= _SHIFT32
    hi *= q
    data *= w
    data -= hi


def _power_table(base: int, count: int, modulus: int, *, first: int = 1) -> np.ndarray:
    """``[first * base**j mod q for j in range(count)]`` by vectorized doubling."""
    out = np.empty(count, dtype=np.uint64)
    out[0] = first % modulus
    q = np.uint64(modulus)
    step = base % modulus
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        out[filled : filled + take] = (out[:take] * np.uint64(step)) % q
        filled += take
        step = (step * step) % modulus
    return out


#: Stages with at most this many twiddles run on transposed views: the block
#: axis becomes the inner loop, avoiding per-chunk ufunc overhead on the
#: tiny contiguous runs of the early stages.
_TRANSPOSE_MAX_HALF = 8


@dataclass(frozen=True)
class _Stage:
    """One butterfly stage: twiddles and Shoup companions, both orientations.

    ``twiddles``/``shoup`` broadcast along the half axis (block-major views);
    the ``_t`` variants carry a trailing singleton so they broadcast along the
    block axis instead (transposed views for small-``half`` stages).
    ``identity`` marks the all-ones first stage, whose multiplication (and,
    with reduced inputs, whose reductions) are skipped entirely.
    """

    twiddles: np.ndarray
    shoup: np.ndarray
    twiddles_t: np.ndarray
    shoup_t: np.ndarray
    identity: bool


def _make_stage(twiddles: np.ndarray, shoup: np.ndarray) -> _Stage:
    """Package 1-D twiddle tables with their transposed-broadcast variants."""
    return _Stage(
        twiddles=twiddles,
        shoup=shoup,
        twiddles_t=twiddles[:, None],
        shoup_t=shoup[:, None],
        identity=bool(np.all(twiddles == 1)),
    )


def _build_stages(root: int, n: int, modulus: int) -> tuple[_Stage, ...]:
    """Per-stage twiddle tables for a decimation-in-time cyclic NTT."""
    stages = []
    length = 2
    while length <= n:
        stage_root = pow(root, n // length, modulus)
        twiddles = _power_table(stage_root, length // 2, modulus)
        stages.append(_make_stage(twiddles, _shoup_quotients(twiddles, modulus)))
        length *= 2
    return tuple(stages)


def _lazy_butterflies(data, stages: tuple[_Stage, ...], q, two_q, scratch=None) -> None:
    """In-place lazy DIT butterfly cascade over the last axis.

    Input values must be below ``2q`` (bit-reversed order); outputs are below
    ``4q``.  In the plan-stack layout the stage tables carry a broadcast limb
    axis and ``q``/``two_q`` are ``(L, 1, 1)`` columns; in the single-modulus
    layout they are scalars.

    Every stage writes through two reusable half-size scratch buffers
    (allocated once per plan): the hot loop performs zero allocations, which
    matters because fresh buffers of NTT size fall through to mmap and pay a
    page-fault per stage otherwise.
    """
    n = data.shape[-1]
    if n < 2:
        return
    lead = data.shape[:-1]
    if scratch is None:
        scratch = (
            np.empty((*lead, n // 2), dtype=np.uint64),
            np.empty((*lead, n // 2), dtype=np.uint64),
        )
    for index, stage in enumerate(stages):
        half = stage.twiddles.shape[-1]
        length = 2 * half
        blocks = data.reshape(*lead, n // length, length)
        if index == 0 and stage.identity:
            # First stage: twiddle is 1 and inputs are < 2q, so the butterfly
            # needs no multiplication and no reduction (outputs < 4q).
            upper = blocks[..., :half]
            lower = blocks[..., half:]
            tmp = scratch[0].reshape(*lead, n // length, half)
            np.add(upper, two_q, out=tmp)
            tmp -= lower
            np.add(upper, lower, out=upper)
            lower[...] = tmp
            continue
        if half <= _TRANSPOSE_MAX_HALF and n // length > half:
            # Small-half stage: make the (large) block axis the inner loop.
            upper = blocks[..., :half].swapaxes(-1, -2)
            lower = blocks[..., half:].swapaxes(-1, -2)
            twiddle_w, twiddle_s = stage.twiddles_t, stage.shoup_t
            shape = (*lead, half, n // length)
        else:
            upper = blocks[..., :half]
            lower = blocks[..., half:]
            twiddle_w, twiddle_s = stage.twiddles, stage.shoup
            shape = (*lead, n // length, half)
        tmp = scratch[0].reshape(shape)
        twisted = scratch[1].reshape(shape)
        # Shoup multiply by the stage twiddles, lazily (result < 2q).
        np.multiply(lower, twiddle_s, out=tmp)
        tmp >>= _SHIFT32
        tmp *= q
        np.multiply(lower, twiddle_w, out=twisted)
        twisted -= tmp
        np.subtract(upper, two_q, out=tmp)
        np.minimum(upper, tmp, out=tmp)
        np.add(tmp, twisted, out=upper)
        tmp += two_q
        np.subtract(tmp, twisted, out=lower)


# ------------------------------------------------------------------ four-step
def four_step_split(degree: int) -> tuple[int, int]:
    """The near-square ``(n1, n2)`` factorisation the GEMM backend uses.

    ``n1 = 2**ceil(log2(N)/2) >= n2``: the column transform gets the larger
    matrix, which keeps the two GEMM tiles as square as possible (the shape
    the matrix engine likes) while ``n1 * n2 = N`` exactly.
    """
    if not is_power_of_two(degree):
        raise ParameterError("NTT length must be a power of two")
    log2n = degree.bit_length() - 1
    rows = 1 << ((log2n + 1) // 2)
    return rows, degree // rows


def _outer_power_matrix(
    base: int, rows: int, cols: int, modulus: int, degree: int
) -> np.ndarray:
    """``M[i, j] = base**(i*j) mod q`` via one power table + an index gather.

    ``base`` must satisfy ``base**degree == 1`` (all four-step bases are
    powers of ``omega``), so exponents reduce modulo ``degree`` and the whole
    matrix is a fancy-index into a single length-``degree`` power table --
    no per-entry ``pow`` calls.
    """
    table = _power_table(base, degree, modulus)
    exponents = np.outer(np.arange(rows), np.arange(cols)) % degree
    return table[exponents]


def _scaled_matrix(
    matrix: np.ndarray,
    scale: np.ndarray | None,
    modulus: int,
    *,
    axis: int = 0,
) -> np.ndarray:
    """``matrix * scale mod q`` with ``scale`` broadcast along ``axis``."""
    if scale is None:
        return matrix
    scale = scale[:, None] if axis == 0 else scale[None, :]
    return (matrix * scale) % np.uint64(modulus)


def _cat_split(matrix: np.ndarray, shift: int) -> np.ndarray:
    """Float ``[hi; lo]`` halves of a constant matrix, concatenated row-wise.

    Both halves of the split GEMM then run as a single doubled-height BLAS
    call, halving kernel dispatches on the small tiles the four-step
    factorisation produces.
    """
    hi, lo = split_halves(matrix, shift)
    return np.ascontiguousarray(np.concatenate([hi, lo], axis=-2))


#: Marker for the two element-wise twist implementations (see _FourStepExec).
_TWIST_SHOUP = "shoup"
_TWIST_SPLIT = "split"


def _lazy_reduce_into(values: np.ndarray, q_f, inv_q, scratch: np.ndarray) -> None:
    """`gemm_mod.lazy_mod_reduce` with an explicit scratch (allocation-free).

    ``inv_q`` is the underestimating reciprocal (:func:`_under_inverse`), so
    non-negative inputs land in ``[0, 2q)``.
    """
    np.multiply(values, inv_q, out=scratch)
    np.floor(scratch, out=scratch)
    np.multiply(scratch, q_f, out=scratch)
    np.subtract(values, scratch, out=values)


#: Per-thread four-step scratch: ONE flat float64 buffer, grown to the
#: largest cascade this thread has run, plus the views carved out of it per
#: ``(lead, a, b)`` shape (dropped whenever the buffer grows).
_SCRATCH = threading.local()


def _scratch_pool(lead: tuple[int, ...], a: int, b: int) -> dict:
    """This thread's cascade buffers for a ``(*lead, a, b)`` tile, as views."""
    size = math.prod(lead) * a * b
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < 5 * size:
        _SCRATCH.buffer = buffer = np.empty(5 * size)
        _SCRATCH.views = {}
    pool = _SCRATCH.views.get((lead, a, b))
    if pool is None:
        tile = buffer[:size].reshape(*lead, a, b)
        gemm = buffer[size : 3 * size].reshape(*lead, 2 * a, b)
        pool = {
            "tile": tile,
            "tile_t": tile.reshape(*lead, b, a),
            "gemm": gemm,
            "gemm_t": gemm.reshape(*lead, 2 * b, a),
            "scratch_t": buffer[3 * size : 4 * size].reshape(*lead, b, a),
            "twist": buffer[4 * size : 5 * size].reshape(*lead, b, a),
        }
        _SCRATCH.views[(lead, a, b)] = pool
    return pool


class _FourStepExec:
    """Shared executor for the four-step GEMM cascade (plan and stack layouts).

    Subclasses provide per-direction constant packs via ``_pack`` plus the
    modulus columns; this base runs the cascade through the calling thread's
    scratch buffer (:func:`_scratch_pool`) so the hot loop performs **zero**
    element-wise allocations.
    Operands with extra leading axes (a ciphertext batch's ``(B, L, N)``
    stack, the fused key switch's ``(dnum, L', N)`` digit tensor) fold those
    axes into the GEMM batch dimension and ride through ONE cascade: the
    constant packs broadcast from the right, so a single set of doubled-
    height BLAS calls transforms every slice at once -- bigger GEMMs
    amortise the per-call fixed costs that dominate small tiles, which is
    where batched ciphertext evaluation gets its throughput.

    Value ranges: the reciprocal reductions use an *underestimating* inverse
    (``_under_inv``), so every intermediate stays non-negative in ``[0, 2q)``
    -- which is what makes the integer Shoup twist applicable and lets the
    final canonicalisation get away with a single conditional subtract.
    """

    rows: int
    cols: int
    _lead: tuple[int, ...]

    #: Rings at or below this degree fold extra leading axes into ONE
    #: cascade: small tiles are dominated by per-call fixed costs, and the
    #: bigger GEMMs amortise them across the whole stack.  Larger rings
    #: iterate per slice instead -- their tiles already saturate BLAS, and
    #: folding would only grow the working set past cache for no gain.
    _FOLD_DEGREE_CAP = 2048

    def transform(
        self, matrix: np.ndarray, forward: bool, limbs: slice | None = None
    ) -> np.ndarray:
        """Transform a ``(..., [L,] N)`` operand in ONE batched cascade.

        On rings up to :data:`_FOLD_DEGREE_CAP`, extra leading axes are
        flattened into a single batch axis and fed through the cascade
        together -- the constant packs broadcast, so the whole stacked
        tensor shares one set of BLAS calls.  Beyond the cap the slices run
        sequentially through the same cascade (identical results either
        way; the kernels are exact per slice).

        ``limbs`` (stacks only) says the operand's limb axis holds just that
        slice of the stack's limbs; the cascade then runs on views of the
        stacked constants (:meth:`_constants`).
        """
        matrix = np.asarray(matrix, dtype=np.uint64)
        base_rank = len(self._lead) + 1
        if matrix.ndim == base_rank:
            return self._cascade(matrix, forward, limbs)
        flat = matrix.reshape(-1, *matrix.shape[-base_rank:])
        if self.rows * self.cols <= self._FOLD_DEGREE_CAP:
            return self._cascade(flat, forward, limbs).reshape(matrix.shape)
        out = np.empty_like(flat)
        for index in range(flat.shape[0]):
            out[index] = self._cascade(flat[index], forward, limbs)
        return out.reshape(matrix.shape)

    def _constants(self, forward: bool, limbs: slice | None) -> tuple:
        """One direction's pack plus the modulus columns, for ``limbs`` only.

        A basic slice of a limb-stacked constant is a view, so a limb subset
        runs on the stack's own tables: no table set is built per subset.
        """
        constants = (
            *(self._fwd_pack if forward else self._inv_pack),
            self._q_f,
            self._q_u,
            self._under_inv,
        )
        if limbs is None:
            return constants

        def pick(constant):
            if isinstance(constant, tuple):
                return tuple(pick(item) for item in constant)
            return constant[limbs] if isinstance(constant, np.ndarray) else constant

        return pick(constants)

    def _cascade(
        self, data: np.ndarray, forward: bool, limbs: slice | None = None
    ) -> np.ndarray:
        (
            first_cat, scale_first, twist, second_cat, scale_second, a, b,
            q_f, q_u, inv_q,
        ) = self._constants(forward, limbs)
        pool = _scratch_pool(data.shape[:-1], a, b)
        tile, gemm = pool["tile"], pool["gemm"]
        scratch = pool["scratch_t"].reshape(tile.shape)

        # First GEMM: both split halves in one doubled-height BLAS call.
        np.copyto(tile, data.reshape(tile.shape), casting="unsafe")
        np.matmul(first_cat, tile, out=gemm)
        hi, lo = gemm[..., :a, :], gemm[..., a:, :]
        _lazy_reduce_into(hi, q_f, inv_q, scratch)
        np.multiply(hi, scale_first, out=hi)
        np.add(hi, lo, out=hi)
        _lazy_reduce_into(hi, q_f, inv_q, scratch)

        # Fused runtime transpose + twist: the ufuncs walk the transposed view
        # and write C-contiguous tiles, so the second GEMM always gets a
        # BLAS-ready operand (`gemm_mod.as_blas_operand` asserts this in
        # strict mode).
        transposed = hi.swapaxes(-1, -2)
        operand = pool["twist"]
        scratch_t = pool["scratch_t"]
        if twist[0] == _TWIST_SHOUP:
            # Integer lazy Shoup multiply (q < 2**30, inputs < 2**31).
            _, tw_w, tw_shoup = twist
            t_u = operand.view(np.uint64)
            s_u = scratch_t.view(np.uint64)
            np.copyto(t_u, transposed, casting="unsafe")
            np.multiply(t_u, tw_shoup, out=s_u)
            s_u >>= _SHIFT32
            s_u *= q_u
            t_u *= tw_w
            t_u -= s_u
            twisted = pool["tile_t"]
            np.copyto(twisted, t_u, casting="unsafe")
        else:
            # Float split twist (wide moduli): tw = hi * 2**s + lo with f32
            # halves (entries < 2**17 are f32-exact; products stay f64).
            _, tw_hi, tw_lo, scale_tw = twist
            tile_t = pool["tile_t"]
            np.multiply(transposed, tw_hi, out=operand)
            _lazy_reduce_into(operand, q_f, inv_q, scratch_t)
            np.multiply(operand, scale_tw, out=operand)
            np.multiply(transposed, tw_lo, out=tile_t)
            np.add(operand, tile_t, out=operand)
            _lazy_reduce_into(operand, q_f, inv_q, scratch_t)
            twisted = operand

        # Second GEMM + canonicalisation into a fresh caller-owned array.
        gemm_t = pool["gemm_t"]
        np.matmul(second_cat, twisted, out=gemm_t)
        hi2, lo2 = gemm_t[..., :b, :], gemm_t[..., b:, :]
        _lazy_reduce_into(hi2, q_f, inv_q, scratch_t)
        np.multiply(hi2, scale_second, out=hi2)
        np.add(hi2, lo2, out=hi2)
        _lazy_reduce_into(hi2, q_f, inv_q, scratch_t)
        out = np.empty(hi2.shape, dtype=np.uint64)
        np.copyto(out, hi2, casting="unsafe")
        s_u = scratch_t.view(np.uint64)
        np.subtract(out, q_u, out=s_u)
        np.minimum(out, s_u, out=out)
        return out.reshape(data.shape)


def _under_inverse(q_f: np.ndarray) -> np.ndarray:
    """A reciprocal of ``q`` guaranteed to *underestimate* ``1/q``.

    With ``p = fl(v * inv)`` for non-negative integer ``v`` (``v < 2**52``),
    ``floor(p)`` is then ``floor(v/q)`` or one less, never more, so the lazy
    reductions land in ``[0, 2q)`` -- non-negative, which the integer twist
    and the single-subtract canonicalisation rely on.
    """
    exact = np.float64(1.0) / np.asarray(q_f, dtype=np.float64)
    return np.nextafter(np.nextafter(exact, 0.0), 0.0)


class FourStepTables(_FourStepExec):
    """Per-ring constants for the four-step GEMM NTT backend.

    The length-``N`` negacyclic transform is factored over the ``(n1, n2)``
    tile ``a[j1 * n2 + j2]`` (natural order in, natural order out):

    * **columns** -- an ``(n1, n1)`` matmul with
      ``M1[k1, j1] = omega**(n2*k1*j1) * psi**(n2*j1)`` (the negacyclic twist
      contribution that depends only on ``j1`` is folded in offline),
    * **twist** -- the runtime transpose fused with the cached element-wise
      twiddle ``TW[j2, k1] = omega**(k1*j2) * psi**j2``, and
    * **rows** -- an ``(n2, n2)`` matmul with ``M4[k2, j2] = omega**(n1*k2*j2)``,

    after which the ``(n2, n1)`` tile flattened row-major is the NTT in
    natural evaluation order (position ``k2 * n1 + k1`` holds evaluation
    ``k1 + n1 * k2`` -- the same algebra `repro.poly.ntt_fourstep` keeps with
    an explicit transpose step).  The inverse runs the mirrored cascade with
    ``omega^{-1}``/``psi^{-1}`` and ``N^{-1}`` folded into the final column
    matrix.  Both matmuls execute as exact hi/lo split-float64 GEMMs sharing
    `repro.poly.gemm_mod`'s split tables and reduction algebra; :attr:`exact`
    reports whether the ring's modulus width admits the split at this
    factorisation, and inexact tables refuse to transform (the dispatch layer
    never selects them).
    """

    def __init__(self, degree: int, modulus: int, psi: int):
        self.degree, self.modulus, self.psi = degree, modulus, psi
        self.rows, self.cols = four_step_split(degree)
        q, rows, cols = modulus, self.rows, self.cols
        bits = (modulus - 1).bit_length()
        # The second GEMM of either direction consumes lazily reduced
        # operands in [0, 2q), hence the one-bit operand allowance.
        self._shift1 = split_shift(bits + 1, bits, rows)
        self._shift4 = split_shift(bits + 1, bits, cols)
        self.exact = (
            self._shift1 is not None
            and self._shift4 is not None
            and 1 < modulus < (1 << 32)
        )
        if not self.exact:
            return
        self._lead = ()
        self._q_u = np.uint64(q)
        self._q_f = np.float64(q)
        self._under_inv = _under_inverse(self._q_f)
        self._shift_tw = (bits + 1) // 2

        omega = pow(psi, 2, q)
        omega_inv = mod_inv(omega, q)
        psi_inv = mod_inv(psi, q)

        # Offline parameter compilation (all entries canonical residues).
        self.m1 = _scaled_matrix(
            _outer_power_matrix(pow(omega, cols, q), rows, rows, q, degree),
            _power_table(pow(psi, cols, q), rows, q),
            q,
            axis=1,
        )
        self.m4 = _outer_power_matrix(pow(omega, rows, q), cols, cols, q, degree)
        self.tw_fwd = _scaled_matrix(
            _outer_power_matrix(omega, cols, rows, q, degree),
            _power_table(psi, cols, q),
            q,
            axis=0,
        )
        self.m4_inv = _outer_power_matrix(
            pow(omega_inv, rows, q), cols, cols, q, degree
        )
        # The inverse's element-wise stage runs after its transpose, so the
        # cached table is stored pre-transposed to (n1, n2); N^{-1} rides the
        # final column matrix's row scale.
        self.tw_inv = np.ascontiguousarray(
            _scaled_matrix(
                _outer_power_matrix(omega_inv, cols, rows, q, degree),
                _power_table(psi_inv, cols, q),
                q,
                axis=0,
            ).T
        )
        self.m1_inv = _scaled_matrix(
            _outer_power_matrix(pow(omega_inv, cols, q), rows, rows, q, degree),
            _power_table(pow(psi_inv, cols, q), rows, q, first=mod_inv(degree, q)),
            q,
            axis=0,
        )
        self._fwd_pack = _build_pack(
            self.m1, self.tw_fwd, self.m4, self, rows, cols
        )
        self._inv_pack = _build_pack(
            self.m4_inv, self.tw_inv, self.m1_inv, self, cols, rows
        )

    # ------------------------------------------------------------------ exec
    def _require_exact(self) -> None:
        if not self.exact:
            raise BackendExactnessError(
                f"four-step GEMM tables for (degree={self.degree}, "
                f"q={self.modulus}) have no exact float64 split; dispatch "
                "must not select this backend for the ring"
            )

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT over the last axis (natural order in/out)."""
        self._require_exact()
        return self.transform(coeffs, forward=True)

    def inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT over the last axis (natural order in/out)."""
        self._require_exact()
        return self.transform(evaluations, forward=False)


def _twist_pack(twist: np.ndarray, moduli, shift_tw: int, scale_col) -> tuple:
    """Compile an element-wise twist table into its fastest exact form.

    Lazy-reduced inputs are in ``[0, 2q)``; when every modulus is below the
    32-bit Shoup precision bound the twist runs as an integer lazy Shoup
    multiply (5 passes, no reduction needed after).  Wider moduli use the
    float hi/lo split (f32 tables -- entries < 2**17 are f32-exact).
    """
    if all(int(q) < MAX_PLAN_MODULUS for q in moduli):
        # twist < 2**30, so the << 32 stays inside uint64 (build-time only).
        # Tables are stored uint32 (both fit) to halve their cache footprint;
        # uint64-operand multiplies promote back to uint64 losslessly.
        shoup = (twist << np.uint64(32)) // np.asarray(scale_col, dtype=np.uint64)
        return (
            _TWIST_SHOUP,
            np.ascontiguousarray(twist.astype(np.uint32)),
            np.ascontiguousarray(shoup.astype(np.uint32)),
        )
    hi, lo = split_halves(twist, shift_tw)
    return (
        _TWIST_SPLIT,
        np.ascontiguousarray(hi.astype(np.float32)),
        np.ascontiguousarray(lo.astype(np.float32)),
        np.float64(1 << shift_tw),
    )


def _build_pack(first, twist, second, tables, a: int, b: int) -> tuple:
    """One direction's executable constants for :class:`_FourStepExec`."""
    shift_first = tables._shift1 if a == tables.rows else tables._shift4
    shift_second = tables._shift4 if a == tables.rows else tables._shift1
    moduli = (tables.modulus,)
    return (
        _cat_split(first, shift_first),
        np.float64(1 << shift_first),
        _twist_pack(twist, moduli, tables._shift_tw, tables._q_u),
        _cat_split(second, shift_second),
        np.float64(1 << shift_second),
        a,
        b,
    )


class _FourStepStack(_FourStepExec):
    """Limb-stacked four-step tables: one GEMM cascade for all ``L`` limbs.

    The per-limb ``[hi; lo]`` matrices stack into ``(L, 2n, n)`` float64
    tensors, so a whole ``(L, N)`` operand rides two *batched* BLAS GEMMs;
    leading stacked-operand axes are tiled per slice for cache residency
    (see :class:`_FourStepExec`).
    """

    #: Construction refuses a stack whose split is inexact.
    exact = True

    def __init__(self, tables: tuple[FourStepTables, ...]):
        first = tables[0]
        self.rows, self.cols = first.rows, first.cols
        self._lead = (len(tables),)
        moduli = tuple(t.modulus for t in tables)
        self._q_u = np.array(moduli, dtype=np.uint64)[:, None, None]
        self._q_f = self._q_u.astype(np.float64)
        self._under_inv = _under_inverse(self._q_f)
        # The split shifts must be derived from the *widest* limb: a stack
        # may mix modulus widths, and re-splitting every limb's raw matrices
        # at the stack-wide shift keeps each limb's GEMM halves inside the
        # float64 budget (a narrow limb's shift applied to a wide limb's
        # matrices would not -- see test_mixed_width_stack_bit_exact).
        bits = max((int(q) - 1).bit_length() for q in moduli)
        shift1 = split_shift(bits + 1, bits, self.rows)
        shift4 = split_shift(bits + 1, bits, self.cols)
        if shift1 is None or shift4 is None:
            raise ParameterError(
                "four-step split is not exact for this stack's modulus widths"
            )
        shift_tw = (bits + 1) // 2

        def stack(pick) -> np.ndarray:
            return np.ascontiguousarray(np.stack([pick(t) for t in tables]))

        def pack(first_name, tw_name, second_name, sh_first, sh_second, a, b):
            return (
                stack(lambda t: _cat_split(getattr(t, first_name), sh_first)),
                np.float64(1 << sh_first),
                _twist_pack(
                    stack(lambda t: getattr(t, tw_name)), moduli, shift_tw, self._q_u
                ),
                stack(lambda t: _cat_split(getattr(t, second_name), sh_second)),
                np.float64(1 << sh_second),
                a,
                b,
            )

        self._fwd_pack = pack(
            "m1", "tw_fwd", "m4", shift1, shift4, self.rows, self.cols
        )
        self._inv_pack = pack(
            "m4_inv", "tw_inv", "m1_inv", shift4, shift1, self.cols, self.rows
        )


# ------------------------------------------------------------------ dispatch
_DEFAULT_BACKEND = BACKEND_AUTO
_CALIBRATION = register_cache(
    BoundedLruCache(name="ntt.calibration", capacity=512)
)
#: Bumped whenever a dispatch input outside the per-call cache key changes
#: (calibration resets, quarantine changes); plans memoise their resolved
#: backend against it.
_DISPATCH_EPOCH = 0

#: Backends quarantined by a failed exactness sentinel or spot check.  A
#: quarantined backend is never selected again (process-wide) until
#: :func:`clear_quarantine`; :func:`resolve_backend` walks the degradation
#: ladder ``four_step -> butterfly -> reference`` past it, recording the
#: fallback in `repro.diagnostics`.  The reference oracle is the ground truth
#: and cannot be quarantined.
_QUARANTINE: set[str] = set()


def quarantine_backend(name: str, **details) -> None:
    """Quarantine a backend after an exactness failure (idempotent).

    Records a ``backend_quarantined`` diagnostics event and bumps the dispatch
    epoch so every memoised plan re-resolves on its next call.
    """
    global _DISPATCH_EPOCH
    if name not in BACKENDS_QUARANTINABLE:
        raise ParameterError(
            f"backend {name!r} cannot be quarantined (reference is the oracle)"
        )
    if name not in _QUARANTINE:
        _QUARANTINE.add(name)
        _DISPATCH_EPOCH += 1
        diagnostics.record_event("backend_quarantined", backend=name, **details)


def quarantined_backends() -> frozenset:
    """The currently quarantined backend names."""
    return frozenset(_QUARANTINE)


def clear_quarantine() -> None:
    """Lift all quarantines (tests / operator intervention after a fix)."""
    global _DISPATCH_EPOCH
    if _QUARANTINE:
        _QUARANTINE.clear()
        _DISPATCH_EPOCH += 1


def lift_quarantine(name: str) -> bool:
    """Lift the quarantine of one backend (half-open circuit-breaker probes).

    The serving layer's circuit breaker re-admits a quarantined backend
    tentatively after a cooldown: it lifts the quarantine, re-probes via
    :func:`verify_plan` and lets a failed probe re-quarantine.  Records a
    ``backend_quarantine_lifted`` event and returns whether the backend was
    actually quarantined.
    """
    global _DISPATCH_EPOCH
    if name not in _QUARANTINE:
        return False
    _QUARANTINE.discard(name)
    _DISPATCH_EPOCH += 1
    diagnostics.record_event("backend_quarantine_lifted", backend=name)
    return True


def set_default_backend(name: str) -> str:
    """Set the process default backend (``auto`` or a member of ``BACKENDS``).

    Returns the previous default.  The ``REPRO_NTT_BACKEND`` environment
    variable, when set, takes precedence over this value.
    """
    global _DEFAULT_BACKEND
    if name not in BACKENDS + (BACKEND_AUTO,):
        raise ParameterError(f"unknown NTT backend {name!r}")
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = name
    return previous


def requested_backend() -> str:
    """The configured backend request: env override, else the process default."""
    value = os.environ.get(_BACKEND_ENV, "").strip().lower()
    if value and value not in BACKENDS + (BACKEND_AUTO,):
        raise ParameterError(
            f"{_BACKEND_ENV}={value!r} is not one of {BACKENDS + (BACKEND_AUTO,)}"
        )
    return value or _DEFAULT_BACKEND


def four_step_supported(degree: int, moduli: tuple[int, ...]) -> bool:
    """True when the four-step GEMM split is exact for every modulus.

    The split bound depends on the modulus width and the ``(n1, n2)``
    factorisation (inner GEMM length); dispatch uses this to guarantee an
    inexact backend is never selected.  Independently of the float64 bound,
    the twist stage and table construction do single-product mod arithmetic
    in uint64, so ``q < 2**32`` is required (``q**2`` must fit the word).
    Note this admits moduli *above* the butterfly's ``2**30`` lazy-reduction
    bound at small degrees -- the GEMM backend is the only planned path there.
    """
    if not is_power_of_two(degree) or degree < 4:
        return False
    if any(not 1 < int(q) < (1 << 32) for q in moduli):
        return False
    rows, cols = four_step_split(degree)
    bits = max((int(q) - 1).bit_length() for q in moduli)
    # The +1 operand allowance mirrors FourStepTables: the second GEMM of
    # either direction consumes lazily reduced operands in (-q, 2q).
    return (
        split_shift(bits + 1, bits, rows) is not None
        and split_shift(bits + 1, bits, cols) is not None
    )


def resolve_backend(
    degree: int,
    moduli: tuple[int, ...],
    *,
    requested: str | None = None,
    calibrate=None,
) -> str:
    """Pick the executable backend for a ring, never an inexact one.

    ``requested`` defaults to :func:`requested_backend`.  An explicit request
    is honoured only when exact for the ring, else it walks the degradation
    ladder ``four_step -> butterfly -> reference``.
    ``auto`` consults the memoised one-shot calibration: the closed-form
    ``N >= FOUR_STEP_MIN_DEGREE`` heuristic, or -- when
    ``REPRO_NTT_CALIBRATE=measure`` and the caller supplies a ``calibrate``
    thunk -- a timed trial of the two fast backends on the actual shape,
    cached per ``(N, L, modulus bits)``.

    Quarantined backends (failed exactness sentinel or strict-mode spot
    check) are skipped the same way inexact ones are; a quarantine-driven
    demotion additionally records a ``backend_fallback`` diagnostics event, so
    the degradation ladder is observable, never silent.
    """
    choice = requested if requested is not None else requested_backend()
    butterfly_exact = all(1 < int(q) < MAX_PLAN_MODULUS for q in moduli)
    four_step_exact = four_step_supported(degree, moduli)
    butterfly_ok = butterfly_exact and BACKEND_BUTTERFLY not in _QUARANTINE
    four_step_ok = four_step_exact and BACKEND_FOUR_STEP not in _QUARANTINE
    if choice == BACKEND_AUTO:
        if not (butterfly_ok and four_step_ok):
            choice = BACKEND_FOUR_STEP if four_step_ok else BACKEND_BUTTERFLY
        else:
            bits = max((int(q) - 1).bit_length() for q in moduli)
            key = (degree, len(moduli), bits)
            cached = _CALIBRATION.get(key)
            if cached is None:
                if os.environ.get(_CALIBRATE_ENV, "") == "measure" and calibrate:
                    cached = calibrate()
                else:
                    cached = (
                        BACKEND_FOUR_STEP
                        if degree >= FOUR_STEP_MIN_DEGREE
                        else BACKEND_BUTTERFLY
                    )
                _CALIBRATION.put(key, cached)
            choice = cached
    if choice == BACKEND_FOUR_STEP and not four_step_ok:
        if four_step_exact:
            diagnostics.record_event(
                "backend_fallback",
                backend=BACKEND_FOUR_STEP,
                fallback=BACKEND_BUTTERFLY,
                reason="quarantined",
                degree=degree,
            )
        choice = BACKEND_BUTTERFLY
    if choice == BACKEND_BUTTERFLY and not butterfly_ok:
        if butterfly_exact:
            diagnostics.record_event(
                "backend_fallback",
                backend=BACKEND_BUTTERFLY,
                fallback=BACKEND_REFERENCE,
                reason="quarantined",
                degree=degree,
            )
        choice = BACKEND_REFERENCE
    return choice


def calibration_cache() -> dict[tuple[int, int, int], str]:
    """Snapshot of the one-shot per-ring calibration decisions (tests)."""
    return dict(_CALIBRATION.items())


def reset_calibration() -> None:
    """Drop the memoised calibration decisions (test instrumentation)."""
    global _DISPATCH_EPOCH
    _CALIBRATION.clear()
    _DISPATCH_EPOCH += 1


def _resolve_memoised(owner, degree, moduli, requested, calibrate) -> str:
    """Per-plan memoised :func:`resolve_backend`.

    The hot path would otherwise re-derive ``four_step_supported`` (a
    per-modulus loop) on every transform of rings that are memoised exactly
    because they are hit millions of times.  The cache key carries every
    dispatch input that can change between calls -- the requested backend
    (env override included) and the calibration mode -- plus the global
    epoch, which calibration resets bump.
    """
    key = (requested, os.environ.get(_CALIBRATE_ENV, ""), _DISPATCH_EPOCH)
    cache = owner._dispatch_cache
    choice = cache.get(key)
    if choice is None:
        if len(cache) > 16:  # stale epochs accumulate across quarantine flips
            cache.clear()
        choice = resolve_backend(
            degree, moduli, requested=requested, calibrate=calibrate
        )
        cache[key] = choice
    return choice


# ------------------------------------------------------- exactness sentinels
def _sentinel_vector(degree: int, modulus: int) -> np.ndarray:
    """A deterministic full-range probe vector for the known-answer check."""
    mix = np.arange(degree, dtype=np.uint64) * np.uint64(0x9E3779B1)
    return (mix + np.uint64(0x7F4A7C15)) % np.uint64(modulus)


def _sentinel_passes(forward, inverse, probe, modulus: int, psi: int) -> bool:
    """Known-answer probe: forward row 0 vs the reference oracle + roundtrip.

    ``probe`` is ``(N,)`` or ``(L, N)``; only the first row pays a reference
    transform (the oracle rebuilds its tables in Python), the roundtrip
    equality covers every other row bit-exactly.
    """
    try:
        got = forward(probe)
        row = got if got.ndim == 1 else got[0]
        expected = ntt_forward_negacyclic(
            probe if probe.ndim == 1 else probe[0], modulus, psi
        )
        if not np.array_equal(row, expected):
            return False
        return bool(np.array_equal(inverse(got), probe))
    except (ArithmeticError, ValueError, FloatingPointError):
        return False


def _four_step_passes(owner, tables) -> bool:
    """Known-answer probe of ``owner``'s four-step tables (inexact ones fail)."""
    return tables.exact and _sentinel_passes(
        lambda m: tables.transform(m, True),
        lambda m: tables.transform(m, False),
        *owner._sentinel_probe(),
    )


def _vetted_four_step(owner, build, **where):
    """``owner``'s four-step tables once vetted by the sentinel, else ``None``.

    ``owner`` is an :class:`NttPlan` or :class:`NttPlanStack` and ``build``
    returns its (memoised) tables.  The sentinel runs once per owner, the
    first time dispatch selects the backend: tables that fail to build or
    are inexact are refused (recording a ``backend_fallback`` event), and a
    deterministic probe is transformed, checking row 0 against the reference
    oracle plus an exact roundtrip.  A mismatch quarantines the four-step
    backend process-wide and the caller heals down the degradation ladder
    instead of computing garbage.

    The verdict is published under the owner's lock: a thread arriving while
    another one probes waits for the verdict instead of reading a
    provisional one and running the stack on another rung unrecorded.
    """
    state = owner._sentinel_state
    if state is None:
        with owner._sentinel_lock:
            state = owner._sentinel_state
            if state is None:
                state = owner._sentinel_state = _four_step_verdict(
                    owner, build, where
                )
    return build() if state == "ok" else None


def _four_step_verdict(owner, build, where: dict) -> str:
    try:
        tables = build()
    except (ParameterError, ArithmeticError) as exc:
        reason = f"table build failed: {exc}"
    else:
        if tables.exact:
            if not sentinel_enabled() or _four_step_passes(owner, tables):
                return "ok"
            quarantine_backend(
                BACKEND_FOUR_STEP,
                reason="known-answer sentinel mismatch at table build",
                **where,
            )
            return "failed"
        reason = "four-step split is not exact for this ring"
    diagnostics.record_event(
        "backend_fallback",
        backend=BACKEND_FOUR_STEP,
        fallback=BACKEND_BUTTERFLY if owner.butterfly_ok else BACKEND_REFERENCE,
        reason=reason,
        **where,
    )
    return "failed"


_SPOT_COUNTER = 0
#: Threads count passes concurrently; the sampling stays exact under a lock.
_SPOT_COUNTER_LOCK = threading.Lock()


def _spot_check_due() -> bool:
    """Strict-mode sampling: true every ``REPRO_NTT_SPOT_STRIDE``-th pass."""
    global _SPOT_COUNTER
    if not _gemm_is_strict():
        return False
    stride = _spot_stride()
    with _SPOT_COUNTER_LOCK:
        _SPOT_COUNTER += 1
        return _SPOT_COUNTER % stride == 0


def _spot_check_row(
    direction: str,
    backend: str,
    row_in: np.ndarray,
    row_out: np.ndarray,
    degree: int,
    modulus: int,
    psi: int,
) -> None:
    """Verify one transformed row against the reference oracle (strict mode).

    A mismatch quarantines the offending backend (subsequent calls heal down
    the degradation ladder) and raises :class:`BackendExactnessError` so the
    corrupted result never propagates silently.
    """
    oracle = (
        ntt_forward_negacyclic if direction == "forward" else ntt_inverse_negacyclic
    )
    if np.array_equal(row_out, oracle(row_in, modulus, psi)):
        return
    quarantine_backend(
        backend,
        reason="strict-mode spot check mismatch",
        direction=direction,
        degree=degree,
        modulus=modulus,
    )
    raise BackendExactnessError(
        f"{backend} NTT backend produced an inexact {direction} transform "
        f"(degree={degree}, q={modulus}); the backend is quarantined and "
        "subsequent calls fall back down the degradation ladder"
    )


def _timed_best(candidates: dict[str, "callable"], probe: np.ndarray) -> str:
    """One-shot calibration: fastest backend on a representative probe."""
    timings: dict[str, float] = {}
    for name, fn in candidates.items():
        fn(probe)  # warm-up (builds lazy tables, touches caches)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            fn(probe)
            best = min(best, time.perf_counter() - started)
        timings[name] = best
    return min(timings, key=timings.get)


@dataclass
class NttPlan:
    """Precomputed negacyclic NTT machinery for one ``(degree, modulus)`` ring.

    ``forward``/``inverse`` accept any ``(..., N)`` array of *reduced*
    residues and transform every row in one vectorized pass; outputs are in
    ``[0, q)`` and bit-exact with the `repro.poly.ntt_reference` functions for
    the same ``psi``, whichever backend executes the call.

    ``backend`` pins the execution backend (a member of :data:`BACKENDS`);
    the default ``None`` defers to :func:`resolve_backend` on every call, so
    cached plans honour environment/default overrides and the one-shot
    calibration without rebuilding.  Moduli must fit *some* planned backend:
    ``q < 2**30`` (butterfly lazy-reduction bound) or a ring whose four-step
    GEMM split is exact (which admits ``q`` up to ``2**32`` at small
    degrees); anything wider stays on the caller-side reference fallback.
    """

    degree: int
    modulus: int
    psi: int
    backend: str | None = None

    def __post_init__(self) -> None:
        if not is_power_of_two(self.degree):
            raise ParameterError("NTT length must be a power of two")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ParameterError(f"unknown NTT backend {self.backend!r}")
        n, q = self.degree, self.modulus
        self.butterfly_ok = 1 < q < MAX_PLAN_MODULUS
        if not (self.butterfly_ok or four_step_supported(n, (q,))):
            raise ParameterError(
                "NttPlan requires q < 2**30 (lazy-reduction bound) or an "
                "exact four-step GEMM split for (degree, q)"
            )
        self._q = np.uint64(q)
        self._two_q = np.uint64(2 * q)
        self.bitrev = bit_reverse_indices(n)
        self._four_step: FourStepTables | None = None
        self._sentinel_state: str | None = None
        self._sentinel_lock = threading.Lock()
        self._dispatch_cache: dict = {}
        if not self.butterfly_ok:
            return
        omega = pow(self.psi, 2, q)
        self.fwd_stages = _build_stages(omega, n, q)
        self.inv_stages = _build_stages(mod_inv(omega, q), n, q)
        self.twist = _power_table(self.psi, n, q)
        self.twist_shoup = _shoup_quotients(self.twist, q)
        # The twist is applied after the bit-reversal gather, so the hot path
        # keeps bit-reversed copies of the twist tables.
        self.twist_br = self.twist[self.bitrev]
        self.twist_br_shoup = self.twist_shoup[self.bitrev]
        # Untwist folds the 1/N scaling into the psi^{-j} powers.
        self.untwist = _power_table(mod_inv(self.psi, q), n, q, first=mod_inv(n, q))
        self.untwist_shoup = _shoup_quotients(self.untwist, q)

    # ------------------------------------------------------------- backends
    def four_step_tables(self) -> FourStepTables:
        """The lazily built four-step GEMM tables for this ring."""
        if self._four_step is None:
            self._four_step = FourStepTables(self.degree, self.modulus, self.psi)
        return self._four_step

    def _sentinel_probe(self) -> tuple[np.ndarray, int, int]:
        return _sentinel_vector(self.degree, self.modulus), self.modulus, self.psi

    def _checked_four_step(self) -> FourStepTables | None:
        """Four-step tables vetted by the known-answer sentinel, else ``None``."""
        return _vetted_four_step(
            self, self.four_step_tables, degree=self.degree, modulus=self.modulus
        )

    def _calibrate(self) -> str:
        probe = np.zeros((1, self.degree), dtype=np.uint64)
        candidates = {
            BACKEND_BUTTERFLY: self._forward_butterfly,
            BACKEND_FOUR_STEP: self.four_step_tables().forward,
        }
        return _timed_best(candidates, probe)

    def resolve_backend(self) -> str:
        """The backend a call dispatched right now would execute (memoised)."""
        return _resolve_memoised(
            self,
            self.degree,
            (self.modulus,),
            self.backend or requested_backend(),
            self._calibrate,
        )

    def _forward_butterfly(self, coeffs: np.ndarray) -> np.ndarray:
        data = np.take(coeffs, self.bitrev, axis=-1)
        _twist_in_place(data, self.twist_br, self.twist_br_shoup, self._q, np.empty_like(data))
        _lazy_butterflies(data, self.fwd_stages, self._q, self._two_q)
        _reduce_once(data, self._two_q)
        _reduce_once(data, self._q)
        return data

    def _inverse_butterfly(self, evaluations: np.ndarray) -> np.ndarray:
        data = np.take(evaluations, self.bitrev, axis=-1)
        _lazy_butterflies(data, self.inv_stages, self._q, self._two_q)
        _twist_in_place(data, self.untwist, self.untwist_shoup, self._q, np.empty_like(data))
        _reduce_once(data, self._q)
        return data

    # ---------------------------------------------------------------- entry
    def _execute(self, data: np.ndarray, direction: str) -> np.ndarray:
        """Dispatch one counted pass through the sentinel-vetted backend.

        A four-step selection whose sentinel failed heals down the ladder
        (butterfly, else reference) within the same call; in strict mode a
        sampled row of the fast-backend output is re-verified against the
        reference oracle (:func:`_spot_check_row`).
        """
        forward = direction == "forward"
        backend = self.resolve_backend()
        tables: FourStepTables | None = None
        if backend == BACKEND_FOUR_STEP:
            tables = self._checked_four_step()
            if tables is None:
                backend = (
                    BACKEND_BUTTERFLY if self.butterfly_ok else BACKEND_REFERENCE
                )
        if backend == BACKEND_REFERENCE:
            oracle = (
                ntt_forward_negacyclic if forward else ntt_inverse_negacyclic
            )
            return oracle(data, self.modulus, self.psi)
        if backend == BACKEND_FOUR_STEP:
            out = tables.forward(data) if forward else tables.inverse(data)
        else:
            out = (
                self._forward_butterfly(data)
                if forward
                else self._inverse_butterfly(data)
            )
        if _spot_check_due():
            _spot_check_row(
                direction,
                backend,
                data.reshape(-1, self.degree)[0],
                out.reshape(-1, self.degree)[0],
                self.degree,
                self.modulus,
                self.psi,
            )
        return out

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT over the last axis (natural order in/out)."""
        coeffs = np.asarray(coeffs, dtype=np.uint64)
        _count_pass("forward", coeffs.size // self.degree)
        return self._execute(coeffs, "forward")

    def inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT over the last axis (natural order in/out)."""
        evaluations = np.asarray(evaluations, dtype=np.uint64)
        _count_pass("inverse", evaluations.size // self.degree)
        return self._execute(evaluations, "inverse")

    def pointwise(self, a_eval: np.ndarray, b_eval: np.ndarray) -> np.ndarray:
        """Evaluation-domain product of reduced operands.

        Executes as the ``vec_mod_mul`` fused kernel (the lowered VecModOps
        category); the numpy implementation is the former eager expression.
        """
        a_eval = np.asarray(a_eval, dtype=np.uint64)
        b_eval = np.asarray(b_eval, dtype=np.uint64)
        return fused_kernels.vec_mod_mul(a_eval, b_eval, self._q)

    def multiply(self, a_coeffs: np.ndarray, b_coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic polynomial product through the cached transform."""
        return self.inverse(self.pointwise(self.forward(a_coeffs), self.forward(b_coeffs)))


class NttPlanStack:
    """Stacked per-limb plans executing a whole ``(L, N)`` matrix at once.

    Twiddle/twist tables of the ``L`` single-modulus plans are stacked into
    ``(L, ...)`` arrays so every butterfly stage is one NumPy expression over
    all limbs simultaneously -- the limb axis rides along as a batch dimension
    with per-row moduli.
    """

    def __init__(self, plans: tuple[NttPlan, ...], backend: str | None = None):
        if not plans:
            raise ParameterError("plan stack needs at least one limb")
        degrees = {plan.degree for plan in plans}
        if len(degrees) != 1:
            raise ParameterError("all limbs of a plan stack must share the ring degree")
        if backend is not None and backend not in BACKENDS:
            raise ParameterError(f"unknown NTT backend {backend!r}")
        self.plans = plans
        self.backend = backend
        self.degree = plans[0].degree
        self.moduli = tuple(plan.modulus for plan in plans)
        self.bitrev = plans[0].bitrev
        self.butterfly_ok = all(plan.butterfly_ok for plan in plans)
        q_col = np.array(self.moduli, dtype=np.uint64)[:, None]
        self._q_col, self._two_q_col = q_col, q_col * np.uint64(2)
        self._q_cube, self._two_q_cube = q_col[:, :, None], self._two_q_col[:, :, None]
        # Reusable scratch keeps the hot loop allocation-free; stacks are
        # cached process-wide, so buffers are per-thread to stay reentrant
        # (NumPy releases the GIL inside ufunc loops).
        self._thread_local = threading.local()
        self._four_step_stack: _FourStepStack | None = None
        self._sentinel_state: str | None = None
        self._sentinel_lock = threading.Lock()
        self._dispatch_cache: dict = {}
        if not self.butterfly_ok:
            return

        def stack(per_plan) -> np.ndarray:
            return np.stack([per_plan(p) for p in plans], axis=0)

        def stack_stages(which: str) -> tuple[_Stage, ...]:
            reference = getattr(plans[0], which)
            stages = []
            for s in range(len(reference)):
                twiddles = stack(lambda p: getattr(p, which)[s].twiddles)  # (L, half)
                shoup = stack(lambda p: getattr(p, which)[s].shoup)
                stages.append(
                    _Stage(
                        twiddles=twiddles[:, None, :],
                        shoup=shoup[:, None, :],
                        twiddles_t=twiddles[:, :, None],
                        shoup_t=shoup[:, :, None],
                        identity=reference[s].identity,
                    )
                )
            return tuple(stages)

        self._fwd_stages = stack_stages("fwd_stages")
        self._inv_stages = stack_stages("inv_stages")
        self._twist_br = stack(lambda p: p.twist_br)
        self._twist_br_shoup = stack(lambda p: p.twist_br_shoup)
        self._untwist = stack(lambda p: p.untwist)
        self._untwist_shoup = stack(lambda p: p.untwist_shoup)

    @property
    def limb_count(self) -> int:
        """Number of stacked limbs L."""
        return len(self.plans)

    def _buffers(self) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """This thread's (butterfly scratch pair, full-size scratch)."""
        local = self._thread_local
        if not hasattr(local, "scratch"):
            shape = (self.limb_count, max(self.degree // 2, 1))
            local.scratch = (
                np.empty(shape, dtype=np.uint64),
                np.empty(shape, dtype=np.uint64),
            )
            local.scratch_full = np.empty((self.limb_count, self.degree), dtype=np.uint64)
        return local.scratch, local.scratch_full

    def _check_shape(self, matrix: np.ndarray, plans: tuple) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.uint64)
        expected = (len(plans), self.degree)
        if matrix.ndim < 2 or matrix.shape[-2:] != expected:
            raise ParameterError(
                f"residue matrix has shape {matrix.shape}, expected (..., {expected[0]}, {expected[1]})"
            )
        return matrix

    def four_step_stack(self) -> _FourStepStack:
        """The lazily built limb-stacked four-step GEMM tables."""
        if self._four_step_stack is None:
            self._four_step_stack = _FourStepStack(
                tuple(plan.four_step_tables() for plan in self.plans)
            )
        return self._four_step_stack

    def _sentinel_probe(self) -> tuple[np.ndarray, int, int]:
        matrix = np.stack([_sentinel_vector(self.degree, q) for q in self.moduli])
        return matrix, self.moduli[0], self.plans[0].psi

    def _checked_four_step_stack(self) -> _FourStepStack | None:
        """Sentinel-vetted stacked four-step tables, else ``None`` (heal).

        The probe is a full ``(L, N)`` matrix: limb 0 is checked against the
        reference oracle and the exact roundtrip covers the rest.
        """
        return _vetted_four_step(
            self, self.four_step_stack, degree=self.degree, limbs=self.limb_count
        )

    def _calibrate(self) -> str:
        probe = np.zeros((self.limb_count, self.degree), dtype=np.uint64)
        stack = self.four_step_stack()
        candidates = {
            BACKEND_BUTTERFLY: lambda m: self._butterfly_tiled(m, True),
            BACKEND_FOUR_STEP: lambda m: stack.transform(m, True),
        }
        return _timed_best(candidates, probe)

    def resolve_backend(self) -> str:
        """The backend a call dispatched right now would execute (memoised)."""
        return _resolve_memoised(
            self,
            self.degree,
            self.moduli,
            self.backend or requested_backend(),
            self._calibrate,
        )

    def _transform(
        self, matrix: np.ndarray, forward: bool, limbs: slice | None
    ) -> np.ndarray:
        """One counted pass over a ``(..., L, N)`` matrix.

        On the butterfly backend, stacked operands (leading batch axes, e.g.
        the fused key switch's ``(dnum, L', N)`` digit tensor) are tiled
        internally one ``(L, N)`` slice at a time: a slice's working set
        stays cache-resident where the monolithic broadcast walk would stream
        every stage through memory.  The four-step GEMM backend instead feeds
        the whole stacked tensor to batched BLAS in one cascade (bigger GEMMs
        amortise better than cache-tiled butterflies).  Either way it is a
        single batched pass from the caller's point of view; the counters
        additionally book one limb pass per length-``N`` row transformed.

        ``limbs`` (a slice of the limb axis) transforms an operand holding
        only those limbs of the stack, on views of the stack's tables: how the
        key switch transforms a digit's foreign limbs, or the special limbs
        alone, without a plan stack (and its table set) per limb subset.
        """
        plans = self.plans if limbs is None else self.plans[limbs]
        matrix = self._check_shape(matrix, plans)
        direction = "forward" if forward else "inverse"
        _count_pass(direction, matrix.size // self.degree)
        backend = self.resolve_backend()
        stack: _FourStepStack | None = None
        if backend == BACKEND_FOUR_STEP:
            stack = self._checked_four_step_stack()
            if stack is None:
                backend = (
                    BACKEND_BUTTERFLY if self.butterfly_ok else BACKEND_REFERENCE
                )
        if backend == BACKEND_REFERENCE:
            return self._reference_transform(matrix, forward, plans)
        if backend == BACKEND_FOUR_STEP:
            out = stack.transform(matrix, forward, limbs)
        elif limbs is None:
            out = self._butterfly_tiled(matrix, forward)
        else:
            # The stacked butterfly tables are not sliced per stage: a limb
            # subset on this (rarely dispatched) rung runs limb by limb.
            out = np.empty_like(matrix)
            for i, plan in enumerate(plans):
                butterfly = (
                    plan._forward_butterfly if forward else plan._inverse_butterfly
                )
                out[..., i, :] = butterfly(matrix[..., i, :])
        if _spot_check_due():
            _spot_check_row(
                direction,
                backend,
                matrix.reshape(-1, self.degree)[0],
                out.reshape(-1, self.degree)[0],
                self.degree,
                plans[0].modulus,
                plans[0].psi,
            )
        return out

    def _reference_transform(
        self, matrix: np.ndarray, forward: bool, plans: tuple
    ) -> np.ndarray:
        out = np.empty_like(matrix)
        for i, plan in enumerate(plans):
            transform = ntt_forward_negacyclic if forward else ntt_inverse_negacyclic
            out[..., i, :] = transform(matrix[..., i, :], plan.modulus, plan.psi)
        return out

    def _butterfly_tiled(self, matrix: np.ndarray, forward: bool) -> np.ndarray:
        if matrix.ndim == 2:
            return self._transform_2d(matrix, forward)
        flat = matrix.reshape(-1, self.limb_count, self.degree)
        out = np.empty_like(flat)
        for index in range(flat.shape[0]):
            out[index] = self._transform_2d(flat[index], forward)
        return out.reshape(matrix.shape)

    def _transform_2d(self, matrix: np.ndarray, forward: bool) -> np.ndarray:
        scratch, scratch_full = self._buffers()
        data = np.take(matrix, self.bitrev, axis=-1)
        if forward:
            _twist_in_place(data, self._twist_br, self._twist_br_shoup, self._q_col, scratch_full)
            _lazy_butterflies(data, self._fwd_stages, self._q_cube, self._two_q_cube, scratch)
            _reduce_once(data, self._two_q_col, scratch_full)
        else:
            _lazy_butterflies(data, self._inv_stages, self._q_cube, self._two_q_cube, scratch)
            _twist_in_place(data, self._untwist, self._untwist_shoup, self._q_col, scratch_full)
        _reduce_once(data, self._q_col, scratch_full)
        return data

    def forward(self, matrix: np.ndarray, limbs: slice | None = None) -> np.ndarray:
        """Forward NTT of all limbs of a reduced ``(..., L, N)`` matrix.

        Leading axes are stacked operands (e.g. key-switch digits) that ride
        through the cascade in the same single counted pass.  With ``limbs``
        (a slice) the matrix holds only those limbs of the stack.
        """
        return self._transform(matrix, True, limbs)

    def inverse(self, matrix: np.ndarray, limbs: slice | None = None) -> np.ndarray:
        """Inverse NTT of all (or the ``limbs`` slice of) limbs of a matrix."""
        return self._transform(matrix, False, limbs)


# --------------------------------------------------------------- plan caches
_PLAN_CACHE = register_cache(BoundedLruCache(name="ntt.plans", capacity=256))
_STACK_CACHE = register_cache(
    BoundedLruCache(name="ntt.plan_stacks", capacity=128)
)


def plan_for(degree: int, modulus: int, psi: int | None = None) -> NttPlan:
    """Return the cached :class:`NttPlan` for ``(degree, modulus)``.

    ``psi`` defaults to the deterministic primitive ``2N``-th root produced by
    `primitive_nth_root_of_unity` -- the same root `PolyRing` uses -- so plans
    built here are bit-compatible with the ring layer.
    """
    key = (degree, modulus)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        if psi is None:
            psi = primitive_nth_root_of_unity(2 * degree, modulus)
        plan = NttPlan(degree=degree, modulus=modulus, psi=psi)
        _PLAN_CACHE.put(key, plan)
    elif psi is not None and plan.psi != psi:
        raise ParameterError(
            f"plan cache for (degree={degree}, q={modulus}) holds psi={plan.psi}, "
            f"but psi={psi} was requested; plans are keyed per ring, not per root"
        )
    return plan


def plan_stack_for(moduli: tuple[int, ...], degree: int) -> NttPlanStack:
    """Return the cached :class:`NttPlanStack` for an RNS basis' moduli."""
    key = (tuple(int(q) for q in moduli), degree)
    stack = _STACK_CACHE.get(key)
    if stack is None:
        stack = NttPlanStack(tuple(plan_for(degree, q) for q in key[0]))
        _STACK_CACHE.put(key, stack)
    return stack


def reset_sentinels() -> None:
    """Forget memoised sentinel verdicts so the next dispatch re-probes.

    Used by the fault-injection harness after reverting an injected table
    corruption: the cached "failed" verdicts would otherwise outlive the
    fault they diagnosed.
    """
    for _, plan in _PLAN_CACHE.items():
        plan._sentinel_state = None
    for _, stack in _STACK_CACHE.items():
        stack._sentinel_state = None


def verify_plan(plan: "NttPlan | NttPlanStack") -> bool:
    """Re-run the known-answer probe against the backend ``plan`` resolves now.

    The build-time sentinel runs once, so table corruption *after* the build
    (bit flips, a bad accelerator) would go unnoticed outside strict mode.
    This is the operator/fault-drill entry point: it probes the currently
    resolved backend, quarantines it on a mismatch (recording the event), and
    returns whether the backend verified.  The reference oracle trivially
    verifies.
    """
    backend = plan.resolve_backend()
    if backend == BACKEND_REFERENCE:
        return True
    is_stack = isinstance(plan, NttPlanStack)
    if backend == BACKEND_FOUR_STEP:
        tables = plan.four_step_stack() if is_stack else plan.four_step_tables()
        ok = _four_step_passes(plan, tables)
    elif is_stack:
        ok = _sentinel_passes(
            lambda m: plan._butterfly_tiled(m, True),
            lambda m: plan._butterfly_tiled(m, False),
            *plan._sentinel_probe(),
        )
    else:
        ok = _sentinel_passes(
            plan._forward_butterfly, plan._inverse_butterfly, *plan._sentinel_probe()
        )
    if not ok:
        if backend == BACKEND_FOUR_STEP:
            plan._sentinel_state = "failed"
        quarantine_backend(
            backend,
            reason="known-answer verification failed",
            degree=plan.degree,
        )
    return ok


def supports(moduli: tuple[int, ...], degree: int | None = None) -> bool:
    """True when the engine can plan every modulus exactly.

    Butterfly covers any ``q`` below the lazy-reduction word bound; with the
    ring ``degree`` supplied, the four-step GEMM backend additionally covers
    wider moduli whose split stays exact at that degree's factorisation.
    Moduli beyond both stay on the caller-side big-int reference path.
    """
    if all(1 < int(q) < MAX_PLAN_MODULUS for q in moduli):
        return True
    return degree is not None and four_step_supported(degree, tuple(moduli))
