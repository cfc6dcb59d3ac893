"""Limb-stacked negacyclic NTT engine: one plan type, three bit-exact backends.

The reference transform (`repro.poly.ntt_reference`) is bit-exact but rebuilds
its twiddle, twist, and bit-reversal tables inside Python loops on every call.
This module is the production path.  An :class:`NttPlanStack` transforms a
whole ``(L, N)`` residue matrix -- one row per RNS limb, each row with its own
modulus -- in one pass: the limb-parallel execution model the paper maps
onto wide batched hardware.  A single-modulus ring is simply the ``L = 1``
stack (`repro.poly.ring.PolyRing` reshapes ``(..., N)`` to ``(..., 1, N)``),
and a limb subset of a stack (``limbs=slice``) runs on views of the stack's
own tables.  Stacks also accept *stacked operands*: any leading batch axes
before the ``(L, N)`` tail (e.g. the ``(dnum, L', N)`` all-digit tensor the
fused key switch builds) ride through the same cascade, so converting every
key-switch digit still counts as a single transform pass.  Moduli no backend
covers exactly are not planned, and callers fall back to the big-int-safe
reference path.

Tables are per limb, so there is one table set per modulus *chain*, owned
by the chain: CKKS parameters hold their ``Q_L·P`` chain, interned by its
exact key (:func:`register_chain`), and every basis they hand out names it
and runs on the chain's view of its moduli (:meth:`NttPlanStack.view`) --
one or two row ranges of its tables.  Constants derived from the chain are
memo entries on it (:meth:`NttPlanStack.constant`), so they die with it.  A
bare moduli tuple gets a chain-less stack from :func:`plan_stack_for`.

Backends
--------
Every stack fronts three interchangeable, bit-exact backends (the paper's
thesis is that the NTT *is* a block matmul, so it should run on the matrix
engine):

* ``four_step`` -- the transform factored as ``N = n1 * n2``: column NTTs as
  a precomputed ``(n1, n1)`` twiddle-matrix matmul, a cached mod-``q`` twist,
  and row NTTs as an ``(n2, n2)`` matmul, both matmuls executed by the exact
  hi/lo split-float64 BLAS GEMM kernel shared with BConv
  (`repro.poly.gemm_mod`);
* ``butterfly`` -- a radix-2 cascade over the bit-reversal permutation,
  per-stage twiddle tables, and twist / untwist vectors (``N^{-1}`` folded
  in).  Multiplication by a precomputed constant uses Shoup's method (two
  word multiplies), and the butterflies are *lazy* in Harvey's sense:
  intermediates live in ``[0, 4q)``, each stage performs a single
  conditional subtraction of ``2q``, and values are reduced to ``[0, q)``
  once at the end.  Exact for any ``q < 2**30``; and
* ``reference`` -- the per-call table-building oracle
  (`repro.poly.ntt_reference`).

Each rung's tables are built once per chain, stacked, on the first dispatch
to that rung (or by :meth:`NttPlanStack.warm`), so a chain that never
leaves ``four_step`` holds no butterfly tables.
Every table entry is a power of the limb's primitive ``2N``-th root ``psi``
(the root `PolyRing` uses), gathered from one per-limb power table.

``NttPlanStack.backend`` pins a backend explicitly; the default (``None``)
defers to :func:`resolve_backend`: the ``REPRO_NTT_BACKEND`` environment
override or :func:`set_default_backend`, where ``auto`` means ``four_step``
when its split is exact and it is not quarantined, else ``butterfly``, else
``reference``.  Dispatch never selects a backend that would be inexact for
the ring's modulus width.

Quarantine and recovery
-----------------------
A chain runs a fast rung only after a known-answer vet of that rung's
tables over every row of the chain (:meth:`NttPlanStack._vetted`); the
verdict holds for the rung's current *generation*.  A failed vet, a
strict-mode spot check or :func:`verify_plan` quarantines the rung
process-wide, which bumps its generation, and dispatch walks down the
ladder.  A quarantine lapses by itself after its cooldown
(:data:`QUARANTINE_COOLDOWN_S`, doubled by each quarantine up to
:data:`QUARANTINE_COOLDOWN_MAX_S`, reset by a passing vet); the lapse is
noticed by the next dispatch in whichever process runs the transform, and
each chain then re-vets the rung before using it again.  So a transient
fault costs the fast rung for a cooldown, corrupted tables stay out with the
cooldown doubling, and no table set ever runs unvetted.  While no quarantine
is in force, dispatch reads no clock and takes no lock.

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
import weakref
from typing import NamedTuple

import numpy as np

from repro import diagnostics
from repro.diagnostics import BoundedLruCache, register_cache
from repro.errors import BackendExactnessError, ParameterError
from repro.numtheory.bitrev import bit_reverse_indices, is_power_of_two
from repro.numtheory.modular import mod_inv, primitive_nth_root_of_unity
from repro.poly.gemm_mod import split_halves, split_shift
from repro.poly.gemm_mod import is_strict as _gemm_is_strict
from repro.poly.ntt_reference import ntt_forward_negacyclic, ntt_inverse_negacyclic

#: Lazy (Harvey-style) butterflies need ``4q < 2**32`` so every intermediate
#: fits the 32-bit Shoup precision and uint64 products never overflow.
MAX_PLAN_MODULUS = 1 << 30

_SHIFT32 = np.uint64(32)

#: Backend identifiers (``NttPlanStack.backend`` / ``REPRO_NTT_BACKEND`` values).
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
#: Strict-mode runtime spot checks re-verify one transformed row against the
#: reference oracle every this-many counted passes (``REPRO_NTT_SPOT_STRIDE``).
_SPOT_STRIDE_ENV = "REPRO_NTT_SPOT_STRIDE"
_SPOT_STRIDE_DEFAULT = 64


def _spot_stride() -> int:
    try:
        return max(1, int(os.environ.get(_SPOT_STRIDE_ENV, _SPOT_STRIDE_DEFAULT)))
    except ValueError:
        return _SPOT_STRIDE_DEFAULT


#: Process-wide transform counters.  ``forward``/``inverse`` count *passes*
#: (one increment per ``forward``/``inverse`` call on a plan stack, however
#: many limbs or stacked operands that call batches);
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


# ------------------------------------------------------------------ tables
def _psi_powers(moduli: tuple[int, ...], psis: tuple[int, ...], degree: int) -> np.ndarray:
    """``P[l, e] = psi_l**e mod q_l`` for ``e < 2N``, every limb at once.

    Every table either fast backend uses is a gather from this one: its
    entries are powers of the limb's primitive ``2N``-th root, so exponents
    reduce modulo ``2N`` (``psi**-e == psi**(2N - e)``).  Built by vectorized
    doubling; ``q < 2**32`` keeps every product inside uint64.
    """
    count = 2 * degree
    q = np.array(moduli, dtype=np.uint64)[:, None]
    step = np.array(psis, dtype=np.uint64)[:, None]
    out = np.empty((len(moduli), count), dtype=np.uint64)
    out[:, 0] = 1
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        chunk = out[:, filled : filled + take]
        np.multiply(out[:, :take], step, out=chunk)
        chunk %= q
        filled += take
        step = step * step % q
    return out


def _gather(powers: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``psi**exponents`` per limb: ``(L, *exponents.shape)``, any sign."""
    return powers[:, exponents % powers.shape[1]]


def _shoup_quotients(values: np.ndarray, q_col: np.ndarray) -> np.ndarray:
    """Per-element 32-bit Shoup companions ``floor(w * 2**32 / q)``."""
    return (values << _SHIFT32) // q_col


def _n_inverse(degree: int, moduli: tuple[int, ...]) -> np.ndarray:
    """``N^{-1} mod q`` per limb, ``(L,)``."""
    return np.array([mod_inv(degree, q) for q in moduli], dtype=np.uint64)


def _reduce_once(x: np.ndarray, q, scratch: np.ndarray) -> None:
    """In-place conditional subtract of ``q`` for values in ``[0, 2q)``.

    Uses the wrap-around trick: ``x - q`` underflows past ``x`` whenever
    ``x < q``, so ``minimum`` selects the reduced representative.
    """
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


def _limb_view(constant, limbs: slice | None):
    """``constant`` restricted to the ``limbs`` slice of its leading limb axis.

    Walks tuples (named ones keep their type) and slices every array: a basic
    slice of a limb-stacked table is a view, so a limb subset runs on the
    stack's own tables and no table set is built per subset.  Scalars and
    markers pass through.
    """
    if limbs is None:
        return constant
    if isinstance(constant, np.ndarray):
        return constant[limbs]
    if isinstance(constant, tuple):
        items = [_limb_view(item, limbs) for item in constant]
        return constant._make(items) if hasattr(constant, "_make") else tuple(items)
    return constant


# ------------------------------------------------------------------ butterfly
#: Stages with at most this many twiddles run on transposed views: the block
#: axis becomes the inner loop, avoiding per-chunk ufunc overhead on the
#: tiny contiguous runs of the early stages.
_TRANSPOSE_MAX_HALF = 8


class _Stage(NamedTuple):
    """One butterfly stage: twiddles and Shoup companions, both orientations.

    ``twiddles``/``shoup`` are ``(L, 1, half)`` and broadcast along the half
    axis (block-major views); the ``_t`` variants are ``(L, half, 1)`` and
    broadcast along the block axis instead (transposed views for small-
    ``half`` stages).  ``identity`` marks the all-ones first stage, whose
    multiplication (and, with reduced inputs, whose reductions) are skipped.
    """

    twiddles: np.ndarray
    shoup: np.ndarray
    twiddles_t: np.ndarray
    shoup_t: np.ndarray
    identity: bool


class _Butterfly(NamedTuple):
    """A stack's butterfly tables, every array with a leading limb axis."""

    fwd_stages: tuple[_Stage, ...]
    inv_stages: tuple[_Stage, ...]
    twist_br: np.ndarray
    twist_br_shoup: np.ndarray
    untwist: np.ndarray
    untwist_shoup: np.ndarray
    q_col: np.ndarray
    two_q_col: np.ndarray


def _butterfly_tables(moduli: tuple[int, ...], psis: tuple[int, ...], degree: int) -> _Butterfly:
    """Stacked twiddle, twist and untwist tables for the lazy cascade.

    Stage ``s`` (half-length ``h = 2**s``) of the decimation-in-time cyclic
    NTT multiplies by ``omega**(N/(2h) * j) = psi**(N/h * j)``; the inverse
    uses the negated exponents.  The twist is applied after the bit-reversal
    gather, so it is stored bit-reversed; the untwist folds in ``N^{-1}``.
    """
    powers = _psi_powers(moduli, psis, degree)
    q_col = np.array(moduli, dtype=np.uint64)[:, None]

    def stages(sign: int) -> tuple[_Stage, ...]:
        out = []
        half = 1
        while half < degree:
            twiddles = _gather(powers, sign * (degree // half) * np.arange(half))
            shoup = _shoup_quotients(twiddles, q_col)
            out.append(
                _Stage(
                    twiddles=twiddles[:, None, :],
                    shoup=shoup[:, None, :],
                    twiddles_t=twiddles[:, :, None],
                    shoup_t=shoup[:, :, None],
                    identity=bool(np.all(twiddles == 1)),
                )
            )
            half *= 2
        return tuple(out)

    bitrev = bit_reverse_indices(degree)
    twist = powers[:, bitrev]
    n_inv = _n_inverse(degree, moduli)[:, None]
    untwist = _gather(powers, -np.arange(degree)) * n_inv % q_col
    return _Butterfly(
        fwd_stages=stages(1),
        inv_stages=stages(-1),
        twist_br=twist,
        twist_br_shoup=_shoup_quotients(twist, q_col),
        untwist=untwist,
        untwist_shoup=_shoup_quotients(untwist, q_col),
        q_col=q_col,
        two_q_col=q_col * np.uint64(2),
    )


def _lazy_butterflies(data, stages: tuple[_Stage, ...], q, two_q, scratch) -> None:
    """In-place lazy DIT butterfly cascade over the last axis of ``(L, N)``.

    Input values must be below ``2q`` (bit-reversed order); outputs are below
    ``4q``.  The stage tables carry a broadcast limb axis and ``q``/``two_q``
    are ``(L, 1, 1)`` columns.

    Every stage writes through two reusable half-size scratch buffers
    (allocated once per thread): the hot loop performs zero allocations,
    which matters because fresh buffers of NTT size fall through to mmap and
    pay a page-fault per stage otherwise.
    """
    n = data.shape[-1]
    if n < 2:
        return
    lead = data.shape[:-1]
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


def four_step_matrices(
    moduli: tuple[int, ...], psis: tuple[int, ...], degree: int, rows: int, cols: int
) -> tuple[np.ndarray, ...]:
    """The six four-step matrices of every limb, stacked ``(L, ., .)``.

    For the ``(rows, cols) = (n1, n2)`` tile ``a[j1 * n2 + j2]``:

    * ``M1[k1, j1] = omega**(n2*k1*j1) * psi**(n2*j1)`` -- column NTTs with
      the part of the negacyclic twist that depends only on ``j1`` folded in,
    * ``TW[j2, k1] = omega**(k1*j2) * psi**j2`` -- the element-wise twist
      applied after the transpose, and
    * ``M4[k2, j2] = omega**(n1*k2*j2)`` -- row NTTs,

    returned as ``(M1, TW, M4, M4_inv, TW_inv, M1_inv)``: the inverse
    matrices use ``omega^{-1}``/``psi^{-1}`` and fold ``N^{-1}`` into the
    rows of ``M1_inv``; ``TW_inv`` has ``TW``'s ``(n2, n1)`` layout.
    """
    powers = _psi_powers(moduli, psis, degree)
    k1 = np.arange(rows)[:, None]
    j2 = np.arange(cols)[:, None]
    column = 2 * cols * k1 * k1.T
    twist = 2 * j2 * k1.T + j2
    row = 2 * rows * j2 * j2.T
    q_col = np.array(moduli, dtype=np.uint64)[:, None, None]
    n_inv = _n_inverse(degree, moduli)[:, None, None]
    return (
        _gather(powers, column + cols * k1.T),
        _gather(powers, twist),
        _gather(powers, row),
        _gather(powers, -row),
        _gather(powers, -twist),
        _gather(powers, -(column + cols * k1)) * n_inv % q_col,
    )


def _split_shifts(degree: int, moduli: tuple[int, ...]) -> tuple[int, int] | None:
    """The column and row GEMM split shifts at the widest limb, or ``None``.

    The split bound depends on the modulus width and the ``(n1, n2)``
    factorisation (inner GEMM length); the second GEMM of either direction
    consumes lazily reduced operands in ``[0, 2q)``, hence the one-bit
    operand allowance.  Independently of the float64 bound, the twist stage
    and table construction do single-product mod arithmetic in uint64, so
    ``q < 2**32`` is required (``q**2`` must fit the word).
    """
    if not is_power_of_two(degree) or degree < 4:
        return None
    if any(not 1 < int(q) < (1 << 32) for q in moduli):
        return None
    rows, cols = four_step_split(degree)
    bits = max((int(q) - 1).bit_length() for q in moduli)
    shift1 = split_shift(bits + 1, bits, rows)
    shift4 = split_shift(bits + 1, bits, cols)
    if shift1 is None or shift4 is None:
        return None
    return shift1, shift4


def _cat_split(matrix: np.ndarray, shift: int) -> np.ndarray:
    """Float ``[hi; lo]`` halves of a constant matrix, concatenated row-wise.

    Both halves of the split GEMM then run as a single doubled-height BLAS
    call, halving kernel dispatches on the small tiles the four-step
    factorisation produces.
    """
    hi, lo = split_halves(matrix, shift)
    return np.ascontiguousarray(np.concatenate([hi, lo], axis=-2))


#: Marker for the two element-wise twist implementations (see _FourStepStack).
_TWIST_SHOUP = "shoup"
_TWIST_SPLIT = "split"


def _twist_pack(twist: np.ndarray, moduli, shift_tw: int, q_col) -> tuple:
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
        return (
            _TWIST_SHOUP,
            np.ascontiguousarray(twist.astype(np.uint32)),
            np.ascontiguousarray(_shoup_quotients(twist, q_col).astype(np.uint32)),
        )
    hi, lo = split_halves(twist, shift_tw)
    return (
        _TWIST_SPLIT,
        np.ascontiguousarray(hi.astype(np.float32)),
        np.ascontiguousarray(lo.astype(np.float32)),
        np.float64(1 << shift_tw),
    )


def _lazy_reduce_into(values: np.ndarray, q_f, inv_q, scratch: np.ndarray) -> None:
    """`gemm_mod.lazy_mod_reduce` with an explicit scratch (allocation-free).

    ``inv_q`` is the underestimating reciprocal (:func:`_under_inverse`), so
    non-negative inputs land in ``[0, 2q)``.
    """
    np.multiply(values, inv_q, out=scratch)
    np.floor(scratch, out=scratch)
    np.multiply(scratch, q_f, out=scratch)
    np.subtract(values, scratch, out=values)


def _under_inverse(q_f: np.ndarray) -> np.ndarray:
    """A reciprocal of ``q`` guaranteed to *underestimate* ``1/q``.

    With ``p = fl(v * inv)`` for non-negative integer ``v`` (``v < 2**52``),
    ``floor(p)`` is then ``floor(v/q)`` or one less, never more, so the lazy
    reductions land in ``[0, 2q)`` -- non-negative, which the integer twist
    and the single-subtract canonicalisation rely on.
    """
    exact = np.float64(1.0) / np.asarray(q_f, dtype=np.float64)
    return np.nextafter(np.nextafter(exact, 0.0), 0.0)


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


class _FourStepStack:
    """Limb-stacked four-step GEMM tables and the cascade that runs them.

    The length-``N`` negacyclic transform is factored over the ``(n1, n2)``
    tile (:func:`four_step_matrices`): a column matmul, the runtime transpose
    fused with the cached element-wise twist, and a row matmul, after which
    the ``(n2, n1)`` tile flattened row-major is the NTT in natural
    evaluation order (position ``k2 * n1 + k1`` holds evaluation
    ``k1 + n1 * k2`` -- the same algebra `repro.poly.ntt_fourstep` keeps with
    an explicit transpose step).  The inverse runs the mirrored cascade.

    Each limb's matrices are split into ``[hi; lo]`` float halves at the
    *widest* limb's shift and stacked into ``(L, 2n, n)`` tensors, so a whole
    ``(L, N)`` operand rides two *batched* doubled-height BLAS GEMMs.  A ring
    whose split is inexact refuses at construction (``ParameterError``).

    The cascade runs through the calling thread's scratch buffer
    (:func:`_scratch_pool`), so the hot loop performs **zero** element-wise
    allocations.  The reciprocal reductions use an *underestimating* inverse
    (``_under_inv``), so every intermediate stays non-negative in ``[0, 2q)``
    -- which is what makes the integer Shoup twist applicable and lets the
    final canonicalisation get away with a single conditional subtract.
    """

    #: Rings at or below this degree fold extra leading axes into ONE
    #: cascade: small tiles are dominated by per-call fixed costs, and the
    #: bigger GEMMs amortise them across the whole stack.  Larger rings
    #: iterate per slice instead -- their tiles already saturate BLAS, and
    #: folding would only grow the working set past cache for no gain.
    _FOLD_DEGREE_CAP = 2048

    def __init__(self, moduli: tuple[int, ...], psis: tuple[int, ...], degree: int):
        shifts = _split_shifts(degree, moduli)
        if shifts is None:
            raise ParameterError(
                "four-step split is not exact for this stack's modulus widths"
            )
        # The split shifts are the *widest* limb's: a stack may mix modulus
        # widths, and splitting every limb's matrices at the stack-wide shift
        # keeps each limb's GEMM halves inside the float64 budget (a narrow
        # limb's shift applied to a wide limb's matrices would not -- see
        # test_mixed_width_stack_bit_exact).
        shift1, shift4 = shifts
        bits = max((int(q) - 1).bit_length() for q in moduli)
        shift_tw = (bits + 1) // 2
        self.rows, self.cols = rows, cols = four_step_split(degree)
        self._q_u = np.array(moduli, dtype=np.uint64)[:, None, None]
        self._q_f = self._q_u.astype(np.float64)
        self._under_inv = _under_inverse(self._q_f)
        m1, tw_fwd, m4, m4_inv, tw_inv, m1_inv = four_step_matrices(
            moduli, psis, degree, rows, cols
        )

        def pack(first, twist, second, sh_first, sh_second, a, b):
            return (
                _cat_split(first, sh_first),
                np.float64(1 << sh_first),
                _twist_pack(twist, moduli, shift_tw, self._q_u),
                _cat_split(second, sh_second),
                np.float64(1 << sh_second),
                a,
                b,
            )

        self._fwd_pack = pack(m1, tw_fwd, m4, shift1, shift4, rows, cols)
        # The inverse's element-wise stage runs after its transpose, so its
        # twist is packed transposed to (n1, n2).
        self._inv_pack = pack(
            m4_inv, tw_inv.swapaxes(-1, -2), m1_inv, shift4, shift1, cols, rows
        )
        #: ``(forward, limb range)`` -> the packs' views over that range:
        #: every basis of a chain reads the same few ranges on every call.
        self._views: dict = {}

    def transform(
        self,
        matrix: np.ndarray,
        forward: bool,
        limbs: slice | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Transform a ``(..., L, N)`` operand in ONE batched cascade.

        On rings up to :data:`_FOLD_DEGREE_CAP`, extra leading axes are
        flattened into a single batch axis and fed through the cascade
        together -- the constant packs broadcast, so the whole stacked
        tensor shares one set of BLAS calls.  Beyond the cap the slices run
        sequentially through the same cascade (identical results either
        way; the kernels are exact per slice).

        ``limbs`` says the operand's limb axis holds just that slice of the
        stack's limbs; the cascade then runs on views of the stacked
        constants.  ``out`` (the operand's shape, possibly a limb-slice view
        of a larger tensor) receives the result.
        """
        matrix = np.asarray(matrix, dtype=np.uint64)
        if out is None:
            out = np.empty(matrix.shape, dtype=np.uint64)
        if matrix.ndim == 2 or self.rows * self.cols <= self._FOLD_DEGREE_CAP:
            self._cascade(matrix, forward, limbs, out)
            return out
        flat, flat_out = matrix.reshape(-1, *matrix.shape[-2:]), out.reshape(
            -1, *matrix.shape[-2:]
        )
        for index in range(flat.shape[0]):
            self._cascade(flat[index], forward, limbs, flat_out[index])
        return out

    def _cascade(
        self,
        data: np.ndarray,
        forward: bool,
        limbs: slice | None,
        out: np.ndarray,
    ) -> np.ndarray:
        key = (forward, None if limbs is None else (limbs.start, limbs.stop))
        views = self._views.get(key)
        if views is None:
            views = self._views[key] = _limb_view(
                (
                    *(self._fwd_pack if forward else self._inv_pack),
                    self._q_f,
                    self._q_u,
                    self._under_inv,
                ),
                limbs,
            )
        (
            first_cat, scale_first, twist, second_cat, scale_second, a, b,
            q_f, q_u, inv_q,
        ) = views
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

        # Second GEMM + canonicalisation into the caller's ``out``: its
        # coefficient axis splits into the ``(b, a)`` tile as a view.
        gemm_t = pool["gemm_t"]
        np.matmul(second_cat, twisted, out=gemm_t)
        hi2, lo2 = gemm_t[..., :b, :], gemm_t[..., b:, :]
        _lazy_reduce_into(hi2, q_f, inv_q, scratch_t)
        np.multiply(hi2, scale_second, out=hi2)
        np.add(hi2, lo2, out=hi2)
        _lazy_reduce_into(hi2, q_f, inv_q, scratch_t)
        result = out.reshape(hi2.shape)
        np.copyto(result, hi2, casting="unsafe")
        s_u = scratch_t.view(np.uint64)
        np.subtract(result, q_u, out=s_u)
        np.minimum(result, s_u, out=result)
        return out


# ------------------------------------------------------------------ dispatch
_DEFAULT_BACKEND = BACKEND_AUTO
#: Bumped whenever a dispatch input outside the per-call cache key changes
#: (quarantine changes, injected dispatch faults); stacks memoise their
#: resolved backend against it.
_DISPATCH_EPOCH = 0

#: A quarantine lasts :data:`QUARANTINE_COOLDOWN_S`; each quarantine doubles
#: the rung's next one, up to :data:`QUARANTINE_COOLDOWN_MAX_S`, and a
#: passing known-answer vet of the rung resets it.  So a re-vet that fails
#: when a quarantine lapses doubles the cooldown, and one that passes ends
#: the backoff.
QUARANTINE_COOLDOWN_S = 0.5
QUARANTINE_COOLDOWN_FACTOR = 2.0
QUARANTINE_COOLDOWN_MAX_S = 30.0
#: The quarantine clock: the one seam tests replace, to hold a quarantine in
#: force or run it out without sleeping.
_clock = time.monotonic

#: Backends quarantined by a failed known-answer vet, spot check or
#: :func:`verify_plan`, and still in force.  :func:`resolve_backend` walks
#: the degradation ladder ``four_step -> butterfly -> reference`` past them,
#: recording the fallback in `repro.diagnostics`.  The reference oracle is
#: the ground truth and cannot be quarantined.
_QUARANTINE: frozenset[str] = frozenset()
#: When each quarantine in force lapses (engine clock), and the earliest.
_LAPSE_AT: dict[str, float] = {}
_NEXT_LAPSE = math.inf
#: Each fast rung's next quarantine length.
_COOLDOWN = dict.fromkeys(BACKENDS_QUARANTINABLE, QUARANTINE_COOLDOWN_S)
#: Each fast rung's verdict generation, bumped when the rung is quarantined
#: and by :func:`reset_sentinels`: a chain runs a rung only on a verdict of
#: its current generation, so a lapsed quarantine is re-vetted per chain.
_GENERATION = dict.fromkeys(BACKENDS_QUARANTINABLE, 0)
#: Serialises every change of the quarantine state, the dispatch epoch and
#: the generations (vets and spot checks quarantine from worker and fan-out
#: threads).  Readers take no lock: the set is immutable and replaced whole,
#: before the epoch bump that announces it.
_GUARD_LOCK = threading.Lock()


def _update_quarantine(update) -> tuple[dict[str, float], frozenset]:
    """Replace the quarantine set by ``update(set)`` atomically.

    Returns ``({added rung: its cooldown}, removed rungs)``.  An added rung's
    verdicts go stale and its quarantine runs for its cooldown, which
    doubles for the next one; any change bumps the dispatch epoch so every
    memoised stack re-resolves on its next call.
    """
    global _DISPATCH_EPOCH, _QUARANTINE, _NEXT_LAPSE
    with _GUARD_LOCK:
        new = frozenset(update(_QUARANTINE))
        if new == _QUARANTINE:
            return {}, frozenset()
        added = {}
        for name in new - _QUARANTINE:
            added[name] = cooldown = _COOLDOWN[name]
            _COOLDOWN[name] = min(
                cooldown * QUARANTINE_COOLDOWN_FACTOR, QUARANTINE_COOLDOWN_MAX_S
            )
            _GENERATION[name] += 1
            _LAPSE_AT[name] = _clock() + cooldown
        removed = frozenset(_QUARANTINE - new)
        for name in removed:
            _LAPSE_AT.pop(name, None)
        _NEXT_LAPSE = min(_LAPSE_AT.values(), default=math.inf)
        _QUARANTINE = new
        _DISPATCH_EPOCH += 1
        return added, removed


def _lapse_quarantines() -> None:
    """Lift every quarantine whose cooldown has run out.

    Each lapse records one ``backend_quarantine_lifted`` event; the lifted
    rung's verdicts are already stale, so each chain re-vets it on its first
    dispatch before running it.
    """
    if _clock() < _NEXT_LAPSE:
        return

    def unexpired(current):
        now = _clock()
        return {name for name in current if _LAPSE_AT.get(name, math.inf) > now}

    for name in sorted(_update_quarantine(unexpired)[1]):
        diagnostics.record_event("backend_quarantine_lifted", backend=name)


def quarantine_backend(name: str, **details) -> None:
    """Quarantine a backend after an exactness failure (idempotent).

    The first of any number of concurrent calls records the
    ``backend_quarantined`` event, carrying the quarantine's ``cooldown_s``;
    a call while the quarantine is in force changes nothing.
    """
    if name not in BACKENDS_QUARANTINABLE:
        raise ParameterError(
            f"backend {name!r} cannot be quarantined (reference is the oracle)"
        )
    added, _ = _update_quarantine(lambda current: current | {name})
    if added:
        diagnostics.record_event(
            "backend_quarantined", backend=name, cooldown_s=added[name], **details
        )


def quarantined_backends() -> frozenset:
    """The backend names whose quarantine is still in force.

    With none in force this is one truthiness check: dispatch reads no clock
    and takes no lock.
    """
    if _QUARANTINE:
        _lapse_quarantines()
    return _QUARANTINE


def set_quarantine(names) -> None:
    """Make ``names`` the quarantine set, recording no event (drill restore)."""
    _update_quarantine(lambda current: names)


def clear_quarantine() -> None:
    """Lift all quarantines and reset their cooldowns (tests / operators)."""
    set_quarantine(())
    with _GUARD_LOCK:
        _COOLDOWN.update(dict.fromkeys(_COOLDOWN, QUARANTINE_COOLDOWN_S))


def bump_dispatch_epoch() -> None:
    """Make every stack re-resolve its backend (dispatch facts changed)."""
    global _DISPATCH_EPOCH
    with _GUARD_LOCK:
        _DISPATCH_EPOCH += 1


def reset_sentinels() -> None:
    """Forget every chain's verdicts so its next dispatch re-vets each rung.

    Used after reverting an injected table corruption: the cached "failed"
    verdicts would otherwise outlive the fault they diagnosed.
    """
    with _GUARD_LOCK:
        for name in _GENERATION:
            _GENERATION[name] += 1


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

    Dispatch uses this to guarantee an inexact backend is never selected
    (see :func:`_split_shifts` for the bounds).  Note this admits moduli
    *above* the butterfly's ``2**30`` lazy-reduction bound at small degrees
    -- the GEMM backend is the only planned path there.
    """
    return _split_shifts(degree, tuple(moduli)) is not None


def resolve_backend(
    degree: int, moduli: tuple[int, ...], *, requested: str | None = None
) -> str:
    """Pick the executable backend for a ring, never an inexact one.

    ``requested`` defaults to :func:`requested_backend`.  ``auto`` means
    ``four_step`` when its split is exact and it is not quarantined, else
    ``butterfly``; an explicit request is honoured only when exact for the
    ring.  Either way the choice then walks the degradation ladder
    ``four_step -> butterfly -> reference`` past inexact and quarantined
    rungs; a quarantine-driven demotion records a ``backend_fallback``
    diagnostics event, so the degradation ladder is observable, never silent.
    """
    choice = requested if requested is not None else requested_backend()
    quarantined = quarantined_backends()
    butterfly_exact = all(1 < int(q) < MAX_PLAN_MODULUS for q in moduli)
    four_step_exact = four_step_supported(degree, moduli)
    butterfly_ok = butterfly_exact and BACKEND_BUTTERFLY not in quarantined
    four_step_ok = four_step_exact and BACKEND_FOUR_STEP not in quarantined
    if choice == BACKEND_AUTO:
        choice = BACKEND_FOUR_STEP if four_step_ok else BACKEND_BUTTERFLY
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


# ------------------------------------------------------- exactness sentinels
def _sentinel_vector(degree: int, modulus: int) -> np.ndarray:
    """A deterministic full-range probe vector for the known-answer check."""
    mix = np.arange(degree, dtype=np.uint64) * np.uint64(0x9E3779B1)
    return (mix + np.uint64(0x7F4A7C15)) % np.uint64(modulus)


def _sentinel_passes(forward, inverse, probe, modulus: int, psi: int) -> bool:
    """Known-answer probe: forward row 0 vs the reference oracle + roundtrip.

    ``probe`` is ``(L, N)``; only the first row pays a reference transform
    (the oracle rebuilds its tables in Python), the roundtrip equality
    covers every other row bit-exactly.
    """
    try:
        got = forward(probe)
        if not np.array_equal(got[0], ntt_forward_negacyclic(probe[0], modulus, psi)):
            return False
        return bool(np.array_equal(inverse(got), probe))
    except (ArithmeticError, ValueError, FloatingPointError):
        return False


def _backend_passes(stack: "NttPlanStack", backend: str) -> bool:
    """Known-answer probe of ``backend`` over ``stack``'s rows of its chain."""
    return _sentinel_passes(
        lambda m: stack._run(m, True, None, backend),
        lambda m: stack._run(m, False, None, backend),
        *stack._sentinel_probe(),
    )


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


# ------------------------------------------------------------------ the plan
#: A split basis' four-step pass runs as one cascade over the chain rows
#: spanning it while its gap holds at most this many coefficients.  On a
#: 2-vCPU x86 host a cascade's fixed cost (~40 us at N = 64) outweighs eight
#: wasted rows at N = 64, while at N = 1024 one wasted row costs more.
_SPAN_GAP_COEFFS = 512


def _ranges(rows: list[int]) -> list[tuple[slice, slice]]:
    """``(limbs, chain rows)`` slice pairs, one per run of consecutive rows."""
    ranges: list[tuple[slice, slice]] = []
    for limb, row in enumerate(rows):
        if ranges and ranges[-1][1].stop == row:
            part, run = ranges[-1]
            ranges[-1] = (slice(part.start, limb + 1), slice(run.start, row + 1))
        else:
            ranges.append((slice(limb, limb + 1), slice(row, row + 1)))
    return ranges


class NttPlanStack:
    """Negacyclic NTT of every limb of an RNS basis, as one ``(L, N)`` pass.

    ``forward``/``inverse`` accept any ``(..., L, N)`` array of *reduced*
    residues (row ``l`` modulo ``moduli[l]``) and transform every row in one
    vectorized pass; outputs are in ``[0, q)`` and bit-exact with the
    `repro.poly.ntt_reference` functions for the limb's root ``psis[l]``,
    whichever backend executes the call.  A single-modulus ring is the
    ``L = 1`` stack.

    Tables belong to the ``chain`` stack.  A :meth:`view` of a chain owns
    none: its limbs are row ``ranges`` of the chain (``Q_l`` is rows
    ``[:l]`` of ``Q_L·P``, ``Q_l·P`` rows ``[:l]`` and ``[L:L+alpha]``), and
    every rung runs on views of the chain's tables.  Any other stack is its
    own one-chain set.  Table builds, the rung verdicts, the butterfly
    scratch, the views and the derived constants are per chain.

    ``backend`` pins the execution backend (a member of :data:`BACKENDS`);
    the default ``None`` defers to :func:`resolve_backend` on every call, so
    cached stacks honour environment/default overrides without rebuilding.
    Moduli must fit *some* planned backend: ``q < 2**30`` (butterfly
    lazy-reduction bound) or a ring whose four-step GEMM split is exact
    (which admits ``q`` up to ``2**32`` at small degrees); anything wider
    stays on the caller-side reference fallback.
    """

    def __init__(
        self,
        moduli: tuple[int, ...],
        degree: int,
        backend: str | None = None,
        *,
        chain: "NttPlanStack | None" = None,
    ):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ParameterError("plan stack needs at least one limb")
        if not is_power_of_two(degree):
            raise ParameterError("NTT length must be a power of two")
        if backend is not None and backend not in BACKENDS:
            raise ParameterError(f"unknown NTT backend {backend!r}")
        self.butterfly_ok = all(1 < q < MAX_PLAN_MODULUS for q in moduli)
        if not (self.butterfly_ok or four_step_supported(degree, moduli)):
            raise ParameterError(
                "NttPlanStack requires q < 2**30 (lazy-reduction bound) or an "
                "exact four-step GEMM split for (degree, moduli)"
            )
        self.moduli = moduli
        self.degree = degree
        self.backend = backend
        self._dispatch_cache: dict = {}
        self.chain = chain or self
        rows = [self.chain.moduli.index(q) for q in moduli]
        self.ranges = _ranges(rows)
        self._rows = rows
        #: ``limbs`` slice bounds -> that operand's layout (:meth:`_layout`).
        self._layouts: dict = {}
        if chain is not None:
            self.psis = tuple(chain.psis[row] for row in rows)
            return
        self.psis = tuple(primitive_nth_root_of_unity(2 * degree, q) for q in moduli)
        self.bitrev = bit_reverse_indices(degree)
        # Reusable butterfly scratch keeps that hot loop allocation-free;
        # stacks are cached process-wide, so buffers are per-thread to stay
        # reentrant (NumPy releases the GIL inside ufunc loops).
        self._thread_local = threading.local()
        # Each rung's tables, built on its first dispatch (`_built`).
        self._four_step: _FourStepStack | None = None
        self._butterfly: _Butterfly | None = None
        #: Per fast rung: ``(generation, passed)`` of its last vet.
        self._verdicts: dict[str, tuple[int, bool]] = {}
        self._views: dict[tuple[int, ...], tuple] = {}
        self._constants: dict = {}
        # Guards the table builds and the verdicts; re-entrant because a
        # vet builds the tables it probes.
        self._lock = threading.RLock()

    @property
    def limb_count(self) -> int:
        """Number of stacked limbs L."""
        return len(self.moduli)

    # ---------------------------------------------------------- chain owner
    def view(self, moduli: tuple[int, ...]) -> tuple["NttPlanStack", tuple]:
        """The stack the basis ``moduli`` runs on and its chain row ranges, memoised.

        A view of the chain's tables, but a chain whose four-step split is
        exact for only some limbs shares none: its bases keep their own rung.
        """
        entry = self._views.get(moduli)
        if entry is None:
            stack = self
            if moduli != self.moduli:
                exact = {four_step_supported(self.degree, (q,)) for q in self.moduli}
                shared = self if len(exact) == 1 else None
                stack = NttPlanStack(moduli, self.degree, chain=shared)
            rows = _ranges([self.moduli.index(q) for q in moduli])
            entry = (stack, tuple((part.start, part.stop) for _, part in rows))
            entry = self._views.setdefault(moduli, entry)
        return entry

    def constant(self, key, build):
        """``build()``, memoised on the chain under ``key`` (first build wins)."""
        value = self._constants.get(key)
        return value if value is not None else self._constants.setdefault(key, build())

    # ---------------------------------------------------------------- tables
    def _built(self, name: str, build):
        """The chain's rung tables in attribute ``name``, built once.

        Double-checked under the chain's lock: concurrent first callers wait
        for the one build instead of each building (and holding) a copy.
        """
        chain = self.chain
        tables = getattr(chain, name)
        if tables is None:
            with chain._lock:
                tables = getattr(chain, name)
                if tables is None:
                    tables = build(chain.moduli, chain.psis, chain.degree)
                    setattr(chain, name, tables)
        return tables

    def four_step_stack(self) -> _FourStepStack:
        """The chain's four-step GEMM tables (``ParameterError`` when inexact).

        Like :meth:`butterfly_tables` these cover every row of the chain;
        ``ranges`` maps this stack's limbs onto them.
        """
        return self._built("_four_step", _FourStepStack)

    def butterfly_tables(self) -> _Butterfly:
        """The chain's stacked butterfly stage, twist and untwist tables."""
        return self._built("_butterfly", _butterfly_tables)

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

    # -------------------------------------------------------------- dispatch
    def resolve_backend(self) -> str:
        """The backend a call dispatched right now would execute (memoised).

        The hot path would otherwise re-derive ``four_step_supported`` (a
        per-modulus loop) on every transform of rings that are memoised
        exactly because they are hit millions of times.  The cache key
        carries the requested backend (env override included) plus the
        dispatch epoch, which quarantine changes (and lapses) bump.  The
        rung still needs the chain's verdict before a call runs on it.
        """
        if _QUARANTINE:
            _lapse_quarantines()
        key = (self.backend or requested_backend(), _DISPATCH_EPOCH)
        cache = self._dispatch_cache
        choice = cache.get(key)
        if choice is None:
            if len(cache) > 16:  # stale epochs accumulate across quarantine flips
                cache.clear()
            choice = resolve_backend(self.degree, self.moduli, requested=key[0])
            cache[key] = choice
        return choice

    def _sentinel_probe(self) -> tuple[np.ndarray, int, int]:
        matrix = np.stack([_sentinel_vector(self.degree, q) for q in self.moduli])
        return matrix, self.moduli[0], self.psis[0]

    def _vetted(self, backend: str) -> bool:
        """Whether the chain's ``backend`` tables hold a passing verdict.

        A verdict counts only for the rung's current generation, which moves
        when the rung is quarantined (and on :func:`reset_sentinels`), so
        each chain re-vets a rung on its first dispatch after a lapse.  The
        vet (:meth:`_vet`) runs under the chain's lock, so a thread arriving
        mid-probe waits for the verdict.
        """
        chain = self.chain
        verdict = chain._verdicts.get(backend)
        if verdict is None or verdict[0] != _GENERATION[backend]:
            with chain._lock:
                if backend in _QUARANTINE:
                    return False  # a vet this thread waited for refused it
                generation = _GENERATION[backend]
                verdict = chain._verdicts.get(backend)
                if verdict is None or verdict[0] != generation:
                    verdict = (generation, chain._vet(backend))
                    chain._verdicts[backend] = verdict
        return verdict[1]

    def _vet(self, backend: str) -> bool:
        """Build this chain's ``backend`` tables and known-answer probe them.

        Tables that fail to build are refused (a ``backend_fallback``
        event).  The deterministic probe covers every row of the chain,
        special limbs included: limb 0 against the reference oracle plus an
        exact roundtrip of every limb.  A mismatch quarantines the rung
        process-wide and the caller heals down the degradation ladder; a
        pass resets the rung's cooldown.
        """
        where = {"degree": self.degree, "limbs": self.limb_count}
        try:
            if backend == BACKEND_FOUR_STEP:
                self.four_step_stack()
            else:
                self.butterfly_tables()
        except (ParameterError, ArithmeticError) as exc:
            diagnostics.record_event(
                "backend_fallback",
                backend=backend,
                fallback=BACKEND_BUTTERFLY
                if backend == BACKEND_FOUR_STEP and self.butterfly_ok
                else BACKEND_REFERENCE,
                reason=f"table build failed: {exc}",
                **where,
            )
            return False
        if _backend_passes(self, backend):
            with _GUARD_LOCK:
                _COOLDOWN[backend] = QUARANTINE_COOLDOWN_S
            return True
        quarantine_backend(backend, reason="known-answer vet mismatch", **where)
        return False

    def _executing_backend(self) -> str:
        """The resolved rung, demoted while the chain holds no verdict for it."""
        backend = self.resolve_backend()
        if backend == BACKEND_FOUR_STEP and not self._vetted(BACKEND_FOUR_STEP):
            backend = BACKEND_BUTTERFLY if self.butterfly_ok else BACKEND_REFERENCE
        if backend == BACKEND_BUTTERFLY and not self._vetted(BACKEND_BUTTERFLY):
            backend = BACKEND_REFERENCE
        return backend

    def warm(self) -> str:
        """Build and vet the chain's tables for the rung a call would run on now.

        After ``warm()`` the first transform builds and probes nothing.
        Returns that rung.
        """
        return self._executing_backend()

    # ------------------------------------------------------------- execution
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
        only those limbs of the stack, on views of the chain's tables: how
        the key switch transforms a digit's foreign limbs, or the special
        limbs alone, without a plan stack (and its table set) per subset.
        """
        moduli = self.moduli if limbs is None else self.moduli[limbs]
        psis = self.psis if limbs is None else self.psis[limbs]
        matrix = np.asarray(matrix, dtype=np.uint64)
        if matrix.ndim < 2 or matrix.shape[-2:] != (len(moduli), self.degree):
            raise ParameterError(
                f"residue matrix has shape {matrix.shape}, "
                f"expected (..., {len(moduli)}, {self.degree})"
            )
        direction = "forward" if forward else "inverse"
        _count_pass(direction, matrix.size // self.degree)
        backend = self._executing_backend()
        out = self._run(matrix, forward, limbs, backend)
        if backend != BACKEND_REFERENCE and _spot_check_due():
            _spot_check_row(
                direction,
                backend,
                matrix.reshape(-1, self.degree)[0],
                out.reshape(-1, self.degree)[0],
                self.degree,
                moduli[0],
                psis[0],
            )
        return out

    def _layout(self, limbs: slice | None) -> tuple[list, slice, list[int], int]:
        """Where an operand holding the ``limbs`` slice sits in the chain.

        Memoised per slice: the ``(operand limbs, chain rows)`` pairs, one
        per run of consecutive rows, plus the chain rows spanning them, each
        limb's index into that span and the number of gap rows.
        """
        key = None if limbs is None else (limbs.start, limbs.stop, limbs.step)
        layout = self._layouts.get(key)
        if layout is None:
            rows = self._rows if limbs is None else self._rows[limbs]
            low = min(rows, default=0)
            index = [row - low for row in rows]
            span = slice(low, low + max(index, default=-1) + 1)
            layout = (_ranges(rows), span, index, span.stop - low - len(rows))
            self._layouts[key] = layout
        return layout

    def _run(
        self, matrix: np.ndarray, forward: bool, limbs: slice | None, backend: str
    ) -> np.ndarray:
        """Run ``backend`` on the operand over its rows of the chain.

        A split basis runs one cascade per row range, each writing straight
        into its rows of one output.  On the four-step rung a narrow gap is
        cheaper to transform than a second cascade's fixed cost (see
        :data:`_SPAN_GAP_COEFFS`): one cascade then runs over the whole
        span, the gap zero-filled.
        """
        pieces, span, index, gap = self._layout(limbs)
        if len(pieces) == 1:
            return self.chain._run_rows(matrix, forward, span, backend)
        narrow = gap * self.degree <= _SPAN_GAP_COEFFS
        if pieces and backend == BACKEND_FOUR_STEP and narrow:
            spanned = np.zeros(
                (*matrix.shape[:-2], span.stop - span.start, self.degree), np.uint64
            )
            spanned[..., index, :] = matrix
            spanned = self.chain._run_rows(spanned, forward, span, backend)
            # ``take`` returns C-contiguous rows, which the next split GEMM
            # needs; ``spanned[..., index, :]`` would not.
            return np.take(spanned, index, axis=-2)
        flat = matrix.reshape(-1, *matrix.shape[-2:])
        out = np.empty(flat.shape, dtype=np.uint64)
        for part, rows in pieces:
            self.chain._run_rows(flat[:, part], forward, rows, backend, out[:, part])
        return out.reshape(matrix.shape)

    def _run_rows(
        self,
        matrix: np.ndarray,
        forward: bool,
        rows: slice,
        backend: str,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``backend`` over this chain's ``rows``, into ``out`` (or a new array)."""
        if out is None:
            out = np.empty(matrix.shape, dtype=np.uint64)
        if backend == BACKEND_FOUR_STEP:
            tables = self._four_step or self.four_step_stack()
            return tables.transform(matrix, forward, rows, out)
        if backend == BACKEND_BUTTERFLY:
            tables = _limb_view(self.butterfly_tables(), rows)
            if matrix.ndim == 2:
                self._butterfly_2d(matrix, forward, tables, out)
                return out
            flat, flat_out = matrix.reshape(-1, *matrix.shape[-2:]), out.reshape(
                -1, *matrix.shape[-2:]
            )
            for index in range(flat.shape[0]):
                self._butterfly_2d(flat[index], forward, tables, flat_out[index])
            return out
        oracle = ntt_forward_negacyclic if forward else ntt_inverse_negacyclic
        for i, (q, psi) in enumerate(zip(self.moduli[rows], self.psis[rows])):
            out[..., i, :] = oracle(matrix[..., i, :], q, psi)
        return out

    def _butterfly_2d(
        self, matrix: np.ndarray, forward: bool, tables: _Butterfly, out: np.ndarray
    ) -> None:
        """The cascade over one ``(rows, N)`` slice, in place in ``out``."""
        rows = matrix.shape[0]
        (scratch_a, scratch_b), scratch_full = self._buffers()
        scratch, scratch_full = (scratch_a[:rows], scratch_b[:rows]), scratch_full[:rows]
        q_col, two_q_col = tables.q_col, tables.two_q_col
        q_cube, two_q_cube = q_col[:, :, None], two_q_col[:, :, None]
        data = np.take(matrix, self.bitrev, axis=-1, out=out, mode="clip")
        if forward:
            _twist_in_place(data, tables.twist_br, tables.twist_br_shoup, q_col, scratch_full)
            _lazy_butterflies(data, tables.fwd_stages, q_cube, two_q_cube, scratch)
            _reduce_once(data, two_q_col, scratch_full)
        else:
            _lazy_butterflies(data, tables.inv_stages, q_cube, two_q_cube, scratch)
            _twist_in_place(data, tables.untwist, tables.untwist_shoup, q_col, scratch_full)
        _reduce_once(data, q_col, scratch_full)

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


# ---------------------------------------------------------------- plan cache
#: Chain-less stacks of bare moduli tuples (tests, paper benches, `PolyRing`).
_STACK_CACHE = register_cache(
    BoundedLruCache(name="ntt.plan_stacks", capacity=128)
)
#: Interned chains by ``(moduli, degree)``, alive while something holds them.
_CHAINS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_CHAINS_LOCK = threading.Lock()


def plan_stack_for(moduli: tuple[int, ...], degree: int) -> NttPlanStack:
    """Return the cached chain-less :class:`NttPlanStack` for bare ``moduli``.

    A single-modulus ring is ``plan_stack_for((q,), N)``.
    """
    key = (tuple(int(q) for q in moduli), degree)
    return _STACK_CACHE.get_or_create(key, lambda: NttPlanStack(*key))


def register_chain(moduli: tuple[int, ...], degree: int) -> NttPlanStack:
    """The interned table set of the chain ``moduli`` at ``degree``.

    Equal keys return the same live stack, so equal parameter sets share one
    table set; a key nobody holds any more is built afresh.
    """
    key = (tuple(moduli), degree)
    with _CHAINS_LOCK:
        chain = _CHAINS.get(key)
        if chain is None:
            chain = _CHAINS[key] = NttPlanStack(*key)
    return chain


def verify_plan(stack: NttPlanStack) -> bool:
    """Re-run the known-answer probe against the backend ``stack`` resolves now.

    A chain's verdict is taken once per rung generation, so table corruption
    *after* the vet (bit flips, a bad accelerator) would go unnoticed outside
    strict mode.  This is the operator/fault-drill entry point: it probes
    the currently resolved backend over ``stack``'s rows of its chain,
    quarantines it on a mismatch (recording the event, which also makes
    every chain re-vet it once the quarantine lapses), and returns whether
    the backend verified.  The reference oracle trivially verifies.
    """
    backend = stack.resolve_backend()
    if backend == BACKEND_REFERENCE:
        return True
    ok = _backend_passes(stack, backend)
    if not ok:
        quarantine_backend(
            backend,
            reason="known-answer verification failed",
            degree=stack.degree,
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
