"""Limb-stacked negacyclic NTT engine: one plan type, two bit-exact rungs.

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
key-switch digit still counts as a single transform pass.  Moduli the engine
cannot plan exactly (``q >= 2**32``, or ``N > 2**16``) are not planned, and
callers fall back to the big-int-safe reference path.

Tables are per limb, so there is one table set per modulus *chain*, owned
by the chain: CKKS parameters hold their ``Q_L·P`` chain, interned by its
exact key (:func:`register_chain`), and every basis they hand out names it
and runs on the chain's view of its moduli (:meth:`NttPlanStack.view`) --
one or two row ranges of its tables.  Constants derived from the chain are
memo entries on it (:meth:`NttPlanStack.constant`), so they die with it.  A
bare moduli tuple gets a chain-less stack from :func:`plan_stack_for`.

Rungs
-----
Every stack fronts two interchangeable, bit-exact rungs (the paper's thesis
is that the NTT *is* a block matmul, so it should run on the matrix engine):

* ``four_step`` -- the transform factored as ``N = n1 * n2``: column NTTs as
  a precomputed ``(n1, n1)`` twiddle-matrix matmul, a cached mod-``q`` twist,
  and row NTTs as an ``(n2, n2)`` matmul, both matmuls executed as exact
  split-float64 BLAS GEMMs (`repro.poly.gemm_mod`).  Each constant matrix is
  split into ``K`` chunks, in the spirit of the paper's BAT byte split: two
  where that is exact at the chain's widest limb, else three, which keeps
  every ``q < 2**32`` exact up to ``N = 2**16``.  Small rings
  (:data:`DENSE_MAX_DEGREE`) take the ``(N, 1)`` tile, a single dense GEMM; and
* ``reference`` -- the per-call table-building oracle
  (`repro.poly.ntt_reference`).

The four-step tables are built once per chain, stacked, on the first
dispatch (or by :meth:`NttPlanStack.warm`).  Every table entry is a power of
the limb's primitive ``2N``-th root ``psi`` (the root `PolyRing` uses),
gathered from one per-limb power table.

``NttPlanStack.backend`` pins a rung explicitly; the default (``None``)
defers to the ``REPRO_NTT_BACKEND`` pin (``four_step`` or ``reference``),
else ``four_step`` (:meth:`NttPlanStack.resolve_backend`).  A stack is only
built where four_step is exact, so dispatch needs no exactness check, and
while four_step is quarantined every call runs ``reference``.

Vet, rebuild, quarantine and recovery
-------------------------------------
A chain runs ``four_step`` only after a known-answer vet of its tables over
every row of the chain (:meth:`NttPlanStack._vetted`); the verdict holds for
the rung's current *generation*.  Tables are a deterministic function of the
chain, so a failed vet first rebuilds them and probes the rebuild (one
``backend_tables_rebuilt`` event): corrupted tables heal there.  Only a
rebuild that fails too -- which points at BLAS or dispatch, not memory --
quarantines the rung process-wide, which bumps its generation, and dispatch
falls back to ``reference``.  A strict-mode spot check or :func:`verify_plan`
quarantines directly.  The guard is one rung's scalar state: when the
quarantine in force lapses, the next quarantine's cooldown and the verdict
generation.  A quarantine lapses by itself after its cooldown
(:data:`QUARANTINE_COOLDOWN_S`, doubled by each quarantine up to
:data:`QUARANTINE_COOLDOWN_MAX_S`, reset by a passing vet); the lapse is
noticed by the next dispatch in whichever process runs the transform, and
each chain then re-vets (and if need be rebuilds) its tables before using
them again.  So corrupted tables heal at the first lapse, a persistent
kernel fault keeps the rung out with the cooldown doubling, and no table
set ever runs unvetted.  While no quarantine is in force, dispatch reads no
clock and takes no lock.

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

import numpy as np

from repro import diagnostics
from repro.diagnostics import BoundedLruCache, register_cache
from repro.errors import BackendExactnessError, ParameterError
from repro.numtheory.bitrev import is_power_of_two
from repro.numtheory.modular import mod_inv, primitive_nth_root_of_unity
from repro.poly.gemm_mod import split_halves, split_shift
from repro.poly.gemm_mod import is_strict as _gemm_is_strict
from repro.poly.ntt_reference import ntt_forward_negacyclic, ntt_inverse_negacyclic

#: Every planned modulus is below ``2**32``: the twist and the table builds
#: do single-product mod arithmetic in uint64, so ``q**2`` must fit the word.
MAX_PLAN_MODULUS = 1 << 32
#: Below this bound the four-step twist runs as an integer lazy Shoup
#: multiply (``2q * 2**32`` fits uint64); wider moduli split it in float.
_SHOUP_TWIST_BOUND = 1 << 30
#: The most chunks a four-step constant matrix is split into: three keep
#: every ``q < MAX_PLAN_MODULUS`` exact up to ``N = 2**16``.
_MAX_CHUNKS = 3

_SHIFT32 = np.uint64(32)

#: Backend identifiers (``NttPlanStack.backend`` / ``REPRO_NTT_BACKEND`` values).
BACKEND_FOUR_STEP = "four_step"
BACKEND_REFERENCE = "reference"
BACKENDS = (BACKEND_FOUR_STEP, BACKEND_REFERENCE)

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

    Every four-step table is a gather from this one: its
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


def _limb_view(constant, limbs: slice | None):
    """``constant`` restricted to the ``limbs`` slice of its leading limb axis.

    Walks tuples and slices every array: a basic slice of a limb-stacked
    table is a view, so a limb subset runs on the stack's own tables and no
    table set is built per subset.  Scalars and markers pass through.
    """
    if limbs is None:
        return constant
    if isinstance(constant, np.ndarray):
        return constant[limbs]
    if isinstance(constant, tuple):
        return tuple(_limb_view(item, limbs) for item in constant)
    return constant


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


#: Rings up to this degree run the dense ``(N, 1)`` tile: the whole
#: negacyclic NTT is one ``(N, N)`` split GEMM.  A small ring's cascade
#: costs its fixed per-pass NumPy overhead, not its GEMM flops, and the
#: dense tile runs ~15 passes where the near-square tile runs ~33.  Measured
#: on a 2-vCPU x86 host (6 limbs of 28 bits, forward + inverse of one
#: ``(L, N)`` operand): dense takes 0.45-0.6x the four-step time at N = 32
#: and 0.7-0.8x at 64, but 1.4-1.75x at 128 and 3.4-4x at 256, where the
#: ``N**2`` GEMM outgrows the passes it saves.
DENSE_MAX_DEGREE = 64


def _tile(degree: int) -> tuple[int, int]:
    """The ``(n1, n2)`` tile the GEMM rung runs at ``degree``.

    ``(N, 1)`` up to :data:`DENSE_MAX_DEGREE`, else :func:`four_step_split`.
    """
    if degree <= DENSE_MAX_DEGREE:
        return degree, 1
    return four_step_split(degree)


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


def _split_shifts(
    degree: int, moduli: tuple[int, ...]
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """``(shift, chunks)`` of the column and of the row GEMM, or ``None``.

    Each GEMM takes the fewest chunks (two, else three) whose split is exact
    at the widest limb: the bound depends on the modulus width and the
    ``(n1, n2)`` tile (:func:`_tile`; inner GEMM length), and the second GEMM of
    either direction consumes lazily reduced operands in ``[0, 2q)``, hence
    the one-bit operand allowance.  ``None`` where no split is exact:
    ``q >= MAX_PLAN_MODULUS`` or ``N > 2**16``.
    """
    if not is_power_of_two(degree) or degree < 4:
        return None
    if any(not 1 < int(q) < MAX_PLAN_MODULUS for q in moduli):
        return None
    bits = max((int(q) - 1).bit_length() for q in moduli)
    splits = []
    for inner in _tile(degree):
        for chunks in range(2, _MAX_CHUNKS + 1):
            shift = split_shift(bits + 1, bits, inner, chunks)
            if shift is not None:
                splits.append((shift, chunks))
                break
        else:
            return None
    return tuple(splits)


def _cat_split(matrix: np.ndarray, shift: int, chunks: int) -> np.ndarray:
    """Float chunks of a constant matrix, concatenated row-wise (high first).

    Every chunk of the split GEMM then runs in a single ``chunks``-times-high
    BLAS call, cutting kernel dispatches on the small tiles the four-step
    factorisation produces.
    """
    return np.ascontiguousarray(
        np.concatenate(split_halves(matrix, shift, chunks), axis=-2)
    )


#: Marker for the two element-wise twist implementations (see _FourStepStack).
_TWIST_SHOUP = "shoup"
_TWIST_SPLIT = "split"


def _twist_pack(twist: np.ndarray, moduli, shift_tw: int, q_col) -> tuple:
    """Compile an element-wise twist table into its fastest exact form.

    Lazy-reduced inputs are in ``[0, 2q)``; when every modulus is below
    :data:`_SHOUP_TWIST_BOUND` the twist runs as an integer lazy Shoup
    multiply (5 passes, no reduction needed after).  Wider moduli use the
    float hi/lo split (f32 tables -- entries < 2**17 are f32-exact).
    """
    if all(int(q) < _SHOUP_TWIST_BOUND for q in moduli):
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
#: ``(lead, a, b, first, second)`` shape (dropped whenever the buffer grows).
_SCRATCH = threading.local()


def _scratch_pool(lead: tuple[int, ...], a: int, b: int, first: int, second: int) -> dict:
    """This thread's buffers for a ``(*lead, a, b)`` tile, as views.

    ``first``/``second`` are the chunk counts of the cascade's two GEMMs,
    whose outputs share one region of the buffer.
    """
    size = math.prod(lead) * a * b
    end = (1 + max(first, second)) * size
    buffer = getattr(_SCRATCH, "buffer", None)
    if buffer is None or buffer.size < end + 2 * size:
        _SCRATCH.buffer = buffer = np.empty(end + 2 * size)
        _SCRATCH.views = {}
    key = (lead, a, b, first, second)
    pool = _SCRATCH.views.get(key)
    if pool is None:
        tile = buffer[:size].reshape(*lead, a, b)
        pool = {
            "tile": tile,
            "tile_t": tile.reshape(*lead, b, a),
            "gemm": buffer[size : (1 + first) * size].reshape(*lead, first * a, b),
            "gemm_t": buffer[size : (1 + second) * size].reshape(*lead, second * b, a),
            "scratch_t": buffer[end : end + size].reshape(*lead, b, a),
            "twist": buffer[end + size : end + 2 * size].reshape(*lead, b, a),
        }
        _SCRATCH.views[key] = pool
    return pool


def _recombine(gemm: np.ndarray, rows: int, scale, q_f, inv_q, scratch) -> np.ndarray:
    """Horner-recombine a split GEMM's row blocks into its first, lazily reduced.

    ``gemm`` stacks one ``rows``-high block per chunk, most significant
    first: reduce, scale by ``2**shift``, add the next block, and reduce
    once more at the end, so values land in ``[0, 2q)``.
    """
    acc = gemm[..., :rows, :]
    for start in range(rows, gemm.shape[-2], rows):
        _lazy_reduce_into(acc, q_f, inv_q, scratch)
        np.multiply(acc, scale, out=acc)
        np.add(acc, gemm[..., start : start + rows, :], out=acc)
    _lazy_reduce_into(acc, q_f, inv_q, scratch)
    return acc


def _dense_gemm(data, cat, scale, q_f, q_u, inv_q, out) -> np.ndarray:
    """The dense tile's whole transform: one split ``(N, N)`` GEMM per limb.

    ``data`` is ``(..., L, N)``; its leading axes become the GEMM's columns,
    so a stacked operand is ``L`` GEMMs ``(K N, N) @ (N, B)``, not ``B L``
    matrix-vector products.  Recombined, canonicalised into ``out``.
    """
    *lead, limbs, degree = data.shape
    columns = data.size // (limbs * degree)
    pool = _scratch_pool((limbs,), degree, columns, cat.shape[-2] // degree, 1)
    tile, scratch = pool["tile"], pool["scratch_t"].reshape(pool["tile"].shape)
    # (..., L, N) -> (L, N, ...): the limb and coefficient axes lead.
    axes = (len(lead), len(lead) + 1, *range(len(lead)))
    np.copyto(
        tile.reshape(limbs, degree, *lead), data.transpose(axes), casting="unsafe"
    )
    gemm = pool["gemm"]
    np.matmul(cat, tile, out=gemm)
    acc = _recombine(gemm, degree, scale, q_f, inv_q, scratch)
    result = out.transpose(axes)
    np.copyto(result, acc.reshape(result.shape), casting="unsafe")
    q_u = q_u.reshape(limbs, 1, *(1,) * len(lead))
    s_u = scratch.view(np.uint64).reshape(result.shape)
    np.subtract(result, q_u, out=s_u)
    np.minimum(result, s_u, out=result)
    return out


class _FourStepStack:
    """Limb-stacked four-step GEMM tables and the cascade that runs them.

    The length-``N`` negacyclic transform is factored over the ``(n1, n2)``
    tile (:func:`four_step_matrices`): a column matmul, the runtime transpose
    fused with the cached element-wise twist, and a row matmul, after which
    the ``(n2, n1)`` tile flattened row-major is the NTT in natural
    evaluation order (position ``k2 * n1 + k1`` holds evaluation
    ``k1 + n1 * k2`` -- the same algebra
    `repro.core.ntt3step.FourStepNttPlan` keeps with an explicit transpose
    step).  The inverse runs the mirrored cascade.

    Small rings (``N <=`` :data:`DENSE_MAX_DEGREE`) run the dense ``(N, 1)``
    tile (:func:`_tile`): ``M1`` is then the whole negacyclic NTT matrix,
    the twist is 1 and ``M4 = [1]`` (``M1_inv`` carries ``N^{-1}``), so the
    cascade skips the identity stages and a transform is one split GEMM,
    one recombine and one canonicalisation (:func:`_dense_gemm`), with any
    stacked operands riding as the GEMM's columns.  On such rings a call's
    fixed per-pass cost, not the GEMM, is what a transform costs.

    Each limb's matrices are split into ``K`` float chunks at the *widest*
    limb's split (:func:`_split_shifts`) and stacked into ``(L, K n, n)``
    tensors, so a whole ``(L, N)`` operand rides two *batched* ``K``-times
    high BLAS GEMMs (one on the dense tile).  A ring with no exact split
    refuses at construction (``ParameterError``).

    The cascade runs through the calling thread's scratch buffer
    (:func:`_scratch_pool`), so the hot loop performs **zero** element-wise
    allocations.  The reciprocal reductions use an *underestimating* inverse
    (``_under_inv``), so every intermediate stays non-negative in ``[0, 2q)``
    -- which is what makes the integer Shoup twist applicable and lets the
    final canonicalisation get away with a single conditional subtract.
    """

    #: Rings at or below this degree fold extra leading axes into ONE
    #: cascade: small tiles are dominated by per-call fixed costs, and the
    #: bigger GEMMs amortise them across the whole stack (on the dense tile
    #: the folded axes become the GEMM's columns).  Larger rings iterate per
    #: slice instead -- their tiles already saturate BLAS, and folding would
    #: only grow the working set past cache for no gain -- so a stacked call
    #: there costs what its slices would.
    _FOLD_DEGREE_CAP = 2048

    def __init__(self, moduli: tuple[int, ...], psis: tuple[int, ...], degree: int):
        shifts = _split_shifts(degree, moduli)
        if shifts is None:
            raise ParameterError(
                "four-step split is not exact for this stack's modulus widths"
            )
        # The splits are the *widest* limb's: a stack may mix modulus
        # widths, and splitting every limb's matrices at the stack-wide split
        # keeps each limb's GEMM chunks inside the float64 budget (a narrow
        # limb's split applied to a wide limb's matrices would not -- see
        # test_mixed_width_stack_bit_exact).
        split1, split4 = shifts
        bits = max((int(q) - 1).bit_length() for q in moduli)
        shift_tw = (bits + 1) // 2
        self.rows, self.cols = rows, cols = _tile(degree)
        self._q_u = np.array(moduli, dtype=np.uint64)[:, None, None]
        self._q_f = self._q_u.astype(np.float64)
        self._under_inv = _under_inverse(self._q_f)
        m1, tw_fwd, m4, m4_inv, tw_inv, m1_inv = four_step_matrices(
            moduli, psis, degree, rows, cols
        )

        def pack(first, twist, second, split_first, split_second, a, b):
            return (
                _cat_split(first, *split_first),
                np.float64(1 << split_first[0]),
                _twist_pack(twist, moduli, shift_tw, self._q_u),
                _cat_split(second, *split_second),
                np.float64(1 << split_second[0]),
                a,
                b,
            )

        self._fwd_pack = pack(m1, tw_fwd, m4, split1, split4, rows, cols)
        # The inverse's element-wise stage runs after its transpose, so its
        # twist is packed transposed to (n1, n2).
        self._inv_pack = pack(
            m4_inv, tw_inv.swapaxes(-1, -2), m1_inv, split4, split1, cols, rows
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
        if b == 1:  # dense forward: the twist and the second GEMM are 1
            return _dense_gemm(data, first_cat, scale_first, q_f, q_u, inv_q, out)
        if a == 1:  # dense inverse: the first GEMM and the twist are 1
            return _dense_gemm(data, second_cat, scale_second, q_f, q_u, inv_q, out)
        pool = _scratch_pool(
            data.shape[:-1], a, b, first_cat.shape[-2] // a, second_cat.shape[-2] // b
        )
        tile, gemm = pool["tile"], pool["gemm"]
        scratch = pool["scratch_t"].reshape(tile.shape)

        # First GEMM: every split chunk in one BLAS call.
        np.copyto(tile, data.reshape(tile.shape), casting="unsafe")
        np.matmul(first_cat, tile, out=gemm)
        hi = _recombine(gemm, a, scale_first, q_f, inv_q, scratch)

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
        hi2 = _recombine(gemm_t, b, scale_second, q_f, inv_q, scratch_t)
        result = out.reshape(hi2.shape)
        np.copyto(result, hi2, casting="unsafe")
        s_u = scratch_t.view(np.uint64)
        np.subtract(result, q_u, out=s_u)
        np.minimum(result, s_u, out=result)
        return out


# ------------------------------------------------------------------ dispatch
#: A quarantine lasts :data:`QUARANTINE_COOLDOWN_S`; each quarantine doubles
#: the next one, up to :data:`QUARANTINE_COOLDOWN_MAX_S`, and a passing
#: known-answer vet resets it.  So a re-vet that fails even on rebuilt
#: tables when a quarantine lapses doubles the cooldown, and one that passes
#: (at once or after its rebuild) ends the backoff.
QUARANTINE_COOLDOWN_S = 0.5
QUARANTINE_COOLDOWN_FACTOR = 2.0
QUARANTINE_COOLDOWN_MAX_S = 30.0
#: The quarantine clock: the one seam tests replace, to hold a quarantine in
#: force or run it out without sleeping.
_clock = time.monotonic

#: The four-step rung's guard.  A failed known-answer vet (after its
#: rebuild), spot check or :func:`verify_plan` quarantines the rung and
#: dispatch falls back to ``reference``, the oracle, which is never
#: quarantined.  ``_QUARANTINED_UNTIL`` is when the quarantine in force
#: lapses (engine clock), ``None`` while none is; ``_COOLDOWN`` is the next
#: quarantine's length; ``_GENERATION`` is the verdict generation, bumped by
#: each quarantine and by :func:`reset_sentinels` -- a chain runs four_step
#: only on a verdict of the current generation, so a lapsed quarantine is
#: re-vetted per chain.
_QUARANTINED_UNTIL: float | None = None
_COOLDOWN = QUARANTINE_COOLDOWN_S
_GENERATION = 0
#: Serialises every change of the guard (vets and spot checks quarantine
#: from worker and fan-out threads).  Dispatch reads it without the lock.
_GUARD_LOCK = threading.Lock()


def _open_quarantine() -> float:
    """Quarantine four_step now (caller holds the lock); returns its length."""
    global _QUARANTINED_UNTIL, _COOLDOWN, _GENERATION
    cooldown = _COOLDOWN
    _COOLDOWN = min(cooldown * QUARANTINE_COOLDOWN_FACTOR, QUARANTINE_COOLDOWN_MAX_S)
    _GENERATION += 1
    _QUARANTINED_UNTIL = _clock() + cooldown
    return cooldown


def _quarantined() -> bool:
    """Whether four_step is quarantined, lifting a quarantine that ran out.

    The lift records one ``backend_quarantine_lifted`` event; the rung's
    verdicts are already stale, so each chain re-vets it on its first
    dispatch before running it.  With none in force this is one ``None``
    check: no clock read, no lock.
    """
    global _QUARANTINED_UNTIL
    until = _QUARANTINED_UNTIL
    if until is None:
        return False
    if _clock() < until:
        return True
    with _GUARD_LOCK:
        lifted = _QUARANTINED_UNTIL is not None and _clock() >= _QUARANTINED_UNTIL
        if lifted:
            _QUARANTINED_UNTIL = None
    if lifted:
        diagnostics.record_event("backend_quarantine_lifted", backend=BACKEND_FOUR_STEP)
    return _QUARANTINED_UNTIL is not None


def quarantine_backend(name: str, **details) -> None:
    """Quarantine a backend after an exactness failure (idempotent).

    The first of any number of concurrent calls records the
    ``backend_quarantined`` event, carrying the quarantine's ``cooldown_s``;
    a call while the quarantine is in force changes nothing.
    """
    if name != BACKEND_FOUR_STEP:
        raise ParameterError(
            f"backend {name!r} cannot be quarantined (reference is the oracle)"
        )
    with _GUARD_LOCK:
        if _QUARANTINED_UNTIL is not None:
            return
        cooldown = _open_quarantine()
    diagnostics.record_event(
        "backend_quarantined", backend=name, cooldown_s=cooldown, **details
    )


def quarantined_backends() -> frozenset:
    """The backend names whose quarantine is still in force."""
    return frozenset({BACKEND_FOUR_STEP}) if _quarantined() else frozenset()


def set_quarantine(names) -> None:
    """Make ``names`` the quarantine set, recording no event (drill restore)."""
    global _QUARANTINED_UNTIL
    with _GUARD_LOCK:
        if BACKEND_FOUR_STEP not in names:
            _QUARANTINED_UNTIL = None
        elif _QUARANTINED_UNTIL is None:
            _open_quarantine()


def clear_quarantine() -> None:
    """Lift the quarantine and reset its cooldown (tests / operators)."""
    global _QUARANTINED_UNTIL, _COOLDOWN
    with _GUARD_LOCK:
        _QUARANTINED_UNTIL = None
        _COOLDOWN = QUARANTINE_COOLDOWN_S


def reset_sentinels() -> None:
    """Forget every chain's verdicts so its next dispatch re-vets four_step.

    Used after reverting an injected table corruption: the cached "failed"
    verdicts would otherwise outlive the fault they diagnosed.
    """
    global _GENERATION
    with _GUARD_LOCK:
        _GENERATION += 1


def requested_backend() -> str:
    """The ``REPRO_NTT_BACKEND`` pin, else ``four_step``."""
    value = os.environ.get(_BACKEND_ENV, "").strip().lower()
    if value and value not in BACKENDS:
        raise ParameterError(f"{_BACKEND_ENV}={value!r} is not one of {BACKENDS}")
    return value or BACKEND_FOUR_STEP


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


def _four_step_passes(stack: "NttPlanStack") -> bool:
    """Known-answer probe of ``four_step`` over ``stack``'s rows of its chain."""
    return _sentinel_passes(
        lambda m: stack._run(m, True, None, BACKEND_FOUR_STEP),
        lambda m: stack._run(m, False, None, BACKEND_FOUR_STEP),
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

    A mismatch quarantines the offending rung (subsequent calls fall back to
    ``reference``) and raises :class:`BackendExactnessError` so the
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
        "subsequent calls fall back to the reference rung"
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
    whichever rung executes the call.  A single-modulus ring is the
    ``L = 1`` stack.

    Tables belong to the ``chain`` stack.  A :meth:`view` of a chain owns
    none: its limbs are row ``ranges`` of the chain (``Q_l`` is rows
    ``[:l]`` of ``Q_L·P``, ``Q_l·P`` rows ``[:l]`` and ``[L:L+alpha]``), and
    the four-step rung runs on views of the chain's tables.  Any other stack
    is its own one-chain set.  The table build, the verdict, the views and
    the derived constants are per chain.  References run one way, so
    refcounting frees a dropped chain: a view holds its chain, a chain holds
    its views weakly (whoever hands out the basis holds its view, as
    `repro.ckks.params.CkksParameters` does), and a chain holds no
    reference to itself.

    ``backend`` pins the execution rung (a member of :data:`BACKENDS`); the
    default ``None`` defers to the ``REPRO_NTT_BACKEND`` pin on every call
    (:meth:`resolve_backend`), so cached stacks honour it without rebuilding.
    Moduli must be ones the engine plans exactly (:func:`supports`); anything
    else stays on the caller-side reference fallback.
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
        if not supports(moduli, degree):
            raise ParameterError(
                "NttPlanStack requires 1 < q < 2**32 and 4 <= N <= 2**16, "
                "where the four-step GEMM split is exact"
            )
        self.moduli = moduli
        self.degree = degree
        self.backend = backend
        self._chain = chain
        rows = [self.chain.moduli.index(q) for q in moduli]
        self.ranges = _ranges(rows)
        self._rows = rows
        #: ``limbs`` slice bounds -> that operand's layout (:meth:`_layout`).
        self._layouts: dict = {}
        if chain is not None:
            self.psis = tuple(chain.psis[row] for row in rows)
            return
        self.psis = tuple(primitive_nth_root_of_unity(2 * degree, q) for q in moduli)
        # The four-step tables, built on the first dispatch (`four_step_stack`).
        self._four_step: _FourStepStack | None = None
        #: ``(generation, passed)`` of the last four-step vet.
        self._verdict: tuple[int, bool] | None = None
        self._views: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        #: ``moduli`` -> the ``(start, stop)`` runs of chain rows they occupy.
        self._chain_rows: dict[tuple[int, ...], tuple] = {}
        self._constants: dict = {}
        # Guards the table build and the verdict; re-entrant because a vet
        # builds the tables it probes.
        self._lock = threading.RLock()

    @property
    def limb_count(self) -> int:
        """Number of stacked limbs L."""
        return len(self.moduli)

    @property
    def chain(self) -> "NttPlanStack":
        """The stack owning the tables: the chain of a view, else ``self``."""
        return self._chain or self

    # ---------------------------------------------------------- chain owner
    def view(self, moduli: tuple[int, ...]) -> "NttPlanStack":
        """The stack the basis ``moduli`` runs on: ``self`` or a view of it.

        Memoised weakly: a view lives while someone holds it.
        """
        if moduli == self.moduli:
            return self
        stack = self._views.get(moduli)
        if stack is None:
            stack = self._views.setdefault(
                moduli, NttPlanStack(moduli, self.degree, chain=self)
            )
        return stack

    def chain_rows(self, moduli: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        """The ``(start, stop)`` runs of this chain's rows ``moduli`` occupy."""
        rows = self._chain_rows.get(moduli)
        if rows is None:
            runs = _ranges([self.moduli.index(q) for q in moduli])
            rows = self._chain_rows.setdefault(
                moduli, tuple((run.start, run.stop) for _, run in runs)
            )
        return rows

    def constant(self, key, build):
        """``build()``, memoised on the chain under ``key`` (first build wins)."""
        value = self._constants.get(key)
        return value if value is not None else self._constants.setdefault(key, build())

    # ---------------------------------------------------------------- tables
    def four_step_stack(self) -> _FourStepStack:
        """The chain's four-step GEMM tables, built once.

        They cover every row of the chain; ``ranges`` maps this stack's
        limbs onto them.  Double-checked under the chain's lock: concurrent
        first callers wait for the one build instead of each building (and
        holding) a copy.
        """
        chain = self.chain
        tables = chain._four_step
        if tables is None:
            with chain._lock:
                tables = chain._four_step
                if tables is None:
                    tables = chain._four_step = _FourStepStack(
                        chain.moduli, chain.psis, chain.degree
                    )
        return tables

    # -------------------------------------------------------------- dispatch
    def resolve_backend(self) -> str:
        """The rung a call dispatched right now would execute.

        The stack's ``backend`` pin, else :func:`requested_backend`, with
        ``four_step`` demoted to ``reference`` while it is quarantined.  No
        exactness check is needed: a stack is only built where four_step is
        exact (:func:`supports`).  The rung still needs the chain's verdict
        before a call runs on it.
        """
        quarantined = _quarantined()
        choice = self.backend or requested_backend()
        return BACKEND_REFERENCE if quarantined else choice

    def _sentinel_probe(self) -> tuple[np.ndarray, int, int]:
        matrix = np.stack([_sentinel_vector(self.degree, q) for q in self.moduli])
        return matrix, self.moduli[0], self.psis[0]

    def _vetted(self) -> bool:
        """Whether the chain's four-step tables hold a passing verdict.

        A verdict counts only for the rung's current generation, which moves
        when the rung is quarantined (and on :func:`reset_sentinels`), so
        each chain re-vets on its first dispatch after a lapse.  The vet
        (:meth:`_vet`) runs under the chain's lock, so a thread arriving
        mid-probe waits for the verdict.
        """
        chain = self.chain
        verdict = chain._verdict
        if verdict is None or verdict[0] != _GENERATION:
            with chain._lock:
                if _QUARANTINED_UNTIL is not None:
                    return False  # a vet this thread waited for refused it
                generation = _GENERATION
                verdict = chain._verdict
                if verdict is None or verdict[0] != generation:
                    verdict = chain._verdict = (generation, chain._vet())
        return verdict[1]

    def _vet(self) -> bool:
        """Known-answer probe this chain's four-step tables, rebuilding once.

        The deterministic probe covers every row of the chain, special limbs
        included: limb 0 against the reference oracle plus an exact roundtrip
        of every limb.  On a mismatch the tables are dropped, rebuilt from
        the chain's roots (a ``backend_tables_rebuilt`` event) and probed
        again; only a rebuild that fails too quarantines the rung
        process-wide, and the caller falls back to ``reference``.  A pass
        resets the rung's cooldown.
        """
        global _COOLDOWN
        where = {"degree": self.degree, "limbs": self.limb_count}
        passed = _four_step_passes(self)
        if not passed:
            self._four_step = None  # the probe's dispatch rebuilds them
            diagnostics.record_event(
                "backend_tables_rebuilt", backend=BACKEND_FOUR_STEP, **where
            )
            passed = _four_step_passes(self)
        if passed:
            with _GUARD_LOCK:
                _COOLDOWN = QUARANTINE_COOLDOWN_S
            return True
        quarantine_backend(
            BACKEND_FOUR_STEP, reason="known-answer vet mismatch", **where
        )
        return False

    def _executing_backend(self) -> str:
        """The resolved rung, demoted while the chain holds no verdict for it."""
        backend = self.resolve_backend()
        if backend == BACKEND_FOUR_STEP and not self._vetted():
            return BACKEND_REFERENCE
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

        Stacked operands (leading batch axes, e.g. the fused key switch's
        ``(dnum, L', N)`` digit tensor) ride the four-step cascade as batched
        BLAS GEMMs.  It is a single batched pass from the caller's point of
        view; the counters additionally book one limb pass per length-``N``
        row transformed.

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
        oracle = ntt_forward_negacyclic if forward else ntt_inverse_negacyclic
        for i, (q, psi) in enumerate(zip(self.moduli[rows], self.psis[rows])):
            out[..., i, :] = oracle(matrix[..., i, :], q, psi)
        return out

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
    """Re-run the known-answer probe against the rung ``stack`` resolves now.

    A chain's verdict is taken once per rung generation, so table corruption
    *after* the vet (bit flips, a bad accelerator) would go unnoticed outside
    strict mode.  This is the operator/fault-drill entry point: it probes
    the currently resolved rung over ``stack``'s rows of its chain,
    quarantines it on a mismatch (recording the event; once the quarantine
    lapses every chain re-vets, and a chain whose tables still fail rebuilds
    them), and returns whether the rung verified.  The reference oracle
    trivially verifies.
    """
    backend = stack.resolve_backend()
    if backend == BACKEND_REFERENCE:
        return True
    ok = _four_step_passes(stack)
    if not ok:
        quarantine_backend(
            backend,
            reason="known-answer verification failed",
            degree=stack.degree,
        )
    return ok


def supports(moduli: tuple[int, ...], degree: int) -> bool:
    """True when the engine plans every modulus exactly at ``degree``.

    That is where the GEMM split of the ring's tile is exact
    (:func:`_split_shifts`; the dense ``(N, 1)`` tile up to
    :data:`DENSE_MAX_DEGREE`, where a call's fixed cost outweighs its GEMM,
    else the near-square one): every ``1 < q < 2**32`` at
    ``4 <= N <= 2**16``.  Anything else stays on the caller-side big-int
    reference path.
    """
    return _split_shifts(degree, tuple(moduli)) is not None
