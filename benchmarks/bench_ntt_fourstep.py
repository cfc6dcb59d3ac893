"""Microbenchmark: four-step GEMM NTT rung vs a butterfly replica vs reference.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_ntt_fourstep.py [--quick] [--json PATH]

For each ``(L, N)`` configuration the same stacked residue matrix is
transformed forward *and* inverse three ways:

* **butterfly** -- :class:`ButterflyReplica`, a frozen replica of the Harvey
  lazy-butterfly cascade the engine ran as its middle rung before the
  ``K``-way four-step split made that rung redundant.  It is kept here only
  as this gate's yardstick;
* **four_step** -- the engine's matrix-engine factorisation: column NTTs as
  a GEMM, a cached twist, row NTTs as a GEMM, all through the split-float64
  kernel with division-free reciprocal reductions; and
* **reference** -- the per-call table-building oracle, for scale.

Every output is asserted bit-identical before timing.  The CI gate is
four_step vs butterfly (forward+inverse combined) at the acceptance shape
``L=8, N=2**12`` -- threshold >= 1.5x quick-mode (the target is 2x, which
the combined number reaches on an unloaded machine; the gate leaves headroom
for CI noise).  One more row is report-only: 30-bit limbs at ``N = 2**13``,
where four_step needs a three-chunk split of its row GEMM.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import NamedTuple

import numpy as np

from repro.numtheory.bitrev import bit_reverse_indices
from repro.numtheory.crt import RnsBasis
from repro.numtheory.modular import mod_inv, primitive_nth_root_of_unity
from repro.poly.ntt_engine import (
    BACKEND_FOUR_STEP,
    BACKEND_REFERENCE,
    NttPlanStack,
)

BACKEND_BUTTERFLY = "butterfly"

ACCEPTANCE_CONFIG = (8, 2**12)  # (limbs, degree) the gate targets
ACCEPTANCE_SPEEDUP = 1.5


WIDE_CONFIG = (8, 2**13, 30)  # (limbs, degree, bits): report-only K=3 row


# ---------------------------------------------------------------------------
# Frozen replica of the retired lazy-butterfly rung.  Intermediates live in
# [0, 4q): each stage performs one conditional subtraction of 2q, constants
# multiply by Shoup's method, and values reach [0, q) once at the end.  Exact
# for q < 2**30.  Do not optimise it: it is the yardstick the gate compares
# against.
# ---------------------------------------------------------------------------
_SHIFT32 = np.uint64(32)
#: Stages with at most this many twiddles run on transposed views.
_TRANSPOSE_MAX_HALF = 8


def _psi_powers(moduli, psis, degree) -> np.ndarray:
    """``P[l, e] = psi_l**e mod q_l`` for ``e < 2N``, by vectorized doubling."""
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


def _shoup(values, q_col):
    return (values << _SHIFT32) // q_col


class _Stage(NamedTuple):
    twiddles: np.ndarray
    shoup: np.ndarray
    twiddles_t: np.ndarray
    shoup_t: np.ndarray
    identity: bool


def _reduce_once(x, q, scratch) -> None:
    np.subtract(x, q, out=scratch)
    np.minimum(x, scratch, out=x)


def _twist_in_place(data, w, w_shoup, q, hi) -> None:
    np.multiply(data, w_shoup, out=hi)
    hi >>= _SHIFT32
    hi *= q
    data *= w
    data -= hi


def _lazy_butterflies(data, stages, q, two_q, scratch) -> None:
    n = data.shape[-1]
    if n < 2:
        return
    lead = data.shape[:-1]
    for index, stage in enumerate(stages):
        half = stage.twiddles.shape[-1]
        length = 2 * half
        blocks = data.reshape(*lead, n // length, length)
        if index == 0 and stage.identity:
            upper = blocks[..., :half]
            lower = blocks[..., half:]
            tmp = scratch[0].reshape(*lead, n // length, half)
            np.add(upper, two_q, out=tmp)
            tmp -= lower
            np.add(upper, lower, out=upper)
            lower[...] = tmp
            continue
        if half <= _TRANSPOSE_MAX_HALF and n // length > half:
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


class ButterflyReplica:
    """The lazy radix-2 cascade over a whole ``(L, N)`` residue matrix."""

    def __init__(self, moduli, degree):
        if any(q >= 1 << 30 for q in moduli):
            raise ValueError("the lazy butterfly is exact only for q < 2**30")
        psis = tuple(primitive_nth_root_of_unity(2 * degree, q) for q in moduli)
        powers = _psi_powers(moduli, psis, degree)
        q_col = np.array(moduli, dtype=np.uint64)[:, None]

        def gather(exponents):
            return powers[:, exponents % powers.shape[1]]

        def stages(sign):
            out, half = [], 1
            while half < degree:
                twiddles = gather(sign * (degree // half) * np.arange(half))
                shoup = _shoup(twiddles, q_col)
                out.append(
                    _Stage(
                        twiddles[:, None, :],
                        shoup[:, None, :],
                        twiddles[:, :, None],
                        shoup[:, :, None],
                        bool(np.all(twiddles == 1)),
                    )
                )
                half *= 2
            return tuple(out)

        self.bitrev = bit_reverse_indices(degree)
        n_inv = np.array([mod_inv(degree, q) for q in moduli], dtype=np.uint64)
        self.fwd_stages, self.inv_stages = stages(1), stages(-1)
        self.twist_br = powers[:, self.bitrev]
        self.twist_br_shoup = _shoup(self.twist_br, q_col)
        self.untwist = gather(-np.arange(degree)) * n_inv[:, None] % q_col
        self.untwist_shoup = _shoup(self.untwist, q_col)
        self.q_col, self.two_q_col = q_col, q_col * np.uint64(2)
        half_shape = (len(moduli), max(degree // 2, 1))
        self.scratch = (np.empty(half_shape, np.uint64), np.empty(half_shape, np.uint64))
        self.scratch_full = np.empty((len(moduli), degree), np.uint64)

    def _run(self, matrix, forward):
        out = np.empty(matrix.shape, dtype=np.uint64)
        q_col, two_q_col = self.q_col, self.two_q_col
        q_cube, two_q_cube = q_col[:, :, None], two_q_col[:, :, None]
        data = np.take(matrix, self.bitrev, axis=-1, out=out, mode="clip")
        if forward:
            _twist_in_place(data, self.twist_br, self.twist_br_shoup, q_col, self.scratch_full)
            _lazy_butterflies(data, self.fwd_stages, q_cube, two_q_cube, self.scratch)
            _reduce_once(data, two_q_col, self.scratch_full)
        else:
            _lazy_butterflies(data, self.inv_stages, q_cube, two_q_cube, self.scratch)
            _twist_in_place(data, self.untwist, self.untwist_shoup, q_col, self.scratch_full)
        _reduce_once(data, q_col, self.scratch_full)
        return out

    def forward(self, matrix):
        return self._run(matrix, True)

    def inverse(self, matrix):
        return self._run(matrix, False)


def best_of(fn, repeats: int) -> float:
    fn()  # warm-up (builds and vets the lazy four-step tables)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_config(
    limbs: int, degree: int, repeats: int, ref_repeats: int, bits: int = 28
) -> dict:
    rng = np.random.default_rng(1234)
    basis = RnsBasis.generate(limbs, bits, degree)
    matrix = np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in basis.moduli]
    )
    stacks = {
        BACKEND_BUTTERFLY: ButterflyReplica(basis.moduli, degree),
        BACKEND_FOUR_STEP: NttPlanStack(basis.moduli, degree, backend=BACKEND_FOUR_STEP),
        BACKEND_REFERENCE: NttPlanStack(basis.moduli, degree, backend=BACKEND_REFERENCE),
    }

    # Bit-exactness before timing: all three must agree.
    eval_ref = stacks[BACKEND_REFERENCE].forward(matrix)
    for backend in (BACKEND_BUTTERFLY, BACKEND_FOUR_STEP):
        assert np.array_equal(stacks[backend].forward(matrix), eval_ref), backend
        assert np.array_equal(stacks[backend].inverse(eval_ref), matrix), backend

    timings = {}
    for backend, stack in stacks.items():
        reps = ref_repeats if backend == BACKEND_REFERENCE else repeats
        fwd = best_of(lambda s=stack: s.forward(matrix), reps)
        inv = best_of(lambda s=stack: s.inverse(eval_ref), reps)
        timings[backend] = {"fwd_ms": fwd * 1e3, "inv_ms": inv * 1e3}

    def combined(backend: str) -> float:
        return timings[backend]["fwd_ms"] + timings[backend]["inv_ms"]

    return {
        "limbs": limbs,
        "degree": degree,
        "bits": bits,
        "timings": timings,
        "speedup_vs_butterfly": combined(BACKEND_BUTTERFLY)
        / combined(BACKEND_FOUR_STEP),
        "speedup_vs_reference": combined(BACKEND_REFERENCE)
        / combined(BACKEND_FOUR_STEP),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer repeats / configs for CI logs"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write a machine-readable summary"
    )
    args = parser.parse_args()

    if args.quick:
        configs = [(4, 2**10), ACCEPTANCE_CONFIG]
        repeats, ref_repeats = 15, 2
    else:
        configs = [(4, 2**10), (8, 2**11), ACCEPTANCE_CONFIG, (8, 2**13), (16, 2**13)]
        repeats, ref_repeats = 40, 3

    header = (
        f"{'L':>3} {'N':>6} {'bits':>4} {'butterfly ms':>13} {'four_step ms':>13} "
        f"{'reference ms':>13} {'vs butterfly':>13} {'vs reference':>13}"
    )
    print("Four-step GEMM NTT backend (forward+inverse, best-of timing)")
    print(header)
    print("-" * len(header))
    rows = []
    headline = None
    for limbs, degree, bits in [(*config, 28) for config in configs] + [WIDE_CONFIG]:
        row = run_config(limbs, degree, repeats, ref_repeats, bits)
        row["report_only"] = (limbs, degree, bits) == WIDE_CONFIG
        rows.append(row)
        t = row["timings"]

        def total(backend):
            return t[backend]["fwd_ms"] + t[backend]["inv_ms"]

        print(
            f"{limbs:>3} {degree:>6} {bits:>4} {total(BACKEND_BUTTERFLY):>13.3f} "
            f"{total(BACKEND_FOUR_STEP):>13.3f} {total(BACKEND_REFERENCE):>13.2f} "
            f"{row['speedup_vs_butterfly']:>12.2f}x {row['speedup_vs_reference']:>12.1f}x"
            + ("  (report only)" if row["report_only"] else "")
        )
        if (limbs, degree, bits) == (*ACCEPTANCE_CONFIG, 28):
            headline = row

    passed = headline["speedup_vs_butterfly"] >= ACCEPTANCE_SPEEDUP
    print()
    print(
        f"acceptance (L={ACCEPTANCE_CONFIG[0]}, N=2^{ACCEPTANCE_CONFIG[1].bit_length() - 1}): "
        f"four_step {headline['speedup_vs_butterfly']:.2f}x vs butterfly "
        f"(threshold {ACCEPTANCE_SPEEDUP:.1f}x) -> {'PASS' if passed else 'FAIL'}"
    )
    if args.json:
        summary = {
            "name": "ntt_fourstep",
            "rows": rows,
            "gates": [
                {
                    "name": "four_step_vs_butterfly",
                    "threshold": ACCEPTANCE_SPEEDUP,
                    "speedup": headline["speedup_vs_butterfly"],
                    "passed": passed,
                }
            ],
            "passed": passed,
        }
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
