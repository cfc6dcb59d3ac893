"""Microbenchmark: four-step GEMM NTT backend vs butterfly vs reference.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_ntt_fourstep.py [--quick] [--json PATH]

For each ``(L, N)`` configuration the same stacked residue matrix is
transformed forward *and* inverse through the three engine backends:

* **butterfly** -- the PR 1 Harvey lazy-butterfly cascade (`NttPlanStack`'s
  cache-tiled stage loop), the incumbent production path;
* **four_step** -- the PR 5 matrix-engine factorisation: column NTTs as a
  GEMM, a cached twist, row NTTs as a GEMM, all through the shared
  split-float64 kernel with division-free reciprocal reductions; and
* **reference** -- the per-call table-building oracle, for scale.

Every backend's output is asserted bit-identical before timing.  The CI gate
is four_step vs butterfly (forward+inverse combined) at the acceptance shape
``L=8, N=2**12`` -- threshold >= 1.5x quick-mode (the ISSUE 5 target is 2x,
which the combined number reaches on an unloaded machine; the gate leaves
headroom for CI noise).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.numtheory.crt import RnsBasis
from repro.poly.ntt_engine import (
    BACKEND_BUTTERFLY,
    BACKEND_FOUR_STEP,
    BACKEND_REFERENCE,
    NttPlanStack,
)

ACCEPTANCE_CONFIG = (8, 2**12)  # (limbs, degree) the gate targets
ACCEPTANCE_SPEEDUP = 1.5


def best_of(fn, repeats: int) -> float:
    fn()  # warm-up (builds lazy four-step tables / butterfly scratch)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_config(limbs: int, degree: int, repeats: int, ref_repeats: int) -> dict:
    rng = np.random.default_rng(1234)
    basis = RnsBasis.generate(limbs, 28, degree)
    matrix = np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in basis.moduli]
    )
    stacks = {
        backend: NttPlanStack(basis.moduli, degree, backend=backend)
        for backend in (BACKEND_BUTTERFLY, BACKEND_FOUR_STEP, BACKEND_REFERENCE)
    }

    # Bit-exactness before timing: all three backends must agree.
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
        f"{'L':>3} {'N':>6} {'butterfly ms':>13} {'four_step ms':>13} "
        f"{'reference ms':>13} {'vs butterfly':>13} {'vs reference':>13}"
    )
    print("Four-step GEMM NTT backend (forward+inverse, best-of timing)")
    print(header)
    print("-" * len(header))
    rows = []
    headline = None
    for limbs, degree in configs:
        row = run_config(limbs, degree, repeats, ref_repeats)
        rows.append(row)
        t = row["timings"]

        def total(backend):
            return t[backend]["fwd_ms"] + t[backend]["inv_ms"]

        print(
            f"{limbs:>3} {degree:>6} {total(BACKEND_BUTTERFLY):>13.3f} "
            f"{total(BACKEND_FOUR_STEP):>13.3f} {total(BACKEND_REFERENCE):>13.2f} "
            f"{row['speedup_vs_butterfly']:>12.2f}x {row['speedup_vs_reference']:>12.1f}x"
        )
        if (limbs, degree) == ACCEPTANCE_CONFIG:
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
