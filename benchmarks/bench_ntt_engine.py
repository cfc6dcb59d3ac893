"""Microbenchmark: cached-plan NTT engine vs the seed's per-limb reference path.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_ntt_engine.py [--quick]

Three paths are timed for a batched ``(L, N)`` forward NTT:

* **seed path** -- a faithful replica of the seed repository's
  ``RnsPolynomial.to_eval``: one reference NTT per limb, with the bit-reversal
  permutation, twist vector and per-stage twiddle tables rebuilt in Python
  loops on every call (the seed cached none of them);
* **oracle path** -- the current in-tree reference (`ntt_reference`), which
  still rebuilds twist/twiddle tables per call but shares the now-memoised
  bit-reversal permutation; and
* **engine** -- one `NttPlanStack.forward` call transforming every limb in a
  single stacked pass with precomputed Shoup constants and lazy butterflies.

The headline acceptance number is engine vs. seed path (>= 10x required for
the batched ``L=8, N=2**12`` configuration); the oracle comparison is printed
alongside for transparency since the oracle itself got faster this cycle.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.numtheory.crt import RnsBasis
from repro.poly.ntt_engine import plan_stack_for
from repro.poly.ntt_reference import ntt_forward_negacyclic

ACCEPTANCE_CONFIG = (8, 2**12)  # (limbs, degree) the >= 10x criterion targets
ACCEPTANCE_SPEEDUP = 10.0


# --------------------------------------------------------------------------
# Faithful replica of the seed's reference path (verbatim logic: Python-loop
# table builds on every call).
# --------------------------------------------------------------------------
def _seed_bit_reverse_indices(n: int) -> np.ndarray:
    indices = []
    bits = n.bit_length() - 1
    for value in range(n):
        result = 0
        v = value
        for _ in range(bits):
            result = (result << 1) | (v & 1)
            v >>= 1
        indices.append(result)
    return np.array(indices, dtype=np.int64)


def _seed_cyclic_ntt(values: np.ndarray, modulus: int, omega: int) -> np.ndarray:
    n = values.shape[-1]
    q = np.uint64(modulus)
    data = values[..., _seed_bit_reverse_indices(n)].copy()
    length = 2
    while length <= n:
        half = length // 2
        stage_root = pow(omega, n // length, modulus)
        twiddles = np.empty(half, dtype=np.uint64)
        acc = 1
        for i in range(half):
            twiddles[i] = acc
            acc = (acc * stage_root) % modulus
        blocks = data.reshape(*data.shape[:-1], n // length, length)
        even = blocks[..., :half].copy()
        odd = (blocks[..., half:] * twiddles) % q
        blocks[..., :half] = (even + odd) % q
        blocks[..., half:] = (even + (q - odd)) % q
        data = blocks.reshape(*data.shape[:-1], n)
        length *= 2
    return data


def seed_forward_negacyclic(coeffs: np.ndarray, modulus: int, psi: int) -> np.ndarray:
    """The seed's ``ntt_forward_negacyclic`` with its per-call table builds."""
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    n = coeffs.shape[-1]
    q = np.uint64(modulus)
    twist = np.empty(n, dtype=np.uint64)
    acc = 1
    for j in range(n):
        twist[j] = acc
        acc = (acc * psi) % modulus
    return _seed_cyclic_ntt((coeffs * twist) % q, modulus, pow(psi, 2, modulus))


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------
def best_of(fn, repeats: int) -> float:
    fn()  # warm-up (also populates plan caches, which is the point)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_config(limbs: int, degree: int, repeats: int, seed_repeats: int) -> dict:
    rng = np.random.default_rng(1234)
    basis = RnsBasis.generate(limbs, 28, degree)
    matrix = np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in basis.moduli]
    )
    stack = plan_stack_for(basis.moduli, degree)
    psis = stack.psis

    t_seed = best_of(
        lambda: [
            seed_forward_negacyclic(matrix[i], basis.moduli[i], psis[i])
            for i in range(limbs)
        ],
        seed_repeats,
    )
    t_oracle = best_of(
        lambda: [
            ntt_forward_negacyclic(matrix[i], basis.moduli[i], psis[i])
            for i in range(limbs)
        ],
        repeats,
    )
    t_engine = best_of(lambda: stack.forward(matrix), repeats)

    # Sanity: the engine must agree bit-exactly with both baselines.
    expected = np.stack(
        [ntt_forward_negacyclic(matrix[i], basis.moduli[i], psis[i]) for i in range(limbs)]
    )
    assert np.array_equal(stack.forward(matrix), expected), "engine output mismatch"

    return {
        "limbs": limbs,
        "degree": degree,
        "seed_ms": t_seed * 1e3,
        "oracle_ms": t_oracle * 1e3,
        "engine_ms": t_engine * 1e3,
        "speedup_vs_seed": t_seed / t_engine,
        "speedup_vs_oracle": t_oracle / t_engine,
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
        repeats, seed_repeats = 10, 2
    else:
        configs = [(4, 2**10), (8, 2**12), (16, 2**13)]
        repeats, seed_repeats = 30, 3

    header = (
        f"{'L':>3} {'N':>6} {'seed ms':>9} {'oracle ms':>10} {'engine ms':>10} "
        f"{'vs seed':>8} {'vs oracle':>10}"
    )
    print("NTT engine microbenchmark (batched forward NTT, best-of timing)")
    print(header)
    print("-" * len(header))
    acceptance_ok = True
    rows = []
    for limbs, degree in configs:
        row = run_config(limbs, degree, repeats, seed_repeats)
        rows.append(row)
        print(
            f"{row['limbs']:>3} {row['degree']:>6} {row['seed_ms']:>9.2f} "
            f"{row['oracle_ms']:>10.2f} {row['engine_ms']:>10.3f} "
            f"{row['speedup_vs_seed']:>7.1f}x {row['speedup_vs_oracle']:>9.1f}x"
        )
        if (limbs, degree) == ACCEPTANCE_CONFIG:
            acceptance_ok = row["speedup_vs_seed"] >= ACCEPTANCE_SPEEDUP
            headline = row

    print()
    print(
        f"acceptance (L={ACCEPTANCE_CONFIG[0]}, N=2^{ACCEPTANCE_CONFIG[1].bit_length() - 1}): "
        f"{headline['speedup_vs_seed']:.1f}x vs seed path "
        f"(threshold {ACCEPTANCE_SPEEDUP:.0f}x) -> {'PASS' if acceptance_ok else 'FAIL'}"
    )
    if args.json:
        summary = {
            "name": "ntt_engine",
            "rows": rows,
            "gates": [
                {
                    "name": "engine_vs_seed",
                    "threshold": ACCEPTANCE_SPEEDUP,
                    "speedup": headline["speedup_vs_seed"],
                    "passed": acceptance_ok,
                }
            ],
            "passed": acceptance_ok,
        }
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
    return 0 if acceptance_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
