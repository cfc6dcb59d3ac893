"""Microbenchmark: BSGS, lazily double-hoisted linear transforms vs the naive loop.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_linear_transform.py [--quick]

Two workloads at ``N = 2**10, L = 6, dnum = 3``:

* **dense band** -- a 64-diagonal slot matrix (the shape of a convolution
  tap block or an FC layer band), and
* **CoeffToSlot level 0** -- the first factor of a depth-2 CoeffToSlot
  factorisation (16 generalized diagonals at stride 32), i.e. the first
  linear level of executable bootstrapping.

Each is evaluated two ways:

* **naive** -- the pre-engine per-diagonal loop: one full ``rotate`` (fused
  key switch included) + one ``multiply_plain`` + one add *per diagonal*;
* **engine** -- ``DiagonalLinearTransform.apply``: ``n1`` baby rotations on
  one hoisted decomposition that stay un-ModDown'd in the extended
  evaluation basis, lazily reduced inner products against cached
  extended-basis plaintext diagonals, one key-switch decomposition per giant
  step's ``c1``, and one ModDown for the whole matvec.

Both paths decode against the NumPy matrix-vector product before timing.
The CI gate requires the engine >= 2x on both workloads.  Each workload also
reports ``limb_rows``: the length-``N`` rows one engine call moves through the
NTT (forward + inverse, from the engine's counters), and ``encoder_bytes``:
the embedding tables a fresh encoder holds.  Both are exact and timing-free,
and ``run_ci_gates.py`` fails a later PR that raises either.
``transform_build_s`` is what one cold transform costs before its first
steady-state call (a fresh encoder, every diagonal encoded and transformed);
it is a timing, reported for the trajectory and not gated.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.ckks.bootstrapping import collapsed_fft_factors
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoding import CkksEncoder, rotate_slots
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear_transform import DiagonalLinearTransform
from repro.ckks.params import CkksParameters
from repro.poly.ntt_engine import reset_transform_counts, transform_counts

DEGREE = 2**10
LIMBS = 6
DNUM = 3
BAND_DIAGONALS = 64
C2S_DEPTH = 2
GATE = 2.0


def best_of(fn, repeats: int) -> float:
    fn()  # warm-up (populates plan / conversion / plaintext / key caches)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def naive_diagonal_loop(
    evaluator: CkksEvaluator,
    encoder: CkksEncoder,
    ciphertext: Ciphertext,
    diagonals: dict[int, np.ndarray],
) -> Ciphertext:
    """The pre-engine path: rotate + multiply_plain + add per diagonal."""
    accumulator: Ciphertext | None = None
    for steps, weights in diagonals.items():
        rotated = (
            ciphertext if steps == 0 else evaluator.rotate(ciphertext, steps)
        )
        plain = encoder.encode(weights, level=rotated.level)
        term = evaluator.multiply_plain(rotated, plain)
        accumulator = term if accumulator is None else evaluator.add(accumulator, term)
    return evaluator.rescale(accumulator)


def build_instance() -> dict:
    params = CkksParameters.create(
        degree=DEGREE, limbs=LIMBS, log_q=28, dnum=DNUM, scale_bits=24,
        special_limbs=3,
    )
    keygen = KeyGenerator(params, rng=np.random.default_rng(17))
    encoder = CkksEncoder(params)
    slots = params.slot_count
    rng = np.random.default_rng(23)

    band = {k: rng.uniform(-1, 1, slots) / BAND_DIAGONALS for k in range(BAND_DIAGONALS)}
    band_transform = DiagonalLinearTransform.from_diagonals(encoder, band)

    c2s_factor = collapsed_fft_factors(
        slots, C2S_DEPTH, inverse=True, normalised=True
    )[0]
    c2s_transform = DiagonalLinearTransform.from_diagonals(encoder, c2s_factor)

    steps = set(band) | set(c2s_factor) | set(band_transform.rotation_steps())
    steps |= set(c2s_transform.rotation_steps())
    galois_keys = keygen.galois_keys_for_steps(steps)
    evaluator = CkksEvaluator(params, galois_keys=galois_keys)
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    decryptor = Decryptor(params, keygen.secret_key)
    z = rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
    ciphertext = encryptor.encrypt(encoder.encode(z))
    return {
        "params": params,
        "encoder": encoder,
        "evaluator": evaluator,
        "decryptor": decryptor,
        "ciphertext": ciphertext,
        "z": z,
        "band": (band, band_transform),
        "c2s": (c2s_factor, c2s_transform),
    }


def check_correctness(instance: dict, name: str) -> None:
    """Both paths must decode to the NumPy matvec before being timed."""
    diagonals, transform = instance[name]
    encoder, decryptor = instance["encoder"], instance["decryptor"]
    evaluator, ct = instance["evaluator"], instance["ciphertext"]
    expected = np.zeros_like(instance["z"])
    for k, diagonal in diagonals.items():
        expected = expected + np.asarray(diagonal) * rotate_slots(instance["z"], k)
    scale_tol = max(1.0, np.abs(expected).max())
    naive = naive_diagonal_loop(evaluator, encoder, ct, diagonals)
    engine = evaluator.matvec(ct, transform, rescale=True)
    for label, result in (("naive", naive), ("engine", engine)):
        decoded = encoder.decode(decryptor.decrypt(result))
        drift = np.abs(decoded - expected).max() / scale_tol
        assert drift < 1e-2, f"{name}/{label} drifted from the NumPy matvec: {drift}"


def bench_case(instance: dict, name: str, repeats: int) -> dict:
    diagonals, transform = instance[name]
    evaluator, encoder = instance["evaluator"], instance["encoder"]
    ct = instance["ciphertext"]
    t_naive = best_of(
        lambda: naive_diagonal_loop(evaluator, encoder, ct, diagonals), repeats
    )
    t_engine = best_of(
        lambda: evaluator.matvec(ct, transform, rescale=True), repeats
    )
    reset_transform_counts()
    evaluator.matvec(ct, transform, rescale=True)
    counts = transform_counts()
    start = time.perf_counter()
    cold_encoder = CkksEncoder(instance["params"])
    cold = DiagonalLinearTransform.from_diagonals(cold_encoder, diagonals)
    evaluator.matvec(ct, cold, rescale=True)
    t_cold = time.perf_counter() - start
    return {
        "limb_rows": counts["forward_limbs"] + counts["inverse_limbs"],
        "encoder_bytes": cold_encoder.table_bytes,
        "transform_build_s": max(t_cold - t_engine, 0.0),
        "naive_ms": t_naive * 1e3,
        "engine_ms": t_engine * 1e3,
        "diagonals": len(diagonals),
        "rotations": transform.rotation_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer repeats for CI logs"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write a machine-readable summary"
    )
    args = parser.parse_args()
    repeats = 3 if args.quick else 10

    print(
        f"BSGS linear-transform microbenchmark (N=2^{DEGREE.bit_length() - 1}, "
        f"L={LIMBS}, dnum={DNUM})"
    )
    instance = build_instance()
    check_correctness(instance, "band")
    check_correctness(instance, "c2s")

    rows = [
        (f"dense band ({BAND_DIAGONALS} diagonals)", bench_case(instance, "band", repeats)),
        ("CoeffToSlot level 0", bench_case(instance, "c2s", repeats)),
    ]

    header = (
        f"{'workload':<28} {'diag':>5} {'rot':>4} {'rows':>5} {'build ms':>9} "
        f"{'naive ms':>10} {'engine ms':>10} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    ok = True
    json_rows, json_gates = [], []
    for name, row in rows:
        speedup = row["naive_ms"] / row["engine_ms"]
        passed = speedup >= GATE
        ok = ok and passed
        json_rows.append({"workload": name, "speedup": speedup, **row})
        json_gates.append(
            {
                "name": name,
                "threshold": GATE,
                "speedup": speedup,
                "limb_rows": row["limb_rows"],
                "encoder_bytes": row["encoder_bytes"],
                "passed": passed,
            }
        )
        print(
            f"{name:<28} {row['diagonals']:>5} {row['rotations']:>4} "
            f"{row['limb_rows']:>5} {row['transform_build_s'] * 1e3:>9.1f} "
            f"{row['naive_ms']:>10.2f} {row['engine_ms']:>10.2f} "
            f"{speedup:>7.2f}x  (gate {GATE:.1f}x -> {'PASS' if passed else 'FAIL'})"
        )
    if args.json:
        summary = {
            "name": "linear_transform",
            "rows": json_rows,
            "gates": json_gates,
            "passed": ok,
        }
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
