"""CI gate: every injected fault is detected or healed -- never silent.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_fault_injection.py [--quick] [--json PATH]

Drives the `repro.testing` fault-injection harness through one drill per
fault class -- ciphertext payload bit flips, corrupted four-step GEMM
constants (before and after the chain's vet), a miscomputing GEMM cascade,
and tables built on a false exactness fact -- and classifies each outcome:

* **detected** -- the fault surfaced as a typed :class:`repro.errors.ReproError`
  at the operator or kernel boundary;
* **healed** -- the observed results stayed bit-exact and the reaction was
  the one the fault calls for, recorded in `repro.diagnostics`: corrupted
  tables are rebuilt (at once, or when the quarantine ``verify_plan``
  tripped lapses), and a fault a rebuild cannot fix quarantines
  ``four_step`` so dispatch falls back to ``reference``;
* **silent** -- anything else: the fault neither raised nor healed, or a
  "healed" result was not bit-exact.  **The gate requires silent == 0.**

Unlike the perf gates this one measures a boolean property, so ``--quick``
and full mode run the same drills.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro import diagnostics
from repro.ckks.encoding import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.params import CkksParameters
from repro.errors import ReproError
from repro.numtheory.primes import generate_ntt_prime
from repro.poly import ntt_engine
from repro.poly.gemm_mod import set_strict
from repro.poly.ntt_engine import (
    BACKEND_FOUR_STEP,
    BACKEND_REFERENCE,
    QUARANTINE_COOLDOWN_S,
    NttPlanStack,
    clear_quarantine,
    plan_stack_for,
    quarantined_backends,
    reset_sentinels,
    verify_plan,
)
from repro.testing import (
    calibration_lie,
    corrupted_four_step_tables,
    flipped_ciphertext_bit,
    perturbed_gemm_outputs,
)

DEGREE = 64
MODULUS_BITS = 28


def _ring():
    """A single-modulus ring's cached one-limb plan stack, a probe and its NTT."""
    q = generate_ntt_prime(MODULUS_BITS, DEGREE)
    plan = plan_stack_for((q,), DEGREE)
    probe = (np.arange(DEGREE, dtype=np.uint64) * np.uint64(7919)) % np.uint64(q)
    probe = probe[None, :]
    truth = plan.forward(probe.copy())
    return q, plan, probe, truth


def drill_ciphertext_bit_flip() -> str:
    """Payload corruption must trip the strict-mode entry check."""
    params = CkksParameters.create(
        degree=DEGREE, limbs=3, log_q=28, dnum=2, scale_bits=21
    )
    keygen = KeyGenerator(params, rng=np.random.default_rng(7))
    encoder = CkksEncoder(params)
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    evaluator = CkksEvaluator(params, relin_key=keygen.relinearization_key())
    rng = np.random.default_rng(3)
    ct = encryptor.encrypt(encoder.encode(rng.uniform(-1, 1, params.slot_count)))
    other = encryptor.encrypt(encoder.encode(rng.uniform(-1, 1, params.slot_count)))
    previous = set_strict(True)
    try:
        with flipped_ciphertext_bit(ct, bit=63):
            try:
                evaluator.add(ct, other)
            except ReproError:
                return "detected"
        return "silent"
    finally:
        set_strict(previous)


def _events(kind: str) -> int:
    return len(diagnostics.events(kind))


def drill_four_step_tables() -> str:
    """The vet must catch corrupted GEMM constants and heal by rebuilding."""
    _, plan, probe, truth = _ring()
    reset_sentinels()
    with corrupted_four_step_tables(plan):
        if plan.resolve_backend() != BACKEND_FOUR_STEP:
            return "silent"  # drill did not reach the faulty rung
        out = plan.forward(probe.copy())
        if (
            np.array_equal(out, truth)
            and _events("backend_tables_rebuilt") == 1
            and not quarantined_backends()
        ):
            return "healed"
    return "silent"


def drill_four_step_spot_check() -> str:
    """Strict-mode spot checks must catch a fault on already-vetted tables."""
    _, plan, probe, _ = _ring()
    plan.forward(probe.copy())  # vet the healthy tables first
    previous = set_strict(True)
    os.environ["REPRO_NTT_SPOT_STRIDE"] = "1"
    try:
        with corrupted_four_step_tables(plan):
            if plan.resolve_backend() != BACKEND_FOUR_STEP:
                return "silent"
            try:
                plan.forward(probe.copy())
            except ReproError:
                return "detected"
        return "silent"
    finally:
        os.environ.pop("REPRO_NTT_SPOT_STRIDE", None)
        set_strict(previous)


def drill_vetted_tables() -> str:
    """Corruption after the vet: verify_plan quarantines, the lapse rebuilds."""
    _, plan, probe, truth = _ring()
    plan.forward(probe.copy())  # vet the healthy tables first
    with corrupted_four_step_tables(plan):
        if verify_plan(plan) or BACKEND_FOUR_STEP not in quarantined_backends():
            return "silent"
        if not np.array_equal(plan.forward(probe.copy()), truth):
            return "silent"  # the reference rung must serve meanwhile
        time.sleep(QUARANTINE_COOLDOWN_S)
        out = plan.forward(probe.copy())
        if (
            np.array_equal(out, truth)
            and _events("backend_quarantine_lifted") == 1
            and _events("backend_tables_rebuilt") == 1
            and not quarantined_backends()
            and plan.resolve_backend() == BACKEND_FOUR_STEP
        ):
            return "healed"
    return "silent"


def drill_gemm_outputs() -> str:
    """A miscomputing GEMM cascade survives the rebuild: quarantine, reference."""
    _, plan, probe, truth = _ring()
    reset_sentinels()
    with perturbed_gemm_outputs():
        if plan.resolve_backend() != BACKEND_FOUR_STEP:
            return "silent"
        out = plan.forward(probe.copy())
        if (
            np.array_equal(out, truth)
            and _events("backend_tables_rebuilt") == 1
            and BACKEND_FOUR_STEP in quarantined_backends()
        ):
            return "healed"
    return "silent"


def drill_calibration_lie() -> str:
    """Tables split one chunk short must fail the vet and its rebuild."""
    q = generate_ntt_prime(30, 8192)
    plan = plan_stack_for((q,), 8192)
    probe = (np.arange(8192, dtype=np.uint64) * np.uint64(97)) % np.uint64(q)
    probe = probe[None, :]
    truth = NttPlanStack((q,), 8192, backend=BACKEND_REFERENCE).forward(probe)
    with calibration_lie(plan):
        out = plan.forward(probe.copy())
        if (
            np.array_equal(out, truth)
            and _events("backend_tables_rebuilt") == 1
            and BACKEND_FOUR_STEP in quarantined_backends()
        ):
            return "healed"
    return "silent"


DRILLS = [
    ("ciphertext_bit_flip", drill_ciphertext_bit_flip),
    ("four_step_table_corruption", drill_four_step_tables),
    ("four_step_strict_spot_check", drill_four_step_spot_check),
    ("vetted_table_corruption", drill_vetted_tables),
    ("gemm_output_perturbation", drill_gemm_outputs),
    ("calibration_lie", drill_calibration_lie),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="accepted for driver uniformity"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write a machine-readable summary"
    )
    args = parser.parse_args()

    print(f"Fault-injection gate ({len(DRILLS)} drills)")
    header = f"{'drill':<30} {'verdict':>10} {'time ms':>10}"
    print(header)
    print("-" * len(header))

    rows = []
    for name, drill in DRILLS:
        clear_quarantine()
        diagnostics.clear_events()
        started = time.perf_counter()
        try:
            verdict = drill()
        except ReproError:
            # A typed error escaping the drill body still counts as detected.
            verdict = "detected"
        elapsed_ms = (time.perf_counter() - started) * 1e3
        rows.append({"drill": name, "verdict": verdict, "time_ms": elapsed_ms})
        print(f"{name:<30} {verdict:>10} {elapsed_ms:>10.1f}")
    clear_quarantine()
    reset_sentinels()
    diagnostics.clear_events()

    injected = len(rows)
    detected = sum(1 for row in rows if row["verdict"] == "detected")
    healed = sum(1 for row in rows if row["verdict"] == "healed")
    silent = injected - detected - healed
    passed = silent == 0
    print()
    print(
        f"injected {injected}, detected {detected}, healed {healed}, "
        f"silent {silent} (gate: silent == 0 -> {'PASS' if passed else 'FAIL'})"
    )

    if args.json:
        summary = {
            "name": "fault_injection",
            "config": {"degree": DEGREE, "modulus_bits": MODULUS_BITS},
            "rows": rows,
            "gates": [
                {
                    "name": "no_silent_faults",
                    "threshold": 0,
                    "injected": injected,
                    "detected": detected,
                    "healed": healed,
                    "silent": silent,
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
