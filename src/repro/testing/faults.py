"""Fault-injection drills for the runtime guardrails.

Each context manager injects one concrete, reversible fault into the live
stack -- a payload bit flip, a corrupted transform table, a lying GEMM
kernel, table builds fed a false exactness fact -- and restores every
mutated table, attribute, and guardrail memo on exit.  The drills exist to
prove the guardrail contract end to end: an injected fault must either be
**detected** (a typed :class:`~repro.errors.ReproError` at the operator or
kernel boundary) or **healed** -- corrupted tables are rebuilt by the vet
that catches them, and a fault a rebuild cannot fix quarantines
``four_step`` so dispatch falls back to ``reference`` -- with results
bit-exact and the event recorded in `repro.diagnostics`; never silently
wrong.

The managers snapshot the quarantine state and, on exit, restore it and make
every chain re-vet its (now healthy) tables, so a drill leaves no residue in
the process-wide dispatch state: guardrail reactions *inside* the ``with``
block are observable, and the exit restores the pre-fault world.  A
quarantine a drill trips also lapses on its own after the engine's
cooldown; each chain then re-vets before running four_step, rebuilding
tables that still fail, so only a fault outside the tables keeps the rung
out with the cooldown doubling.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.poly import ntt_engine


@dataclass
class FaultHandle:
    """Descriptor of one injected fault, yielded by every drill."""

    kind: str
    details: dict[str, Any] = field(default_factory=dict)


def _restore_guardrails(quarantined: frozenset) -> None:
    """Put the quarantine state back and forget the verdicts the drill tripped."""
    ntt_engine.set_quarantine(quarantined)
    ntt_engine.reset_sentinels()


@contextmanager
def flipped_ciphertext_bit(
    ciphertext,
    *,
    component: str = "c0",
    limb: int = 0,
    coeff: int = 0,
    bit: int = 63,
) -> Iterator[FaultHandle]:
    """Flip one bit of one residue word of a ciphertext component, in place.

    The default flips bit 63, which pushes the residue past its modulus --
    the canonical-representative invariant every kernel relies on.  Strict
    mode (``REPRO_GEMM_STRICT=1``) detects this at the next evaluator
    operation as an :class:`~repro.errors.IncompatibleOperands` entry-check
    failure instead of silently decrypting garbage.
    """
    poly = getattr(ciphertext, component)
    original = int(poly.residues[limb, coeff])
    poly.residues[limb, coeff] = np.uint64(original ^ (1 << bit))
    try:
        yield FaultHandle(
            "ciphertext_bit_flip",
            {"component": component, "limb": limb, "coeff": coeff, "bit": bit},
        )
    finally:
        poly.residues[limb, coeff] = np.uint64(original)


@contextmanager
def corrupted_four_step_tables(stack, *, delta: float = 1.0) -> Iterator[FaultHandle]:
    """Corrupt the four-step rung's split constant matrix, reversibly.

    Offsets the forward cascade's chunked column matrix of ``stack``'s chain
    by ``delta`` (building the four-step tables first if need be) so every
    four-step forward transform is wrong while the fault is live.  The
    known-answer vet (chains not yet vetted, or re-vetting after a lapse)
    catches it and heals by rebuilding the tables -- one
    ``backend_tables_rebuilt`` event, no quarantine.  On already-vetted
    tables :func:`~repro.poly.ntt_engine.verify_plan` or a strict-mode spot
    check catches it and quarantines ``four_step``; the re-vet when that
    quarantine lapses rebuilds.  Exit restores the original matrix, which a
    rebuild has already retired.
    """
    matrix = stack.four_step_stack()._fwd_pack[0]
    snapshot = ntt_engine.quarantined_backends()
    original = matrix.copy()
    matrix += delta
    try:
        yield FaultHandle("four_step_table_corruption", {"delta": delta})
    finally:
        matrix[...] = original
        _restore_guardrails(snapshot)


@contextmanager
def perturbed_gemm_outputs(*, delta: int = 1) -> Iterator[FaultHandle]:
    """Make every four-step GEMM cascade return an off-by-``delta`` word.

    Models a miscomputing matrix engine: the cascade's canonical uint64
    output has ``delta`` XORed into element 0 of every row.  Detection runs
    through the same sentinel / spot-check machinery as table corruption,
    but a rebuild cannot fix it: the vet's rebuilt tables fail too, so
    ``four_step`` is quarantined and ``reference`` serves bit-exact results,
    with the cooldown doubling at each failed re-vet while the fault lasts.
    """
    snapshot = ntt_engine.quarantined_backends()
    original = ntt_engine._FourStepStack._cascade

    def lying_cascade(self, data, forward, limbs, out):
        out = original(self, data, forward, limbs, out)
        out[..., 0] ^= np.uint64(delta)
        return out

    ntt_engine._FourStepStack._cascade = lying_cascade
    try:
        yield FaultHandle("gemm_output_perturbation", {"delta": delta})
    finally:
        ntt_engine._FourStepStack._cascade = original
        _restore_guardrails(snapshot)


@contextmanager
def calibration_lie(stack) -> Iterator[FaultHandle]:
    """Four-step tables built on a false exactness fact: one chunk too few.

    Patches ``ntt_engine._split_shifts`` to report, for each GEMM, the
    balanced split with one chunk fewer than exactness needs -- 2-way shifts
    where 3 are needed (30-bit limbs at ``N = 2**13``), an unsplit matrix
    where 2 are -- and drops ``stack``'s chain tables and verdict so its next
    dispatch builds them on the lie.  The guardrail answer is healing: the
    known-answer vet refuses the inexact tables, the rebuild fails the same
    way, and ``four_step`` is quarantined, so ``reference`` serves bit-exact
    results.  Exit drops the lie's tables again.
    """
    snapshot = ntt_engine.quarantined_backends()
    honest = ntt_engine._split_shifts
    chain = stack.chain

    def lying_shifts(degree, moduli):
        splits = honest(degree, moduli)
        bits = max((int(q) - 1).bit_length() for q in moduli)
        return splits and tuple(
            (-(-bits // (chunks - 1)), chunks - 1) for _, chunks in splits
        )

    def drop_tables():
        with chain._lock:
            chain._four_step = None
        ntt_engine.reset_sentinels()

    ntt_engine._split_shifts = lying_shifts
    drop_tables()
    try:
        yield FaultHandle("calibration_lie", {})
    finally:
        ntt_engine._split_shifts = honest
        drop_tables()
        _restore_guardrails(snapshot)
