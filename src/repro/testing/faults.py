"""Fault-injection drills for the runtime guardrails.

Each context manager injects one concrete, reversible fault into the live
stack -- a payload bit flip, a corrupted transform table, a lying GEMM
kernel, a dispatch layer fed false exactness facts -- and restores every
mutated table, attribute, and guardrail memo on exit.  The drills exist to
prove the guardrail contract end to end: an injected fault must either be
**detected** (a typed :class:`~repro.errors.ReproError` at the operator or
kernel boundary) or **healed** (the backend is quarantined, dispatch falls
down the degradation ladder ``four_step -> butterfly -> reference``, results
stay bit-exact, and the event is recorded in `repro.diagnostics`) -- never
silently wrong.

The managers snapshot the quarantine set and, on exit, restore it and make
every chain re-vet each rung's (now healthy) tables, so a drill leaves no
residue in the process-wide dispatch state: guardrail reactions *inside*
the ``with`` block are observable, and the exit restores the pre-fault
world.  A quarantine a drill trips also lapses on its own after the
engine's cooldown; each chain then re-vets the rung before running it, so
tables still corrupted stay out of dispatch with the cooldown doubling.
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
    """Put the quarantine set back and forget the verdicts the drill tripped."""
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
def corrupted_butterfly_tables(stack, *, delta: int = 1) -> Iterator[FaultHandle]:
    """Corrupt the butterfly backend's negacyclic twist tables, reversibly.

    ``stack`` is an :class:`~repro.poly.ntt_engine.NttPlanStack`; the tables
    are its chain's, so every basis viewing that chain sees the fault (they
    are built first if the chain has not used that rung yet).  The
    forward twist table the hot path multiplies by is offset by ``delta``, so
    every forward transform on the butterfly backend is wrong while the fault
    is live.  Detection: the known-answer vet (chains not yet vetted on the
    butterfly rung, or re-vetting after a lapse) or
    :func:`~repro.poly.ntt_engine.verify_plan` (quarantine + ladder
    fallback), or a strict-mode spot check (typed
    :class:`BackendExactnessError`).
    """
    table = stack.butterfly_tables().twist_br
    snapshot = ntt_engine.quarantined_backends()
    original = table.copy()
    table += np.uint64(delta)
    try:
        yield FaultHandle("butterfly_table_corruption", {"delta": delta})
    finally:
        table[...] = original
        _restore_guardrails(snapshot)


@contextmanager
def corrupted_four_step_tables(stack, *, delta: float = 1.0) -> Iterator[FaultHandle]:
    """Corrupt the four-step GEMM backend's split constant matrix, reversibly.

    Offsets the forward cascade ``[hi; lo]`` column matrix of ``stack``'s
    chain by ``delta`` (building the four-step tables first if need be) so every
    four-step forward transform is wrong while the fault is live.  The
    known-answer vet (stacks not yet vetted, or re-vetting after a lapse),
    :func:`verify_plan` (already-vetted stacks), or a strict-mode spot check
    catches it; healing means dispatch
    quarantines ``four_step`` and the butterfly backend serves bit-exact
    results.
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
    through the same sentinel / spot-check machinery as table corruption.
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
def calibration_lie() -> Iterator[FaultHandle]:
    """Dispatch fed false exactness facts: the four-step split is "exact" everywhere.

    Patches :func:`~repro.poly.ntt_engine.four_step_supported` to return
    ``True`` unconditionally and bumps the dispatch epoch so every stack
    re-resolves, so ``auto`` dispatch happily selects the GEMM backend on
    rings whose float64 split is *not* exact.  The guardrail answer is
    healing: building the inexact tables refuses with a typed
    :class:`~repro.errors.ParameterError`, the vetted-table check records a
    ``backend_fallback`` event, and the butterfly/reference rungs serve
    bit-exact results.
    """
    snapshot = ntt_engine.quarantined_backends()
    original = ntt_engine.four_step_supported
    ntt_engine.four_step_supported = lambda degree, moduli: True
    ntt_engine.bump_dispatch_epoch()
    try:
        yield FaultHandle("calibration_lie", {})
    finally:
        ntt_engine.four_step_supported = original
        ntt_engine.bump_dispatch_epoch()
        _restore_guardrails(snapshot)
