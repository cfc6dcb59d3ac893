"""Deterministic per-ciphertext noise-budget tracking.

Every ciphertext carries ``noise_bits``: ``log2`` of a deterministic upper
bound on the canonical-embedding norm of its noise polynomial.  The bound is
stamped at encryption (:meth:`NoiseModel.fresh_bits`) and propagated through
every evaluator operation with the standard CKKS worst-case rules (the same
operation categories the evaluator's ``operation_counts`` tracks).  Dividing
the bound by the scale upper-bounds the slot-value decryption error, which is
what the decryptor cross-check tests assert.

The *budget* of a ciphertext at level ``l`` is::

    budget_bits = log2(Q_l) - 1 - noise_bits

i.e. how many doublings the noise can still absorb before ``m + e`` wraps the
remaining modulus ``Q_l`` and a decode returns garbage.  The evaluator guards
every produced ciphertext: below the warn margin a ``noise_budget_low`` event
is recorded in :mod:`repro.diagnostics`; below the raise margin a
:class:`~repro.errors.NoiseBudgetExhausted` is raised *before* the garbage
decode can happen, naming ``bootstrap()`` as the remedy.

The margins and the tracking switch are a :class:`NoisePolicy`; a
:class:`NoiseModel` takes the default policy unless given another.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import diagnostics
from repro.ckks.params import CkksParameters
from repro.errors import NoiseBudgetExhausted

__all__ = ["NoisePolicy", "NoiseModel", "policy_override"]

@dataclass
class NoisePolicy:
    """When to track, warn, and raise on the noise budget."""

    track: bool = True
    warn_margin_bits: float = 8.0
    raise_margin_bits: float = 0.0
    #: Assumed upper bound on |slot value|; the worst-case message norm used
    #: in the multiplication rules is ``scale * message_bound``.
    message_bound: float = 1.0


@dataclass
class NoiseModel:
    """Worst-case canonical-embedding noise propagation for one parameter set.

    All bounds follow the standard CKKS noise heuristics with the sparse
    secret treated as dense (``h = N``) -- deliberately pessimistic so that
    the estimate provably upper-bounds the measured error, at the cost of a
    few budget bits.
    """

    params: CkksParameters
    policy: NoisePolicy = field(default_factory=NoisePolicy)

    def __post_init__(self) -> None:
        n = float(self.params.degree)
        sigma = float(self.params.error_stddev)
        # Fresh bound: e0 + u*e_pk + s*e1 with ternary u and dense-treated s.
        self._fresh = 8.0 * math.sqrt(2.0) * sigma * n + 6.0 * sigma * math.sqrt(
            n
        ) + 16.0 * sigma * n
        # Rounding bound for rescale / encoding (dense secret worst case).
        self._round = math.sqrt(n / 3.0) * (3.0 + 8.0 * math.sqrt(n))
        # Hybrid key-switch noise after ModDown: one rounding term per digit
        # plus the P-scaled key-error term (dominated by the rounding here).
        # One key serves every level through the cut top-level partition, so
        # a level has at most dnum digits of at most ceil(L / dnum) limbs --
        # the top level's worst case -- and the term holds at every level.
        self._keyswitch = (1.0 + float(self.params.dnum)) * self._round
        # Cumulative log2(Q_l) for budget checks, one entry per level.
        bits = 0.0
        self._level_bits = [0.0]
        for q in self.params.modulus_basis.moduli:
            bits += math.log2(float(q))
            self._level_bits.append(bits)

    # ----------------------------------------------------------- fresh bounds
    def fresh_bits(self) -> float:
        """``log2`` noise bound of a fresh public-key encryption."""
        return math.log2(self._fresh)

    def plaintext_bits(self) -> float:
        """``log2`` rounding-noise bound of an encoded plaintext."""
        return math.log2(self._round)

    # ------------------------------------------------------------ propagation
    def add_bits(self, lhs_bits: float, rhs_bits: float) -> float:
        """Addition / subtraction: bounds add."""
        return _log2_sum(lhs_bits, rhs_bits)

    def add_plain_bits(self, ct_bits: float) -> float:
        """Plaintext addition contributes only encoding rounding."""
        return _log2_sum(ct_bits, math.log2(self._round))

    def multiply_bits(
        self, lhs_bits: float, lhs_scale: float, rhs_bits: float, rhs_scale: float
    ) -> float:
        """Tensor product: ``B1*M2 + B2*M1 + B1*B2`` with ``Mi = scale_i * bound``."""
        m_lhs = math.log2(max(lhs_scale * self.policy.message_bound, 1.0))
        m_rhs = math.log2(max(rhs_scale * self.policy.message_bound, 1.0))
        cross = _log2_sum(lhs_bits + m_rhs, rhs_bits + m_lhs)
        return _log2_sum(cross, lhs_bits + rhs_bits)

    def multiply_plain_bits(
        self, ct_bits: float, ct_scale: float, plain_scale: float
    ) -> float:
        """Plaintext product: ``B*Mp + Mc*B_round``."""
        m_plain = math.log2(max(plain_scale * self.policy.message_bound, 1.0))
        m_ct = math.log2(max(ct_scale * self.policy.message_bound, 1.0))
        return _log2_sum(ct_bits + m_plain, m_ct + math.log2(self._round))

    def scalar_bits(self, ct_bits: float, magnitude: float) -> float:
        """Integer-scalar product scales the bound by ``|k|``."""
        return ct_bits + math.log2(max(abs(magnitude), 1.0))

    def rescale_bits(self, ct_bits: float, divisor: float) -> float:
        """Rescale divides the noise by the dropped prime and adds rounding."""
        return _log2_sum(ct_bits - math.log2(divisor), math.log2(self._round))

    def keyswitch_bits(self, ct_bits: float) -> float:
        """Key switch (relinearisation / rotation / conjugation) adds B_ks."""
        return _log2_sum(ct_bits, math.log2(self._keyswitch))

    # ---------------------------------------------------------------- budgets
    def level_modulus_bits(self, level: int) -> float:
        """``log2(Q_level)`` of the remaining modulus chain."""
        return self._level_bits[level]

    def budget_bits(self, level: int, noise_bits: float) -> float:
        """Remaining doublings before ``m + e`` wraps ``Q_level``."""
        return self._level_bits[level] - 1.0 - noise_bits

    def guard(self, level: int, noise_bits: float | None) -> None:
        """Warn / raise according to the policy; no-op for untracked ciphertexts."""
        if noise_bits is None or not self.policy.track:
            return
        budget = self.budget_bits(level, noise_bits)
        if budget < self.policy.raise_margin_bits:
            raise NoiseBudgetExhausted(
                f"noise budget exhausted: estimated noise 2^{noise_bits:.1f} "
                f"against remaining modulus 2^{self._level_bits[level]:.1f} at "
                f"level {level} (budget {budget:.1f} bits, raise margin "
                f"{self.policy.raise_margin_bits:.1f}); decoding now would return "
                "garbage -- bootstrap() the ciphertext to refresh its budget"
            )
        if budget < self.policy.warn_margin_bits:
            diagnostics.record_event(
                "noise_budget_low",
                level=level,
                noise_bits=round(noise_bits, 2),
                budget_bits=round(budget, 2),
            )

    def decode_error_bound(self, scale: float, noise_bits: float) -> float:
        """Upper bound on the absolute slot-value error of a decode."""
        return 2.0**noise_bits / scale


@contextmanager
def policy_override(model: NoiseModel, **overrides):
    """Temporarily adjust fields of ``model.policy``, restoring on exit.

    For code that *knowingly* runs past the default guard -- e.g. a
    benchmark's deliberately-wasteful baseline whose worst-case estimate
    trips the raise margin even though its measured decode error is checked
    independently.  Scoped so the relaxation can never leak into served
    requests::

        with policy_override(evaluator.noise, raise_margin_bits=-16.0):
            evaluate_chebyshev_horner(evaluator, series, ct)
    """
    policy = model.policy
    saved = {}
    for name, value in overrides.items():
        if not hasattr(policy, name):
            raise AttributeError(f"NoisePolicy has no field {name!r}")
        saved[name] = getattr(policy, name)
        setattr(policy, name, value)
    try:
        yield model
    finally:
        for name, value in saved.items():
            setattr(policy, name, value)


def _log2_sum(a_bits: float, b_bits: float) -> float:
    """``log2(2**a + 2**b)`` without leaving the log domain."""
    hi, lo = (a_bits, b_bits) if a_bits >= b_bits else (b_bits, a_bits)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))
