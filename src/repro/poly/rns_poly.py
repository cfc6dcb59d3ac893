"""RNS (residue-number-system) polynomials: limb-parallel ring elements.

A degree-``N`` polynomial over the composite modulus ``Q = q_0 * ... * q_{L-1}``
is stored as an ``(L, N)`` matrix of residues -- one row (*limb*) per prime.
Addition, multiplication, and the NTT act limb-wise, which is the parallelism
HE accelerators (and the paper's TPU mapping) exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.diagnostics import BoundedLruCache, register_cache
from repro.errors import ParameterError
from repro.numtheory.crt import RnsBasis
from repro.poly.ntt_engine import NttPlanStack, plan_stack_for, register_chain
from repro.poly.ring import PolyRing, automorphism_tables

_RING_CACHE = register_cache(BoundedLruCache(name="rns.rings", capacity=128))

COEFF_DOMAIN = "coeff"
EVAL_DOMAIN = "eval"


def ring_for(degree: int, modulus: int) -> PolyRing:
    """Return a cached ``PolyRing`` for (degree, modulus).

    Root-of-unity discovery is not free, and CKKS touches the same handful of
    limb moduli millions of times, so rings are memoised process-wide.
    """
    return _RING_CACHE.get_or_create(
        (degree, modulus), lambda: PolyRing(degree=degree, modulus=modulus)
    )


def basis_plan(basis: RnsBasis) -> NttPlanStack | None:
    """The stack ``basis`` transforms on: its chain's view, or a chain-less one.

    ``None`` for moduli no backend covers (the reference ring path).  A
    cached stack is returned as is; only a cache miss builds one, whose
    constructor refuses moduli the engine cannot plan exactly.
    """
    if basis.chain is not None:
        return register_chain(basis.chain, basis.degree).view(basis.moduli)
    try:
        return plan_stack_for(basis.moduli, basis.degree)
    except ParameterError:
        return None


def chain_constant(key, bases: tuple[RnsBasis, ...], build):
    """``build()``, memoised on the chain all ``bases`` name (else built afresh)."""
    chain = bases[0].chain
    if chain is None or any(basis.chain != chain for basis in bases[1:]):
        return build()
    owner = register_chain(chain, bases[0].degree)
    return owner.constant((key, *(owner.chain_rows(b.moduli) for b in bases)), build)


def _stacked_transform(
    basis: RnsBasis,
    stacked: np.ndarray,
    forward: bool,
    limbs: slice | None = None,
) -> np.ndarray:
    """Transform a ``(..., L, N)`` stacked-operand tensor over ``basis``.

    The hot path is a single :class:`NttPlanStack` pass with the leading axes
    riding along as batch dimensions; oversized moduli fall back to the exact
    per-limb ring transforms (row by row, since the reference path only
    guarantees 1-D inputs).  With ``limbs`` (a slice of the limb axis) the
    tensor holds only those limbs of the basis.  The pass runs on the tables
    of the basis' chain (:func:`basis_plan`).
    """
    stacked = np.asarray(stacked, dtype=np.uint64)
    moduli = basis.moduli if limbs is None else basis.moduli[limbs]
    if stacked.ndim < 2 or stacked.shape[-2:] != (len(moduli), basis.degree):
        raise ValueError(
            f"stacked tensor has shape {stacked.shape}, expected "
            f"(..., {len(moduli)}, {basis.degree})"
        )
    stack = basis_plan(basis)
    if stack is not None:
        transform = stack.forward if forward else stack.inverse
        return transform(stacked, limbs)
    out = np.empty_like(stacked)
    flat_in = stacked.reshape(-1, len(moduli), basis.degree)
    flat_out = out.reshape(-1, len(moduli), basis.degree)
    for batch in range(flat_in.shape[0]):
        for i, q in enumerate(moduli):
            ring = ring_for(basis.degree, q)
            transform = ring.ntt if forward else ring.intt
            flat_out[batch, i] = transform(flat_in[batch, i])
    return out


def stacked_ntt_forward(
    basis: RnsBasis, stacked: np.ndarray, limbs: slice | None = None
) -> np.ndarray:
    """Forward NTT of every ``(L, N)`` slice of a stacked-operand tensor.

    ``limbs``: the tensor's limb axis holds only ``basis.moduli[limbs]``.
    """
    return _stacked_transform(basis, stacked, True, limbs)


def stacked_ntt_inverse(
    basis: RnsBasis, stacked: np.ndarray, limbs: slice | None = None
) -> np.ndarray:
    """Inverse NTT of every ``(L, N)`` slice of a stacked-operand tensor."""
    return _stacked_transform(basis, stacked, False, limbs)


@dataclass
class RnsPolynomial:
    """A ring element of ``R_Q`` stored limb-wise.

    Attributes
    ----------
    basis:
        The RNS basis whose moduli index the rows of ``residues``.
    residues:
        ``(..., L, N)`` uint64 residue tensor.  The trailing two axes are the
        limb and coefficient axes; any leading axes are stacked operands (a
        ciphertext batch) that every operation carries through unchanged --
        the arithmetic below is written against the trailing axes only, so a
        batched element behaves exactly like ``B`` independent ``(L, N)``
        elements.
    domain:
        Either ``"coeff"`` (coefficient domain) or ``"eval"`` (NTT domain).
    """

    basis: RnsBasis
    residues: np.ndarray
    domain: str = COEFF_DOMAIN

    def __post_init__(self) -> None:
        self.residues = np.asarray(self.residues, dtype=np.uint64)
        expected = (self.basis.size, self.basis.degree)
        if self.residues.ndim < 2 or self.residues.shape[-2:] != expected:
            raise ValueError(
                f"residue matrix has shape {self.residues.shape}, expected "
                f"(..., {expected[0]}, {expected[1]})"
            )
        if self.domain not in (COEFF_DOMAIN, EVAL_DOMAIN):
            raise ValueError(f"unknown domain {self.domain!r}")

    # ---------------------------------------------------------- constructors
    @classmethod
    def zero(cls, basis: RnsBasis, domain: str = COEFF_DOMAIN) -> "RnsPolynomial":
        """The all-zero element."""
        return cls(basis, np.zeros((basis.size, basis.degree), dtype=np.uint64), domain)

    @classmethod
    def from_int_coefficients(
        cls, coefficients: list[int] | np.ndarray, basis: RnsBasis
    ) -> "RnsPolynomial":
        """Build a coefficient-domain element from (possibly huge) integers."""
        coefficients = list(coefficients)
        if len(coefficients) != basis.degree:
            raise ValueError("coefficient count must equal the ring degree")
        residues = basis.decompose_array(coefficients)
        return cls(basis, residues, COEFF_DOMAIN)

    @classmethod
    def from_signed_coefficients(
        cls, coefficients: np.ndarray, basis: RnsBasis
    ) -> "RnsPolynomial":
        """Build from small signed integers (secrets, errors, plaintexts)."""
        coefficients = np.asarray(coefficients, dtype=np.int64)
        rows = [
            np.mod(coefficients, q).astype(np.uint64) for q in basis.moduli
        ]
        return cls(basis, np.stack(rows, axis=0), COEFF_DOMAIN)

    def copy(self) -> "RnsPolynomial":
        """Deep copy."""
        return RnsPolynomial(self.basis, self.residues.copy(), self.domain)

    # ---------------------------------------------------------------- queries
    @property
    def degree(self) -> int:
        """Ring degree N."""
        return self.basis.degree

    @property
    def limb_count(self) -> int:
        """Number of limbs L."""
        return self.basis.size

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """Leading (stacked-operand) axes; ``()`` for a plain element."""
        return self.residues.shape[:-2]

    def limb(self, index: int) -> np.ndarray:
        """Residue row(s) for limb ``index``."""
        return self.residues[..., index, :]

    def ring(self, index: int) -> PolyRing:
        """The single-limb ring for limb ``index``."""
        return ring_for(self.basis.degree, self.basis.moduli[index])

    def to_int_coefficients(self) -> list[int]:
        """CRT-reconstruct the coefficients as integers in ``[0, Q)``.

        Requires the coefficient domain (convert with :meth:`to_coeff` first).
        """
        if self.domain != COEFF_DOMAIN:
            raise ValueError("reconstruction requires the coefficient domain")
        if self.residues.ndim != 2:
            raise ValueError(
                "reconstruction requires a plain (L, N) element; index the "
                "batch axis first"
            )
        return self.basis.compose_array(self.residues)

    def to_signed_coefficients(self) -> list[int]:
        """CRT-reconstruct with centered (signed) representatives.

        Small values under a long modulus chain -- secrets, errors, decrypted
        plaintexts -- take :meth:`RnsBasis.compose_signed_small` (vectorised,
        verified on every limb); everything else the per-coefficient
        big-integer CRT.
        """
        if self.domain == COEFF_DOMAIN:
            small = self.basis.compose_signed_small(self.residues)
            if small is not None:
                return small.tolist()
        big_q = self.basis.modulus_product
        half = big_q // 2
        values = self.to_int_coefficients()
        if big_q < (1 << 63):
            # Every reconstructed coefficient fits int64: center vectorized.
            centered = np.asarray(values, dtype=np.int64)
            return np.where(centered > half, centered - big_q, centered).tolist()
        return [c - big_q if c > half else c for c in values]

    # ------------------------------------------------------------ domain flip
    def to_eval(self) -> "RnsPolynomial":
        """Return the NTT-domain version (no-op if already there).

        ``RnsPolynomial`` is treated as immutable everywhere, so the no-op
        branch returns ``self`` rather than a deep copy.  The conversion runs
        all limbs through one stacked engine pass.
        """
        if self.domain == EVAL_DOMAIN:
            return self
        residues = _stacked_transform(self.basis, self.residues, forward=True)
        return RnsPolynomial(self.basis, residues, EVAL_DOMAIN)

    def to_coeff(self) -> "RnsPolynomial":
        """Return the coefficient-domain version (no-op if already there)."""
        if self.domain == COEFF_DOMAIN:
            return self
        residues = _stacked_transform(self.basis, self.residues, forward=False)
        return RnsPolynomial(self.basis, residues, COEFF_DOMAIN)

    # ------------------------------------------------------------- arithmetic
    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.basis.moduli != other.basis.moduli:
            raise ValueError("operands live in different RNS bases")
        if self.domain != other.domain:
            raise ValueError("operands live in different domains")

    def add(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Limb-wise addition (works in either domain).

        Residues are kept reduced everywhere, so the sum is below ``2q`` and a
        conditional subtract replaces the full ``%`` reduction (lazy-reduction
        hot path).
        """
        self._check_compatible(other)
        moduli = self.basis.moduli_array[:, None]
        total = self.residues + other.residues
        residues = np.where(total >= moduli, total - moduli, total)
        return RnsPolynomial(self.basis, residues, self.domain)

    def sub(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Limb-wise subtraction (conditional-subtract reduction)."""
        self._check_compatible(other)
        moduli = self.basis.moduli_array[:, None]
        total = self.residues + (moduli - other.residues)
        residues = np.where(total >= moduli, total - moduli, total)
        return RnsPolynomial(self.basis, residues, self.domain)

    def negate(self) -> "RnsPolynomial":
        """Additive inverse."""
        moduli = self.basis.moduli_array[:, None]
        residues = np.where(self.residues == 0, self.residues, moduli - self.residues)
        return RnsPolynomial(self.basis, residues, self.domain)

    def scalar_mul(self, scalar: int) -> "RnsPolynomial":
        """Multiply by an integer scalar (one batched pass over all limbs)."""
        moduli = self.basis.moduli_array[:, None]
        scalars = np.array(
            [int(scalar) % q for q in self.basis.moduli], dtype=np.uint64
        )[:, None]
        residues = (self.residues * scalars) % moduli
        return RnsPolynomial(self.basis, residues, self.domain)

    def multiply(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Negacyclic product; result is returned in the evaluation domain.

        Operands may live in different domains (each is transformed as
        needed), which lets callers hoist ``to_eval`` for reused operands
        without converting the partner.
        """
        if self.basis.moduli != other.basis.moduli:
            raise ValueError("operands live in different RNS bases")
        a_eval = self if self.domain == EVAL_DOMAIN else self.to_eval()
        b_eval = other if other.domain == EVAL_DOMAIN else other.to_eval()
        moduli = self.basis.moduli_array[:, None]
        residues = (a_eval.residues * b_eval.residues) % moduli
        return RnsPolynomial(self.basis, residues, EVAL_DOMAIN)

    def automorphism(self, exponent: int) -> "RnsPolynomial":
        """Apply the Galois automorphism to all limbs in one batched gather."""
        if exponent % 2 == 0:
            raise ValueError("automorphism exponent must be odd")
        source = self.to_coeff()
        target, wrap = automorphism_tables(self.degree, exponent % (2 * self.degree))
        moduli = self.basis.moduli_array[:, None]
        negated = np.where(source.residues == 0, source.residues, moduli - source.residues)
        values = np.where(wrap, negated, source.residues)
        residues = np.empty_like(source.residues)
        residues[..., target] = values
        return RnsPolynomial(self.basis, residues, COEFF_DOMAIN)

    # --------------------------------------------------------- basis surgery
    def keep_limbs(self, count: int) -> "RnsPolynomial":
        """Truncate to the first ``count`` limbs (no value correction)."""
        if not 1 <= count <= self.limb_count:
            raise ValueError("invalid limb count")
        basis = self.basis.sub_basis(0, count)
        return RnsPolynomial(basis, self.residues[..., :count, :].copy(), self.domain)
