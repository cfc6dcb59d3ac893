"""Negacyclic polynomial ring ``Z_q[x]/(x^N + 1)`` with cached NTT machinery.

``PolyRing`` is the single-limb workhorse used by the RNS polynomial layer and
the CKKS scheme: it owns the modulus and the primitive roots of unity, and
exposes coefficient-domain and evaluation-domain arithmetic with exact
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.numtheory.bitrev import is_power_of_two
from repro.numtheory.modular import mod_inv, primitive_nth_root_of_unity
from repro.numtheory.primes import is_prime
from repro.poly.negacyclic import poly_add, poly_negate, poly_sub
from repro.poly.ntt_engine import NttPlanStack, plan_stack_for
from repro.poly.ntt_engine import supports as engine_supports
from repro.poly.ntt_reference import (
    ntt_forward_negacyclic,
    ntt_inverse_negacyclic,
    ntt_pointwise_multiply,
)


@lru_cache(maxsize=None)
def automorphism_tables(degree: int, exponent: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached (target index, sign-wrap mask) tables for ``x -> x^exponent``.

    Shared by the single-limb and RNS automorphism paths so the permutation
    is computed once per (degree, exponent) pair.
    """
    indices = (np.arange(degree, dtype=np.int64) * exponent) % (2 * degree)
    wrap = indices >= degree
    target = np.where(wrap, indices - degree, indices)
    target.flags.writeable = False
    wrap.flags.writeable = False
    return target, wrap


@lru_cache(maxsize=None)
def automorphism_eval_indices(degree: int, exponent: int) -> np.ndarray:
    """Cached gather table applying ``x -> x^exponent`` in the NTT domain.

    The engine's forward transform evaluates ``a`` at ``psi * omega^j`` in
    natural order, so the automorphism becomes a pure permutation of the
    evaluation points: ``ntt(sigma_k(a))[j] = ntt(a)[(j*k + (k-1)/2) mod N]``
    (using ``psi^k = psi * omega^{(k-1)/2}``).  No sign corrections are needed
    -- which is what lets hoisted rotations permute already-transformed
    key-switch digits instead of paying a fresh forward NTT per rotation.
    """
    exponent %= 2 * degree
    if exponent % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    indices = (
        np.arange(degree, dtype=np.int64) * exponent + (exponent - 1) // 2
    ) % degree
    indices.flags.writeable = False
    return indices


@dataclass
class PolyRing:
    """A single-modulus negacyclic ring with cached NTT roots.

    Attributes
    ----------
    degree:
        Polynomial degree ``N`` (power of two).
    modulus:
        NTT-friendly prime ``q = 1 (mod 2N)``.
    """

    degree: int
    modulus: int
    psi: int = field(init=False)
    omega: int = field(init=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.degree):
            raise ValueError("ring degree must be a power of two")
        if not is_prime(self.modulus):
            raise ValueError("ring modulus must be prime")
        if (self.modulus - 1) % (2 * self.degree) != 0:
            raise ValueError("modulus must be congruent to 1 modulo 2N")
        self.psi = primitive_nth_root_of_unity(2 * self.degree, self.modulus)
        self.omega = pow(self.psi, 2, self.modulus)
        # The cached-plan engine covers every lazy-reduction-sized modulus
        # plus wider moduli whose four-step GEMM split stays exact at this
        # degree; anything beyond keeps the big-int-safe reference path.
        self._plan = (
            plan_stack_for((self.modulus,), self.degree)
            if engine_supports((self.modulus,), self.degree)
            else None
        )

    # --------------------------------------------------------------- sampling
    def random_uniform(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly random ring element (used for public randomness ``a``)."""
        return rng.integers(0, self.modulus, size=self.degree, dtype=np.uint64)

    def random_ternary(self, rng: np.random.Generator) -> np.ndarray:
        """Ternary element with coefficients in {-1, 0, 1} (secret keys)."""
        signed = rng.integers(-1, 2, size=self.degree, dtype=np.int64)
        return self.from_signed(signed)

    def random_gaussian(self, rng: np.random.Generator, stddev: float = 3.2) -> np.ndarray:
        """Discrete-Gaussian-ish error element (rounded normal, stddev 3.2)."""
        signed = np.round(rng.normal(0.0, stddev, size=self.degree)).astype(np.int64)
        return self.from_signed(signed)

    # ------------------------------------------------------------ conversions
    def from_signed(self, values: np.ndarray) -> np.ndarray:
        """Map signed int64 coefficients to residues in ``[0, q)``."""
        values = np.asarray(values, dtype=np.int64)
        return np.mod(values, self.modulus).astype(np.uint64)

    def to_signed(self, values: np.ndarray) -> np.ndarray:
        """Map residues to the centered representatives in ``(-q/2, q/2]``."""
        values = np.asarray(values, dtype=np.uint64).astype(np.int64)
        half = self.modulus // 2
        return np.where(values > half, values - self.modulus, values)

    def zeros(self) -> np.ndarray:
        """The zero element."""
        return np.zeros(self.degree, dtype=np.uint64)

    # ------------------------------------------------------------- arithmetic
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient- or evaluation-domain addition (domain-agnostic)."""
        return poly_add(a, b, self.modulus)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient- or evaluation-domain subtraction."""
        return poly_sub(a, b, self.modulus)

    def negate(self, a: np.ndarray) -> np.ndarray:
        """Additive inverse."""
        return poly_negate(a, self.modulus)

    def scalar_mul(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every coefficient by ``scalar`` modulo ``q``."""
        a = np.asarray(a, dtype=np.uint64)
        return (a * np.uint64(int(scalar) % self.modulus)) % np.uint64(self.modulus)

    def pointwise_mul(self, a_eval: np.ndarray, b_eval: np.ndarray) -> np.ndarray:
        """Evaluation-domain (slot-wise) product."""
        return ntt_pointwise_multiply(a_eval, b_eval, self.modulus)

    def multiply(self, a_coeffs: np.ndarray, b_coeffs: np.ndarray) -> np.ndarray:
        """Full negacyclic product of two coefficient-domain elements."""
        a_eval = self.ntt(a_coeffs)
        b_eval = self.ntt(b_coeffs)
        return self.intt(self.pointwise_mul(a_eval, b_eval))

    # --------------------------------------------------------------------- NTT
    @property
    def plan(self) -> NttPlanStack | None:
        """The cached one-limb NTT plan stack (None for oversized moduli)."""
        return self._plan

    def ntt(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT over the last axis (natural order in/out).

        Runs ``(..., N)`` as ``(..., 1, N)`` through the cached one-limb
        :class:`NttPlanStack` (bit-exact with the reference transform); the
        per-call table-building reference path survives only as the oracle
        and the oversized-modulus fallback.
        """
        if self._plan is not None:
            coeffs = np.asarray(coeffs, dtype=np.uint64)
            return self._plan.forward(coeffs[..., None, :]).reshape(coeffs.shape)
        return ntt_forward_negacyclic(coeffs, self.modulus, self.psi)

    def intt(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT over the last axis."""
        if self._plan is not None:
            evaluations = np.asarray(evaluations, dtype=np.uint64)
            return self._plan.inverse(evaluations[..., None, :]).reshape(
                evaluations.shape
            )
        return ntt_inverse_negacyclic(evaluations, self.modulus, self.psi)

    # ------------------------------------------------------------- utilities
    def automorphism(self, coeffs: np.ndarray, exponent: int) -> np.ndarray:
        """Apply the Galois automorphism ``x -> x^exponent`` in coefficient form.

        ``exponent`` must be odd (a unit modulo ``2N``); this is the primitive
        underlying CKKS slot rotation and conjugation (paper's Automorphism
        kernel, section III-D2).
        """
        if exponent % 2 == 0:
            raise ValueError("automorphism exponent must be odd")
        coeffs = np.asarray(coeffs, dtype=np.uint64)
        target, wrap = automorphism_tables(self.degree, exponent % (2 * self.degree))
        values = np.where(
            wrap,
            (np.uint64(self.modulus) - coeffs) % np.uint64(self.modulus),
            coeffs,
        )
        result = np.empty(self.degree, dtype=np.uint64)
        result[target] = values
        return result

    def inverse_of(self, value: int) -> int:
        """Modular inverse of a scalar in this ring's modulus."""
        return mod_inv(value, self.modulus)
