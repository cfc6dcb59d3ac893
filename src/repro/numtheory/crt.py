"""Chinese-Remainder-Theorem / Residue-Number-System utilities.

CKKS stores each big-integer polynomial coefficient as its residues modulo a
chain of word-sized primes (the *limbs* of paper Table I).  This module
implements the exact big-integer <-> residue conversions and the ``RnsBasis``
container that the polynomial and CKKS layers build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from repro.numtheory.modular import mod_inv
from repro.numtheory.primes import generate_rns_primes


def inverse_column(value: int, moduli: tuple[int, ...]) -> np.ndarray:
    """Per-limb ``value^{-1} mod q_i`` as a read-only (L, 1) uint64 column.

    The RNS divisions (rescale, ModDown) multiply a whole residue matrix by
    it on every call, so they memoise it on the chain that owns their bases
    (`repro.poly.rns_poly.chain_constant`).
    """
    inverses = np.array([mod_inv(value % q, q) for q in moduli], dtype=np.uint64)[:, None]
    inverses.flags.writeable = False
    return inverses


def crt_decompose(value: int, moduli: list[int]) -> list[int]:
    """Return the residues of ``value`` modulo each modulus in ``moduli``."""
    return [value % q for q in moduli]


def crt_compose(residues: list[int], moduli: list[int]) -> int:
    """Reconstruct the unique value in ``[0, prod(moduli))`` from its residues."""
    if len(residues) != len(moduli):
        raise ValueError("residue and modulus lists must have equal length")
    total_modulus = reduce(lambda a, b: a * b, moduli, 1)
    value = 0
    for residue, modulus in zip(residues, moduli):
        partial = total_modulus // modulus
        value += residue * partial * mod_inv(partial, modulus)
    return value % total_modulus


@dataclass(frozen=True)
class RnsBasis:
    """An ordered set of pairwise-coprime NTT-friendly primes (paper's ``B``).

    Attributes
    ----------
    moduli:
        The primes ``q_0 ... q_{L-1}``.
    degree:
        Polynomial degree ``N`` the basis was generated for (each prime is
        congruent to 1 modulo ``2N``).
    chain:
        The moduli of the chain ``Q_L·P`` owning the basis' NTT tables and
        constants (`repro.poly.rns_poly.basis_plan`), kept by derived bases;
        ``None`` for a bare basis.  Plain ints, outside equality.
    """

    moduli: tuple[int, ...]
    degree: int
    chain: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.moduli)) != len(self.moduli):
            raise ValueError("RNS moduli must be distinct")
        if not self.moduli:
            raise ValueError("RNS basis needs at least one modulus")
        # Cached read-only moduli vector: the hot limb-wise paths broadcast it
        # on every operation, so it must not be rebuilt per property access.
        # (Stored outside the dataclass fields to keep eq/hash tuple-based.)
        array = np.array(self.moduli, dtype=np.uint64)
        array.flags.writeable = False
        object.__setattr__(self, "_moduli_array", array)

    @classmethod
    def generate(cls, count: int, bits: int, degree: int) -> "RnsBasis":
        """Generate a fresh basis of ``count`` primes of ``bits`` bits each."""
        return cls(moduli=tuple(generate_rns_primes(count, bits, degree)), degree=degree)

    # ------------------------------------------------------------------ views
    @property
    def size(self) -> int:
        """Number of limbs ``L``."""
        return len(self.moduli)

    @property
    def modulus_product(self) -> int:
        """The composite modulus ``Q = prod(q_i)``."""
        return reduce(lambda a, b: a * b, self.moduli, 1)

    @property
    def moduli_array(self) -> np.ndarray:
        """Moduli as a shared read-only uint64 NumPy array (one per limb)."""
        return self._moduli_array

    @cached_property
    def _hat_inverses(self) -> tuple[int, ...]:
        """Per-limb ``(Q / q_i)^{-1} mod q_i`` -- the BConv step-1 constants.

        Built on first use: a big-int product and one inverse per limb that
        level drops and limb slices (:meth:`sub_basis`) never need.
        """
        big_q = self.modulus_product
        return tuple(mod_inv((big_q // q) % q, q) for q in self.moduli)

    # ------------------------------------------------------------- operations
    def hat_inverse(self, index: int) -> int:
        """Return ``(Q / q_index)^{-1} mod q_index`` (paper's ``\\hat q_i^{-1}``)."""
        return self._hat_inverses[index]

    def hat_modulo(self, index: int, target_modulus: int) -> int:
        """Return ``(Q / q_index) mod target_modulus`` (paper's ``[q_i^*]_{p_j}``)."""
        return (self.modulus_product // self.moduli[index]) % target_modulus

    def decompose(self, value: int) -> list[int]:
        """Residues of an integer against every limb modulus."""
        return crt_decompose(value, list(self.moduli))

    def compose(self, residues: list[int]) -> int:
        """Reconstruct an integer in ``[0, Q)`` from per-limb residues."""
        return crt_compose(residues, list(self.moduli))

    def decompose_array(self, values: np.ndarray | list[int]) -> np.ndarray:
        """Vector CRT decomposition: shape (L, len(values)) uint64 residues."""
        rows = [
            np.array([int(v) % q for v in values], dtype=np.uint64)
            for q in self.moduli
        ]
        return np.stack(rows, axis=0)

    def compose_array(self, residues: np.ndarray) -> list[int]:
        """Reconstruct a list of integers from a (L, n) residue matrix.

        For one- and two-limb bases with word-sized moduli the reconstruction
        runs as a fully vectorized Garner step (every intermediate fits
        uint64), which is the hot case for rescaled ciphertexts and plaintext
        decode; larger bases fall back to exact big-integer CRT per column.
        """
        residues = np.asarray(residues)
        if residues.shape[0] != self.size:
            raise ValueError("residue matrix must have one row per limb")
        if (
            self.size <= 2
            and residues.dtype.kind == "u"
            and all(int(q) < (1 << 32) for q in self.moduli)
        ):
            # Signed / object inputs keep the exact big-int path (a negative
            # residue must reduce like a Python int, not wrap through uint64).
            return self._garner_leading(
                residues.astype(np.uint64, copy=False)
            ).tolist()
        return [
            self.compose([int(residues[i, j]) for i in range(self.size)])
            for j in range(residues.shape[1])
        ]

    def _garner_leading(self, residues: np.ndarray) -> np.ndarray:
        """Vectorized Garner reconstruction over the first one or two limbs.

        Values in ``[0, q0)`` (one-limb basis) or ``[0, q0*q1)``; requires
        moduli below ``2**32`` so every intermediate fits uint64.
        """
        q0 = np.uint64(self.moduli[0])
        first = residues[0] % q0
        if self.size == 1:
            return first
        q1 = np.uint64(self.moduli[1])
        inverse = np.uint64(mod_inv(self.moduli[0] % self.moduli[1], self.moduli[1]))
        delta = residues[1] % q1 + (q1 - first % q1)
        delta = np.where(delta >= q1, delta - q1, delta)
        correction = (delta * inverse) % q1
        return first + correction * q0

    def compose_signed_small(self, residues: np.ndarray) -> np.ndarray | None:
        """Centred reconstruction of values that fit the first two limbs.

        For an ``(L >= 3, n)`` uint64 residue matrix over moduli below
        ``2**31``: Garner-combine limbs 0 and 1, centre on ``q0*q1 / 2`` and
        check that the int64 candidate reduces to the stored residue on every
        remaining limb.  The centred representative in ``(-Q/2, Q/2)`` is
        unique, so a candidate that verifies everywhere *is* the signed lift;
        if any entry disagrees (its value needs more than two limbs) the
        result is ``None`` and the caller takes the big-integer CRT.
        """
        residues = np.asarray(residues)
        if (
            self.size < 3
            or residues.ndim != 2
            or residues.dtype != np.uint64
            or any(q >= (1 << 31) for q in self.moduli)
        ):
            return None
        pair = self.moduli[0] * self.moduli[1]
        value = self._garner_leading(residues).astype(np.int64)
        value = np.where(value > pair // 2, value - pair, value)
        rest = self.moduli_array[2:, None].astype(np.int64)
        if not np.array_equal(np.mod(value, rest).astype(np.uint64), residues[2:]):
            return None
        return value

    def sub_basis(self, start: int, stop: int) -> "RnsBasis":
        """The limbs ``start:stop`` (a key-switch digit, a lower level), same chain."""
        return replace(self, moduli=self.moduli[start:stop])

    def drop_last(self, count: int = 1) -> "RnsBasis":
        """Return the basis with the last ``count`` moduli removed (rescaling)."""
        if count >= self.size:
            raise ValueError("cannot drop all moduli from an RNS basis")
        return self.sub_basis(0, self.size - count)

    def extend(self, extra: "RnsBasis") -> "RnsBasis":
        """Concatenate another basis (e.g. the auxiliary basis in key switching)."""
        if extra.degree != self.degree:
            raise ValueError("cannot mix bases generated for different degrees")
        chain = self.chain if self.chain == extra.chain else None
        return RnsBasis(moduli=self.moduli + extra.moduli, degree=self.degree, chain=chain)
