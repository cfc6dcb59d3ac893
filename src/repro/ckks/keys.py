"""Key material and key generation for the CKKS scheme.

Key switching uses the hybrid (digit-decomposed) construction the paper's
performance model assumes (Han-Ki, CT-RSA 2020): the top-level ciphertext
chain ``Q_L`` is partitioned once into ``dnum`` digits of ``ceil(L / dnum)``
primes, and the switching key for digit ``j`` encrypts ``P * g_j * s_source``
under the extended modulus ``Q_L * P`` (``P`` is the product of the special
primes, ``g_j`` the digit's gadget factor).  One key serves every level: the
gadget factors are CRT idempotents, so a limb-slice of the key is the key of
the sliced chain, and evaluation at lower levels never needs the secret key
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ckks.params import CkksParameters, digit_partition  # noqa: F401 (re-export)
from repro.errors import MissingKeyError, ParameterError
from repro.numtheory.crt import RnsBasis
from repro.poly.ring import automorphism_eval_indices
from repro.poly.rns_poly import RnsPolynomial, stacked_ntt_forward, stacked_ntt_inverse


@dataclass
class SecretKey:
    """The ternary secret ``s`` stored as signed coefficients.

    Storing the signed coefficients (rather than one RNS image) lets the key
    be re-embedded into any basis (ciphertext chain, extended chain, special
    primes) without loss.
    """

    params: CkksParameters
    coefficients: np.ndarray

    def polynomial(self, basis: RnsBasis) -> RnsPolynomial:
        """The secret as an RNS polynomial over an arbitrary basis."""
        return RnsPolynomial.from_signed_coefficients(self.coefficients, basis)


@dataclass
class PublicKey:
    """An RLWE encryption of zero: ``b = -a*s + e`` over the top-level basis."""

    b: RnsPolynomial
    a: RnsPolynomial


@dataclass
class KeySwitchKey:
    """A hybrid key-switching key from ``s_source`` to the canonical secret ``s``.

    ``stacks`` is the whole key, evaluation-domain resident and read-only: a
    ``(2, D, L + alpha, N)`` uint64 tensor over the top extended basis
    ``q_0..q_{L-1}, p_0..p_{alpha-1}`` whose ``[0, j]`` / ``[1, j]`` slices
    are ``b_j`` / ``a_j``, the pair of digit ``j`` of
    ``params.digit_partition(L)`` -- exactly what the key switch's inner
    products consume.  Level ``l`` is served from views of it
    (:meth:`at_level`); nothing is copied, transformed or cached per level.
    """

    params: CkksParameters
    stacks: np.ndarray

    def __post_init__(self) -> None:
        self.stacks.flags.writeable = False

    def at_level(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The key over ``params.extended_basis(level)`` as two views of
        ``stacks``: its ``(2, D_l, level, N)`` ciphertext limbs and its
        ``(2, D_l, alpha, N)`` special limbs (``D_l`` digits of
        ``params.digit_partition(level)``)."""
        limbs = self.params.limbs
        if not 1 <= level <= limbs:
            raise MissingKeyError(
                f"no key material for level {level} (the chain has {limbs} limbs)"
            )
        digits = len(self.params.digit_partition(level))
        return self.stacks[:, :digits, :level], self.stacks[:, :digits, limbs:]

    def to_coeff(self, level: int) -> list[tuple[RnsPolynomial, RnsPolynomial]]:
        """The level's digit pairs ``(b_j, a_j)`` as coefficient-domain
        polynomials over ``params.extended_basis(level)`` (the oracle's view)."""
        extended = self.params.extended_basis(level)
        b, a = stacked_ntt_inverse(extended, np.concatenate(self.at_level(level), axis=-2))
        return [
            (RnsPolynomial(extended, b_j), RnsPolynomial(extended, a_j))
            for b_j, a_j in zip(b, a)
        ]


@dataclass
class RelinearizationKey(KeySwitchKey):
    """Key switching from ``s**2`` back to ``s`` (used after HE-Mult)."""


@dataclass
class GaloisKey(KeySwitchKey):
    """Key switching from ``automorphism(s, exponent)`` back to ``s``."""

    exponent: int = 1


@dataclass
class GaloisKeySet:
    """A collection of Galois keys indexed by automorphism exponent."""

    keys: dict[int, GaloisKey] = field(default_factory=dict)

    def key_for(self, exponent: int) -> GaloisKey:
        """Look up the Galois key for an automorphism exponent."""
        try:
            return self.keys[exponent]
        except KeyError as exc:
            available = sorted(self.keys)
            raise MissingKeyError(
                f"no Galois key for automorphism exponent {exponent} "
                f"(generated exponents: {available or 'none'}); generate the "
                "exact set the circuit rotates with "
                "KeyGenerator.galois_keys_for_steps("
                "required_rotation_steps(*transforms)) -- see "
                "repro.ckks.linear_transform.required_rotation_steps -- and "
                "register the result with the tenant's evaluator/session"
            ) from exc


@dataclass
class KeyGenerator:
    """Samples the secret and derives public, relinearisation and Galois keys.

    ``hamming_weight`` caps the number of non-zero coefficients of the ternary
    secret (the sparse-secret variant bootstrapping assumes): ModRaise's
    overflow count ``I`` is bounded by ``(||s||_1 + 1) / 2``, so a sparse
    secret directly bounds the interval EvalMod's sine approximation must
    cover.  ``None`` keeps the dense uniform-ternary default.
    """

    params: CkksParameters
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(2024))
    hamming_weight: int | None = None
    secret_key: SecretKey = field(init=False)

    def __post_init__(self) -> None:
        degree = self.params.degree
        if self.hamming_weight is None:
            coefficients = self.rng.integers(-1, 2, size=degree, dtype=np.int64)
        else:
            if not 1 <= self.hamming_weight <= degree:
                raise ParameterError(
                    f"hamming weight must be in [1, {degree}]"
                )
            coefficients = np.zeros(degree, dtype=np.int64)
            support = self.rng.choice(degree, size=self.hamming_weight, replace=False)
            coefficients[support] = self.rng.choice(
                np.array([-1, 1], dtype=np.int64), size=self.hamming_weight
            )
        self.secret_key = SecretKey(params=self.params, coefficients=coefficients)

    # --------------------------------------------------------------- sampling
    def _sample_error(self, basis: RnsBasis) -> RnsPolynomial:
        signed = np.round(
            self.rng.normal(0.0, self.params.error_stddev, size=self.params.degree)
        ).astype(np.int64)
        return RnsPolynomial.from_signed_coefficients(signed, basis)

    def _sample_uniform(self, basis: RnsBasis) -> RnsPolynomial:
        rows = [
            self.rng.integers(0, q, size=self.params.degree, dtype=np.uint64)
            for q in basis.moduli
        ]
        return RnsPolynomial(basis, np.stack(rows, axis=0), "coeff")

    def sample_ternary(self, basis: RnsBasis) -> RnsPolynomial:
        """A fresh ternary polynomial (encryption randomness ``u``)."""
        signed = self.rng.integers(-1, 2, size=self.params.degree, dtype=np.int64)
        return RnsPolynomial.from_signed_coefficients(signed, basis)

    # ------------------------------------------------------------------- keys
    def public_key(self) -> PublicKey:
        """An encryption of zero under the top-level basis."""
        basis = self.params.modulus_basis
        secret = self.secret_key.polynomial(basis)
        a = self._sample_uniform(basis)
        e = self._sample_error(basis)
        b = a.multiply(secret).to_coeff().negate().add(e)
        return PublicKey(b=b, a=a)

    def _secret_eval(self) -> np.ndarray:
        """``s`` over the top extended basis, evaluation domain."""
        extended = self.params.extended_basis(self.params.limbs)
        return self.secret_key.polynomial(extended).to_eval().residues

    def _switching_key(self, secret: np.ndarray, source: np.ndarray) -> np.ndarray:
        """The ``(2, D, L + alpha, N)`` stacks switching ``source`` to ``secret``.

        Both are evaluation-domain residues over the top extended basis.
        ``b_j = -a_j * s + e_j + P * g_j * s_source``, where the gadget factor
        ``g_j = (Q/Q_j) * [(Q/Q_j)^-1]_{Q_j}`` is 1 modulo the digit's limbs
        and 0 modulo every other: ``P * g_j`` is the column ``[P]_{q_i}`` on
        them.  ``a_j`` is uniform and the NTT a bijection, so it is sampled
        in the evaluation domain; only the errors are transformed.
        """
        params = self.params
        extended = params.extended_basis(params.limbs)
        partition = params.digit_partition(params.limbs)
        moduli = extended.moduli_array[:, None]
        gadget = np.zeros((len(partition), extended.size, 1), dtype=np.uint64)
        p_column = params.special_product_column(params.limbs)
        uniform, errors = [], []
        for j, (start, stop) in enumerate(partition):
            gadget[j, start:stop] = p_column[start:stop]
            uniform.append(self._sample_uniform(extended).residues)
            errors.append(self._sample_error(extended).residues)
        a = np.stack(uniform)
        b = stacked_ntt_forward(extended, np.stack(errors))
        b += (gadget * source) % moduli
        b += moduli - (a * secret) % moduli
        b %= moduli
        return np.stack([b, a])

    def relinearization_key(self) -> RelinearizationKey:
        """Key switching from ``s**2`` to ``s``."""
        secret = self._secret_eval()
        moduli = self.params.extended_basis(self.params.limbs).moduli_array[:, None]
        squared = (secret * secret) % moduli
        return RelinearizationKey(self.params, self._switching_key(secret, squared))

    def galois_key(self, exponent: int) -> GaloisKey:
        """Key switching from ``automorphism(s, exponent)`` to ``s``.

        In the evaluation domain the automorphism is a gather of ``s``.
        """
        secret = self._secret_eval()
        rotated = np.take(
            secret, automorphism_eval_indices(self.params.degree, exponent), axis=-1
        )
        return GaloisKey(
            self.params, self._switching_key(secret, rotated), exponent=exponent
        )

    def galois_keys(self, exponents: list[int]) -> GaloisKeySet:
        """Generate a set of Galois keys for the given automorphism exponents."""
        return GaloisKeySet(keys={e: self.galois_key(e) for e in exponents})

    def galois_keys_for_steps(
        self, steps, *, conjugation: bool = False
    ) -> GaloisKeySet:
        """Galois keys for exactly the given slot-rotation step set.

        ``steps`` is any iterable of rotation offsets (for the BSGS engine,
        :func:`repro.ckks.linear_transform.required_rotation_steps` of the
        transforms to be applied).  Steps are deduplicated through their
        Galois exponents ``5**step mod 2N`` and the identity is skipped, so
        the key set is exactly what the rotations need -- no over-generation.
        ``conjugation=True`` additionally includes the conjugation key
        (exponent ``2N - 1``) that CoeffToSlot's real/imaginary split uses.
        """
        order = 2 * self.params.degree
        exponents = {pow(5, int(step), order) for step in steps}
        exponents.discard(1)  # rotation by zero never key-switches
        if conjugation:
            exponents.add(order - 1)
        return self.galois_keys(sorted(exponents))
