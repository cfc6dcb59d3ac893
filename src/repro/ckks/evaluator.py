"""The CKKS evaluator: the HE operators the paper benchmarks.

Implements HE-Add, HE-Mult (with relinearisation), plaintext multiplication,
Rescale, Rotate and Conjugate on top of the RNS polynomial substrate and the
hybrid key switch.  All operators follow the textbook CKKS-RNS formulations;
the CROSS transformations (BAT/MAT) are mathematically lossless so this
evaluator doubles as the correctness oracle for the compiled kernels, exactly
as the paper verifies its implementation against OpenFHE.

Guardrails: every public operator validates its operands on entry (ring
identity, level range, scale, component-domain coherence) and raises a typed
:class:`~repro.errors.ReproError` instead of failing deep inside NumPy
broadcasting, and every produced ciphertext carries a propagated noise-budget
estimate (see :mod:`repro.ckks.noise`) that is guarded against exhaustion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.encoding import constant_coefficients
from repro.ckks.keys import GaloisKey, GaloisKeySet, RelinearizationKey
from repro.ckks.keyswitch import (
    decompose_to_eval,
    switch_extended_eval,
    switch_key,
)
from repro.cancellation import checkpoint
from repro.ckks.noise import NoiseModel
from repro.ckks.params import CkksParameters
from repro.errors import (
    IncompatibleOperands,
    LevelExhausted,
    MissingKeyError,
    ParameterError,
    ScaleOverflow,
    operand_signature,
)
from repro.numtheory.crt import inverse_column
from repro.poly import fused_kernels, gemm_mod
from repro.poly.ring import automorphism_eval_indices
from repro.poly.rns_poly import EVAL_DOMAIN, RnsPolynomial, chain_constant


@lru_cache(maxsize=4096)
def _rotation_exponent(steps: int, degree: int) -> int:
    """Memoised Galois exponent ``5**steps mod 2N`` for a slot rotation."""
    return pow(5, steps, 2 * degree)


@dataclass
class HoistedCiphertext:
    """A ciphertext with its key-switch decomposition precomputed for reuse.

    Hoisting runs the expensive, rotation-independent half of a rotation once
    -- digit decomposition, stacked BConv and the batched forward NTT of
    ``c1``'s extended digits -- and keeps the evaluation-domain digit tensor.
    Each subsequent :meth:`CkksEvaluator.rotate_hoisted` then only permutes
    the tensor (the automorphism commutes to after BConv and is a pure gather
    in the NTT domain), takes the key inner products and pays ModDown's one
    stacked inverse pass, amortising the decomposition across a whole
    rotation batch (baby-step/giant-step matrix-vector products, taps).
    """

    ciphertext: Ciphertext
    digits_eval: np.ndarray
    level: int


@dataclass
class CkksEvaluator:
    """Homomorphic operator implementations for one parameter set.

    Every HE operator increments a per-instance operation counter (keyed by
    the schedule-model operator names: ``he_add``, ``he_mult``, ``plain_mult``,
    ``scalar_mult``, ``rotate``, ``rescale``), so cost models can be grounded
    in *measured* counts instead of analytic guesses -- the same pattern the
    NTT engine uses for its transform-pass counters.  The same operator set
    drives the per-ciphertext noise propagation.
    """

    params: CkksParameters
    relin_key: RelinearizationKey | None = None
    galois_keys: GaloisKeySet | None = None
    operation_counts: dict = None
    _noise_model: NoiseModel | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.operation_counts is None:
            self.operation_counts = {}

    @property
    def noise(self) -> NoiseModel:
        """The deterministic noise model used for budget propagation."""
        if self._noise_model is None:
            self._noise_model = NoiseModel(self.params)
        return self._noise_model

    def _count(self, operator: str, weight: int = 1) -> None:
        self.operation_counts[operator] = (
            self.operation_counts.get(operator, 0) + weight
        )

    @staticmethod
    def _batch_weight(ciphertext) -> int:
        """Logical operation multiplicity of one call on a (possibly) batched
        ciphertext: a ``(B, 2, L, N)`` stack performs B members' worth of work
        in one kernel pass, and the measured counters track logical operations
        so schedule models stay grounded regardless of batching."""
        weight = 1
        for dim in ciphertext.c0.batch_shape:
            weight *= int(dim)
        return weight

    def count_operation(self, operator: str, weight: int = 1) -> None:
        """Record an operator executed outside the evaluator's own methods.

        The BSGS engine key-switches its baby and giant steps through the
        :mod:`repro.ckks.keyswitch` primitives directly; it reports them
        here so measured rotation counts cover the whole transform.
        ``weight`` carries the batch multiplicity for stacked ciphertexts.
        """
        self._count(operator, weight)

    def _galois_operator(self, exponent: int) -> str:
        """Counter bucket for an automorphism (conjugation is not a rotation)."""
        if exponent == 2 * self.params.degree - 1:
            return "conjugate"
        return "rotate"

    def reset_operation_counts(self) -> None:
        """Zero the measured operator counters."""
        self.operation_counts.clear()

    # ------------------------------------------------------------- validation
    def validate(self, operand, *, name: str = "operand") -> None:
        """Entry check for one ciphertext or plaintext operand.

        Verifies the level range, the ring identity against this evaluator's
        parameter set, the scale, and (for ciphertexts) that the component
        polynomials agree on basis and domain -- so misuse surfaces as a
        typed error at the operator boundary instead of a NumPy broadcasting
        failure three stack frames down.

        Doubles as the cooperative-cancellation checkpoint: every public
        operator validates on entry, so a served request whose deadline
        passed (or whose scope was cancelled by a drain) aborts between HE
        operations of an arbitrarily deep circuit instead of running to
        completion unobserved.
        """
        checkpoint()
        level = getattr(operand, "level", None)
        if not isinstance(level, int) or not 1 <= level <= self.params.limbs:
            raise LevelExhausted(
                f"{name} level {level!r} outside the modulus chain "
                f"[1, {self.params.limbs}]: {operand_signature(operand)}"
            )
        scale = getattr(operand, "scale", None)
        if not scale or not math.isfinite(scale) or scale <= 0:
            raise ParameterError(
                f"{name} scale {scale!r} is not a positive finite number: "
                f"{operand_signature(operand)}"
            )
        expected = self.params.modulus_basis.moduli[:level]
        if isinstance(operand, Ciphertext):
            polys = [("c0", operand.c0), ("c1", operand.c1)]
            if operand.c2 is not None:
                polys.append(("c2", operand.c2))
        else:
            polys = [("poly", operand.poly)]
        domain = polys[0][1].domain
        for part, poly in polys:
            moduli = poly.basis.moduli
            if moduli[:level] != expected or (
                isinstance(operand, Ciphertext) and moduli != expected
            ):
                raise IncompatibleOperands(
                    f"{name}.{part} ring does not match the evaluator's "
                    f"modulus chain at level {level}",
                    operand,
                    self.params,
                )
            if poly.basis.degree != self.params.degree:
                raise IncompatibleOperands(
                    f"{name}.{part} ring degree {poly.basis.degree} does not "
                    f"match the evaluator degree {self.params.degree}",
                    operand,
                    self.params,
                )
            if poly.domain != domain:
                raise IncompatibleOperands(
                    f"{name} components disagree on domain: "
                    f"{polys[0][0]}={domain!r} vs {part}={poly.domain!r}",
                    operand,
                    operand,
                )
            if gemm_mod.is_strict():
                # Strict mode: residues must be canonical representatives.
                # Catches payload corruption (bit flips, bad kernels) that
                # pushed a residue to or past its modulus.
                limits = np.asarray(poly.basis.moduli_array)[:, None]
                if np.any(poly.residues >= limits):
                    raise IncompatibleOperands(
                        f"{name}.{part} carries non-canonical residues "
                        "(some residue >= its modulus); the payload is "
                        "corrupted or was produced by an unreduced kernel",
                        operand,
                    )

    def _stamp(
        self, ciphertext: Ciphertext, noise_bits: float | None
    ) -> Ciphertext:
        """Attach a propagated noise estimate and guard the budget."""
        if noise_bits is not None:
            self.noise.guard(ciphertext.level, noise_bits)
        ciphertext.noise_bits = noise_bits
        return ciphertext

    # ------------------------------------------------------------------- add
    def add(self, lhs: Ciphertext, rhs: Ciphertext) -> Ciphertext:
        """HE-Add: limb-wise addition of two ciphertexts at the same level."""
        self.validate(lhs, name="lhs")
        self.validate(rhs, name="rhs")
        self._check_compatible(lhs, rhs)
        self._count("he_add", self._batch_weight(lhs))
        return self._stamp(
            Ciphertext(
                c0=lhs.c0.add(rhs.c0),
                c1=lhs.c1.add(rhs.c1),
                scale=lhs.scale,
                level=lhs.level,
            ),
            self._add_noise(lhs, rhs),
        )

    def sub(self, lhs: Ciphertext, rhs: Ciphertext) -> Ciphertext:
        """Ciphertext subtraction."""
        self.validate(lhs, name="lhs")
        self.validate(rhs, name="rhs")
        self._check_compatible(lhs, rhs)
        self._count("he_add", self._batch_weight(lhs))
        return self._stamp(
            Ciphertext(
                c0=lhs.c0.sub(rhs.c0),
                c1=lhs.c1.sub(rhs.c1),
                scale=lhs.scale,
                level=lhs.level,
            ),
            self._add_noise(lhs, rhs),
        )

    def add_plain(self, ciphertext: Ciphertext, plaintext: Plaintext) -> Ciphertext:
        """Add an encoded plaintext into a ciphertext.

        The plaintext's scale must match the ciphertext's: adding operands at
        different scales silently mis-weights one of them (the old behaviour),
        so a mismatch now raises with both scales in the message.
        """
        self.validate(ciphertext, name="ciphertext")
        self.validate(plaintext, name="plaintext")
        if not np.isclose(plaintext.scale, ciphertext.scale, rtol=1e-9):
            raise IncompatibleOperands(
                f"plaintext scale {plaintext.scale:.6g} does not match "
                f"ciphertext scale {ciphertext.scale:.6g}; re-encode at the "
                "ciphertext's scale",
                ciphertext,
                plaintext,
            )
        poly = _match_level(plaintext.poly, ciphertext.level)
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.add_plain_bits(ciphertext.noise_bits)
        return self._stamp(
            Ciphertext(
                c0=ciphertext.c0.add(poly),
                c1=ciphertext.c1.copy(),
                scale=ciphertext.scale,
                level=ciphertext.level,
            ),
            noise,
        )

    # -------------------------------------------------------------- multiply
    def multiply(
        self, lhs: Ciphertext, rhs: Ciphertext, *, relinearize: bool = True
    ) -> Ciphertext:
        """HE-Mult: tensor product followed (optionally) by relinearisation.

        Each operand component is transformed to the evaluation domain once
        and reused across the three tensor terms (the naive formulation pays
        eight forward passes where four suffice).  The tensor product stays
        in the evaluation domain for :meth:`relinearize` (own-limb skip for
        ``d2``, lazy relinearisation for ``d0``/``d1``); it leaves here only
        if the caller keeps it.
        """
        self.validate(lhs, name="lhs")
        self.validate(rhs, name="rhs")
        self._check_compatible(lhs, rhs, check_scale=False)
        self._count("he_mult", self._batch_weight(lhs))
        a0, a1 = lhs.c0.to_eval(), lhs.c1.to_eval()
        b0, b1 = rhs.c0.to_eval(), rhs.c1.to_eval()
        d0 = a0.multiply(b0)
        d1 = a0.multiply(b1).add(a1.multiply(b0))
        d2 = a1.multiply(b1)
        if not relinearize:
            d0, d1, d2 = d0.to_coeff(), d1.to_coeff(), d2.to_coeff()
        noise = None
        if lhs.noise_bits is not None and rhs.noise_bits is not None:
            noise = self.noise.multiply_bits(
                lhs.noise_bits, lhs.scale, rhs.noise_bits, rhs.scale
            )
        product = self._stamp(
            Ciphertext(
                c0=d0,
                c1=d1,
                c2=d2,
                scale=lhs.scale * rhs.scale,
                level=lhs.level,
            ),
            noise,
        )
        if relinearize:
            return self.relinearize(product)
        return product

    def multiply_plain(self, ciphertext: Ciphertext, plaintext: Plaintext) -> Ciphertext:
        """Multiply a ciphertext by an encoded plaintext.

        Three transform calls: the plaintext's forward, then one forward and
        one inverse of the stacked ``(c0, c1)`` pair (:func:`_pair`).

        The product scale must stay inside the remaining modulus budget --
        a product whose scale exceeds ``Q_level`` can never be rescaled back
        and decodes to garbage, so it is rejected here as a typed error.
        """
        self.validate(ciphertext, name="ciphertext")
        self.validate(plaintext, name="plaintext")
        self._check_scale_headroom(
            ciphertext, plaintext, ciphertext.scale * plaintext.scale
        )
        self._count("plain_mult", self._batch_weight(ciphertext))
        poly = _match_level(plaintext.poly, ciphertext.level).to_eval()
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.multiply_plain_bits(
                ciphertext.noise_bits, ciphertext.scale, plaintext.scale
            )
        # The plaintext gets a unit pair axis to broadcast over (c0, c1).
        poly = RnsPolynomial(poly.basis, poly.residues[..., None, :, :], EVAL_DOMAIN)
        c0, c1 = _halves(_pair(ciphertext).multiply(poly).to_coeff())
        return self._stamp(
            Ciphertext(
                c0=c0,
                c1=c1,
                scale=ciphertext.scale * plaintext.scale,
                level=ciphertext.level,
            ),
            noise,
        )

    def square(self, ciphertext: Ciphertext) -> Ciphertext:
        """Homomorphic squaring, specialised for the shared operand.

        The generic tensor product computes four evaluation-domain products
        (``c0*c0``, ``c0*c1``, ``c1*c0``, ``c1*c1``) and re-transforms each
        operand per product; squaring needs only three -- the cross term is
        ``d1 = 2 * c0 * c1``, a doubling add -- over operands transformed
        once, in one stacked forward call.  Bit-identical to
        ``multiply(ct, ct)``.
        """
        self.validate(ciphertext, name="ciphertext")
        self._count("he_mult", self._batch_weight(ciphertext))
        c0_eval, c1_eval = _halves(_pair(ciphertext).to_eval())
        # All three stay in the evaluation domain for relinearize().
        d0 = c0_eval.multiply(c0_eval)
        cross = c0_eval.multiply(c1_eval)
        d1 = cross.add(cross)
        d2 = c1_eval.multiply(c1_eval)
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.multiply_bits(
                ciphertext.noise_bits,
                ciphertext.scale,
                ciphertext.noise_bits,
                ciphertext.scale,
            )
        product = self._stamp(
            Ciphertext(
                c0=d0,
                c1=d1,
                c2=d2,
                scale=ciphertext.scale * ciphertext.scale,
                level=ciphertext.level,
            ),
            noise,
        )
        return self.relinearize(product)

    def relinearize(self, ciphertext: Ciphertext) -> Ciphertext:
        """Fold the quadratic component ``c2`` back into a linear ciphertext.

        Every component may be in either domain (``multiply``/``square``
        hand theirs over still in the evaluation domain); the result is the
        same bit for bit.  An evaluation-domain ``c2`` costs ``level`` fewer
        forward limb rows (see :func:`repro.ckks.keyswitch.decompose_to_eval`);
        evaluation-domain ``c0``/``c1`` are relinearised lazily -- added into
        the key switch's accumulators before their one stacked exit
        (``addend`` of :func:`repro.ckks.keyswitch.switch_extended_eval`)
        instead of each paying ``level`` inverse rows of its own.
        """
        if ciphertext.c2 is None:
            return ciphertext.copy()
        if self.relin_key is None:
            raise MissingKeyError(
                "relinearisation requires a relinearisation key; construct the "
                "evaluator with relin_key=KeyGenerator.relinearization_key()"
            )
        level = ciphertext.level
        c0, c1 = ciphertext.c0, ciphertext.c1
        digits = decompose_to_eval(ciphertext.c2, self.params, level)
        if c0.domain == c1.domain == EVAL_DOMAIN:
            c0, c1 = switch_extended_eval(
                digits,
                self.relin_key,
                self.params,
                level,
                addend=(c0.residues, c1.residues),
            )
        else:
            ks0, ks1 = switch_extended_eval(digits, self.relin_key, self.params, level)
            c0, c1 = c0.add(ks0), c1.add(ks1)
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.keyswitch_bits(ciphertext.noise_bits)
        return self._stamp(
            Ciphertext(c0=c0, c1=c1, scale=ciphertext.scale, level=level),
            noise,
        )

    # --------------------------------------------------------------- rescale
    def rescale(self, ciphertext: Ciphertext) -> Ciphertext:
        """Divide by the last prime of the chain and drop one limb."""
        self.validate(ciphertext, name="ciphertext")
        level = ciphertext.level
        if level <= 1:
            raise LevelExhausted(
                "cannot rescale a ciphertext at the last level: the modulus "
                "chain is exhausted -- bootstrap() to refresh levels"
            )
        self._count("rescale", self._batch_weight(ciphertext))
        new_level = level - 1
        last_modulus = self.params.modulus_basis.moduli[level - 1]
        c0 = _rescale_poly(ciphertext.c0, self.params, level)
        c1 = _rescale_poly(ciphertext.c1, self.params, level)
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.rescale_bits(
                ciphertext.noise_bits, float(last_modulus)
            )
        return self._stamp(
            Ciphertext(
                c0=c0,
                c1=c1,
                scale=ciphertext.scale / last_modulus,
                level=new_level,
            ),
            noise,
        )

    def level_down(self, ciphertext: Ciphertext, levels: int = 1) -> Ciphertext:
        """Drop limbs without dividing (modulus switching for level alignment)."""
        self.validate(ciphertext, name="ciphertext")
        new_level = ciphertext.level - levels
        if new_level < 1:
            raise LevelExhausted(
                f"cannot drop {levels} level(s) from level {ciphertext.level}: "
                "at least one limb must remain"
            )
        return self._stamp(
            Ciphertext(
                c0=ciphertext.c0.to_coeff().keep_limbs(new_level),
                c1=ciphertext.c1.to_coeff().keep_limbs(new_level),
                scale=ciphertext.scale,
                level=new_level,
            ),
            ciphertext.noise_bits,
        )

    # ----------------------------------------------- scalar + alignment ops
    def mul_plain_scalar(
        self,
        ciphertext: Ciphertext,
        scalar: float,
        *,
        plain_scale: float | None = None,
    ) -> Ciphertext:
        """Multiply by a real scalar encoded as a single integer (no NTT).

        The scalar is carried as ``round(scalar * plain_scale)`` and the
        result's scale becomes ``scale * plain_scale``, so a subsequent
        :meth:`rescale` restores the original scale when ``plain_scale`` is
        the level's prime (the default for ``level > 1``).  This is the cheap
        path polynomial evaluation uses for its coefficient multiplications:
        one batched limb-wise multiply, no encoding and no transform.
        """
        self.validate(ciphertext, name="ciphertext")
        if plain_scale is None:
            if ciphertext.level > 1:
                plain_scale = float(
                    self.params.modulus_basis.moduli[ciphertext.level - 1]
                )
            else:
                plain_scale = self.params.scale
        self._count("scalar_mult", self._batch_weight(ciphertext))
        integer = int(round(float(scalar) * plain_scale))
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.scalar_bits(ciphertext.noise_bits, float(integer))
        return self._stamp(
            Ciphertext(
                c0=ciphertext.c0.scalar_mul(integer),
                c1=ciphertext.c1.scalar_mul(integer),
                scale=ciphertext.scale * plain_scale,
                level=ciphertext.level,
            ),
            noise,
        )

    def add_scalar(self, ciphertext: Ciphertext, scalar: complex) -> Ciphertext:
        """Add a constant to every slot (exact, no encoder round trip).

        The constant plaintext is built directly in coefficient space
        (:func:`repro.ckks.encoding.constant_coefficients`) instead of
        running the encoder's dense embedding.
        """
        self.validate(ciphertext, name="ciphertext")
        coefficients = constant_coefficients(
            scalar, ciphertext.scale, self.params.degree
        )
        basis = self.params.basis_at_level(ciphertext.level)
        poly = RnsPolynomial.from_signed_coefficients(coefficients, basis)
        self._count("he_add", self._batch_weight(ciphertext))
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.add_plain_bits(ciphertext.noise_bits)
        return self._stamp(
            Ciphertext(
                c0=ciphertext.c0.to_coeff().add(poly),
                c1=ciphertext.c1.copy(),
                scale=ciphertext.scale,
                level=ciphertext.level,
            ),
            noise,
        )

    def sub_scalar(self, ciphertext: Ciphertext, scalar: complex) -> Ciphertext:
        """Subtract a constant from every slot."""
        return self.add_scalar(ciphertext, -complex(scalar))

    def rescale_to(
        self, ciphertext: Ciphertext, level: int, scale: float | None = None
    ) -> Ciphertext:
        """Bring a ciphertext to ``(level, scale)`` exactly.

        Multiplies by the integer constant ``round(f)`` with
        ``f = scale * (dropped primes) / ciphertext.scale`` and rescales the
        level gap away, then stamps the target scale (the float-rounding
        mismatch between the stamped and carried scale is ``< 2^-29``
        relative, far below the noise floor).  This is the alignment
        primitive that lets polynomial evaluation add and multiply
        ciphertexts from different depths of the computation.
        """
        self.validate(ciphertext, name="ciphertext")
        scale = ciphertext.scale if scale is None else float(scale)
        if not 1 <= level <= ciphertext.level:
            raise LevelExhausted(
                f"cannot raise level {ciphertext.level} to {level}"
            )
        if level < ciphertext.level - 1:
            # Truncating limbs is a value-preserving modulus switch, so all
            # but the last dropped level is plain truncation and only the
            # final level pays the scale-fixing multiply (this also keeps the
            # adjustment factor a small float for arbitrarily deep drops).
            ciphertext = self.level_down(ciphertext, ciphertext.level - 1 - level)
        dropped = 1.0
        for index in range(level, ciphertext.level):
            dropped *= float(self.params.modulus_basis.moduli[index])
        factor = scale * dropped / ciphertext.scale
        if abs(factor - 1.0) < 1e-12 and level == ciphertext.level:
            return ciphertext
        if factor < 0.5:
            raise ScaleOverflow(
                f"scale adjustment factor {factor} too small to carry exactly"
            )
        if level == ciphertext.level:
            # No level to spend: only a bookkeeping stamp is possible.
            if abs(factor - 1.0) > 1e-9:
                raise ScaleOverflow(
                    "same-level scale adjustment would change the value; "
                    f"relative mismatch {abs(factor - 1.0):.3e}"
                )
            return self._stamp(
                Ciphertext(
                    c0=ciphertext.c0, c1=ciphertext.c1, scale=scale,
                    level=ciphertext.level,
                ),
                ciphertext.noise_bits,
            )
        result = self.mul_plain_scalar(ciphertext, 1.0, plain_scale=factor)
        for _ in range(ciphertext.level - level):
            result = self.rescale(result)
        return self._stamp(
            Ciphertext(c0=result.c0, c1=result.c1, scale=scale, level=level),
            result.noise_bits,
        )

    def align_for_multiply(
        self, lhs: Ciphertext, rhs: Ciphertext
    ) -> tuple[Ciphertext, Ciphertext]:
        """Align two operands so their product rescales back to ``Delta``.

        Deep multiplication chains are where naive scale tracking explodes:
        after ``rescale`` a product carries ``s^2/q`` and the relative drift
        from ``Delta`` *squares* at every level -- doubly exponential.  This
        helper pins the chain: both operands are brought to the common level
        and whichever has level headroom is retargeted to scale
        ``Delta * q_level / partner.scale``, so the product's post-rescale
        scale is exactly ``Delta`` again.  When neither operand has headroom
        the (singly bounded) drift of one product is accepted -- the next
        aligned multiplication corrects it.
        """
        level = min(lhs.level, rhs.level)
        if level < 2:
            raise LevelExhausted(
                "multiplication needs a level to rescale into -- the chain is "
                "exhausted; bootstrap() to refresh levels"
            )
        target_product = self.params.scale * float(
            self.params.modulus_basis.moduli[level - 1]
        )
        if lhs.level > level:
            lhs = self.rescale_to(lhs, level, target_product / rhs.scale)
        elif rhs.level > level:
            rhs = self.rescale_to(rhs, level, target_product / lhs.scale)
        return lhs, rhs

    def align_pair(
        self, lhs: Ciphertext, rhs: Ciphertext
    ) -> tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts to a common ``(level, scale)`` for add/mult.

        The deeper operand's coordinates win; when both sit at the same level
        with (beyond float rounding) different scales, both are dropped one
        level onto the parameter set's default scale.
        """
        if lhs.level > rhs.level:
            return self.rescale_to(lhs, rhs.level, rhs.scale), rhs
        if rhs.level > lhs.level:
            return lhs, self.rescale_to(rhs, lhs.level, lhs.scale)
        if abs(lhs.scale / rhs.scale - 1.0) < 1e-9:
            return lhs, self.rescale_to(rhs, lhs.level, lhs.scale)
        if lhs.level <= 1:
            raise LevelExhausted(
                "cannot reconcile scales at the last level -- the chain is "
                "exhausted; bootstrap() to refresh levels"
            )
        target = self.params.scale
        return (
            self.rescale_to(lhs, lhs.level - 1, target),
            self.rescale_to(rhs, rhs.level - 1, target),
        )

    # ---------------------------------------------------------------- rotate
    def rotate(self, ciphertext: Ciphertext, steps: int) -> Ciphertext:
        """Rotate the packed slots by ``steps`` positions (HE-Rotate)."""
        if self.galois_keys is None:
            raise MissingKeyError(
                "rotation requires Galois keys; construct the evaluator with "
                "galois_keys=KeyGenerator.galois_keys(...)"
            )
        exponent = _rotation_exponent(steps, self.params.degree)
        return self.apply_galois(ciphertext, exponent)

    def hoist(
        self, ciphertext: Ciphertext, *, c1_eval: np.ndarray | None = None
    ) -> HoistedCiphertext:
        """Precompute the rotation-independent key-switch half of ``c1``.

        Pays the digit decomposition, stacked BConv and one batched forward
        NTT once; the returned handle feeds any number of
        :meth:`rotate_hoisted` / :meth:`conjugate_hoisted` calls on the same
        ciphertext.  A caller that already holds ``c1``'s evaluation-domain
        residues passes them as ``c1_eval`` and the forward NTT skips every
        digit's own limbs (the BSGS engine does, and reads ``digits_eval``
        off the handle for its un-ModDown'd baby rotations).
        """
        if self.galois_keys is None:
            raise MissingKeyError(
                "rotation requires Galois keys; construct the evaluator with "
                "galois_keys=KeyGenerator.galois_keys(...)"
            )
        self.validate(ciphertext, name="ciphertext")
        level = ciphertext.level
        digits_eval = decompose_to_eval(ciphertext.c1, self.params, level, c1_eval)
        return HoistedCiphertext(
            ciphertext=ciphertext, digits_eval=digits_eval, level=level
        )

    def rotate_hoisted(self, hoisted: HoistedCiphertext, steps: int) -> Ciphertext:
        """Rotate via a hoisted decomposition, into the coefficient domain.

        One gather of the digit tensor, the key inner products, one stacked
        ``(2, L', N)`` inverse pass and the coefficient-domain ModDown -- no
        forward transform.  (The BSGS engine shares the same digits but stops
        before the inverse pass: its babies stay in the extended evaluation
        basis until the matvec's one ModDown.)  Decrypts
        to the same slots as ``rotate(ciphertext, steps)``; the hoisted BConv
        happens before (rather than after) the automorphism, so the tiny
        fast-BConv rounding term differs, exactly as in standard hoisting.
        """
        exponent = _rotation_exponent(steps, self.params.degree)
        return self._apply_galois_hoisted(hoisted, exponent)

    def conjugate_hoisted(self, hoisted: HoistedCiphertext) -> Ciphertext:
        """Conjugate the slots via a hoisted decomposition."""
        return self._apply_galois_hoisted(hoisted, 2 * self.params.degree - 1)

    def _apply_galois_hoisted(
        self, hoisted: HoistedCiphertext, exponent: int
    ) -> Ciphertext:
        """Automorphism + key switch, reusing the hoisted digit tensor."""
        checkpoint()  # hoisted rotations bypass validate(); BSGS ladders are long
        if self.galois_keys is None:
            raise MissingKeyError(
                "rotation requires Galois keys; construct the evaluator with "
                "galois_keys=KeyGenerator.galois_keys(...)"
            )
        self._count(
            self._galois_operator(exponent),
            self._batch_weight(hoisted.ciphertext),
        )
        key: GaloisKey = self.galois_keys.key_for(exponent)
        ciphertext = hoisted.ciphertext
        # The automorphism acts on the NTT domain as a pure evaluation-point
        # permutation, so the hoisted digits are rotated with one gather.
        indices = automorphism_eval_indices(self.params.degree, exponent)
        rotated_digits = np.take(hoisted.digits_eval, indices, axis=-1)
        ks0, ks1 = switch_extended_eval(
            rotated_digits, key, self.params, hoisted.level
        )
        rotated_c0 = ciphertext.c0.automorphism(exponent)
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.keyswitch_bits(ciphertext.noise_bits)
        return self._stamp(
            Ciphertext(
                c0=rotated_c0.add(ks0),
                c1=ks1,
                scale=ciphertext.scale,
                level=hoisted.level,
            ),
            noise,
        )

    def rotate_many(
        self, ciphertext: Ciphertext, steps: list[int]
    ) -> list[Ciphertext]:
        """Rotate one ciphertext by a batch of offsets with grouped hoisting.

        The key-switch decomposition of ``c1`` (digit split, stacked BConv,
        batched forward NTT) is paid once and shared by every non-zero offset;
        offset 0 returns the input ciphertext itself.  Duplicate offsets reuse
        the already-computed rotation.  This is the primitive under
        rotation-ladder workloads (BSGS baby steps, convolution taps, HELR
        gradient trees).
        """
        steps = [int(s) for s in steps]
        if not steps:
            raise ParameterError("rotation batch must not be empty")
        hoisted: HoistedCiphertext | None = None
        rotated: dict[int, Ciphertext] = {}
        results = []
        for s in steps:
            if s == 0:
                results.append(ciphertext)
                continue
            if s not in rotated:
                if hoisted is None:
                    hoisted = self.hoist(ciphertext)
                rotated[s] = self.rotate_hoisted(hoisted, s)
            results.append(rotated[s])
        return results

    def matvec(self, ciphertext: Ciphertext, transform, *, rescale: bool = False) -> Ciphertext:
        """Apply a diagonal-encoded linear transform (BSGS, lazily double hoisted).

        ``transform`` is a :class:`repro.ckks.linear_transform.DiagonalLinearTransform`
        (any object with an ``apply(evaluator, ciphertext)`` method works).
        The result carries ``scale * transform scale``; pass ``rescale=True``
        to drop the consumed level immediately.  The engine ModDowns once per
        matvec, so the result is decode-equivalent (not bit-identical) to the
        loop of :meth:`rotate_hoisted` / :meth:`multiply_plain` / :meth:`add` /
        :meth:`rotate` calls it replaces.
        """
        result = transform.apply(self, ciphertext)
        return self.rescale(result) if rescale else result

    def conjugate(self, ciphertext: Ciphertext) -> Ciphertext:
        """Complex-conjugate the packed slots."""
        if self.galois_keys is None:
            raise MissingKeyError(
                "conjugation requires Galois keys; construct the evaluator "
                "with galois_keys=KeyGenerator.galois_keys(...)"
            )
        return self.apply_galois(ciphertext, 2 * self.params.degree - 1)

    def apply_galois(self, ciphertext: Ciphertext, exponent: int) -> Ciphertext:
        """Apply an automorphism followed by the matching key switch."""
        if self.galois_keys is None:
            raise MissingKeyError(
                "automorphism application requires Galois keys; construct the "
                "evaluator with galois_keys=KeyGenerator.galois_keys(...)"
            )
        self.validate(ciphertext, name="ciphertext")
        self._count(
            self._galois_operator(exponent), self._batch_weight(ciphertext)
        )
        key: GaloisKey = self.galois_keys.key_for(exponent)
        rotated_c0 = ciphertext.c0.automorphism(exponent)
        rotated_c1 = ciphertext.c1.automorphism(exponent)
        ks0, ks1 = switch_key(rotated_c1, key, self.params, ciphertext.level)
        noise = None
        if ciphertext.noise_bits is not None:
            noise = self.noise.keyswitch_bits(ciphertext.noise_bits)
        return self._stamp(
            Ciphertext(
                c0=rotated_c0.add(ks0),
                c1=ks1,
                scale=ciphertext.scale,
                level=ciphertext.level,
            ),
            noise,
        )

    # -------------------------------------------------------------- utilities
    def _check_compatible(
        self, lhs: Ciphertext, rhs: Ciphertext, check_scale: bool = True
    ) -> None:
        if lhs.level != rhs.level:
            raise IncompatibleOperands(
                f"operands must be at the same level "
                f"(lhs level {lhs.level}, rhs level {rhs.level})",
                lhs,
                rhs,
            )
        if lhs.c0.basis.moduli != rhs.c0.basis.moduli:
            raise IncompatibleOperands(
                "operands live in different RNS bases", lhs, rhs
            )
        if check_scale and not np.isclose(lhs.scale, rhs.scale, rtol=1e-9):
            raise IncompatibleOperands(
                f"operands must share the same scale "
                f"(lhs scale {lhs.scale:.6g}, rhs scale {rhs.scale:.6g})",
                lhs,
                rhs,
            )

    def _check_scale_headroom(
        self, ciphertext: Ciphertext, plaintext: Plaintext, product_scale: float
    ) -> None:
        """Reject plaintext products whose scale exceeds the modulus budget."""
        budget_bits = self.noise.level_modulus_bits(ciphertext.level)
        if product_scale <= 0 or math.log2(product_scale) >= budget_bits:
            raise ScaleOverflow(
                f"product scale 2^{math.log2(max(product_scale, 1e-300)):.1f} "
                f"(ciphertext 2^{math.log2(ciphertext.scale):.1f} x plaintext "
                f"2^{math.log2(plaintext.scale):.1f}) exceeds the remaining "
                f"modulus 2^{budget_bits:.1f} at level {ciphertext.level}; "
                "rescale before multiplying"
            )

    def _add_noise(self, lhs: Ciphertext, rhs: Ciphertext) -> float | None:
        if lhs.noise_bits is None or rhs.noise_bits is None:
            return None
        return self.noise.add_bits(lhs.noise_bits, rhs.noise_bits)


def _pair(ciphertext: Ciphertext) -> RnsPolynomial:
    """``(c0, c1)`` stacked as one ``(..., 2, L, N)`` element.

    One transform call then serves both halves: on small rings a call's
    fixed cost, not its rows, is what a transform costs.  Halves in mixed
    domains are both moved to the evaluation domain first.
    """
    c0, c1 = ciphertext.c0, ciphertext.c1
    if c0.domain != c1.domain:
        c0, c1 = c0.to_eval(), c1.to_eval()
    residues = np.stack((c0.residues, c1.residues), axis=-3)
    return RnsPolynomial(c0.basis, residues, c0.domain)


def _halves(pair: RnsPolynomial) -> tuple[RnsPolynomial, RnsPolynomial]:
    """The two halves of a :func:`_pair`, as views."""
    return tuple(
        RnsPolynomial(pair.basis, pair.residues[..., half, :, :], pair.domain)
        for half in (0, 1)
    )


def _match_level(poly: RnsPolynomial, level: int) -> RnsPolynomial:
    """Restrict a plaintext polynomial to the ciphertext's level."""
    poly = poly.to_coeff()
    if poly.limb_count == level:
        return poly
    if poly.limb_count < level:
        raise IncompatibleOperands(
            f"plaintext has {poly.limb_count} limbs, fewer than the "
            f"ciphertext level {level}; re-encode at the ciphertext's level",
            poly,
        )
    return poly.keep_limbs(level)


def _rescale_poly(
    poly: RnsPolynomial, params: CkksParameters, level: int
) -> RnsPolynomial:
    """RNS rescaling of one polynomial: ``(c - [c]_{q_last}) / q_last``.

    The dropped limb is reduced against every remaining modulus by
    broadcasting, then handed to the subtract-and-divide kernel ModDown uses
    (`repro.poly.fused_kernels.moddown_sub_div`), with the ``q_last^{-1}``
    column memoised on the chain.
    """
    poly = poly.to_coeff()
    top, new_basis = params.basis_at_level(level), params.basis_at_level(level - 1)
    moduli = new_basis.moduli_array[:, None]
    build = partial(inverse_column, top.moduli[-1], new_basis.moduli)
    residues = fused_kernels.moddown_sub_div(
        poly.residues[..., : level - 1, :],
        poly.residues[..., level - 1 : level, :] % moduli,
        moduli,
        chain_constant("rescale", (top,), build),
    )
    return RnsPolynomial(new_basis, residues, "coeff")
