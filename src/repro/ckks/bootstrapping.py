"""Packed CKKS bootstrapping: the executable pipeline + schedule model.

Three layers live here.

**Executable CoeffToSlot/SlotToCoeff.**  The encoder's Vandermonde embedding
``W[j, k] = zeta^(5^j * k)`` (the map from the complex-packed coefficient
vector ``u = c[:n] + i*c[n:]`` to the slot values, exact because
``zeta^(5^j * n) = i`` for every slot index ``j``) factors into ``log2(n)``
radix-2 special-FFT butterfly stages, each a 3-diagonal slot matrix, with a
bit-reversal on the input.  The stages are collapsed into ``depth`` sparse
factors (the standard level-collapsing trade-off) and each factor becomes a
:class:`~repro.ckks.linear_transform.DiagonalLinearTransform`, so
:func:`coeff_to_slot` / :func:`slot_to_coeff` *run homomorphically* on the
exact CKKS stack: CoeffToSlot delivers the (bit-reversed, complex-packed)
polynomial coefficients into the slots, SlotToCoeff is the exact inverse
ladder, and their composition is the identity up to CKKS noise.  The
bit-reversal permutations cancel in the round trip and EvalMod is slot-wise,
so -- exactly as production bootstrappers do -- no permutation is ever
evaluated homomorphically.

**End-to-end bootstrapping.**  :func:`mod_raise` re-embeds an exhausted
level-1 ciphertext into the full modulus chain (decrypting to ``m + q_0 I``
for a small overflow vector ``I``), and :class:`CkksBootstrapper` drives the
full pipeline ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff: the
conjugation split turns the packed coefficients into two real slot vectors,
each is reduced modulo ``q_0/Delta`` by the scaled-sine Paterson-Stockmeyer
evaluation (:mod:`repro.ckks.poly_eval`), and the merge + inverse ladder
restore a *fresh* ciphertext with multiplicative budget again.

**Schedule model.**  The paper estimates bootstrapping latency as (number of
HE-kernel invocations) x (profiled per-kernel latency); we reproduce that
with ``BootstrappingSchedule`` counting the operators of the four phases
(ModRaise, CoeffToSlot, EvalMod, SlotToCoeff), and
:func:`repro.core.compiler.estimate_bootstrapping` pricing the counts on the
simulated device (paper Table IX).  The analytic
BSGS rotation counts are now per phase (CoeffToSlot and SlotToCoeff may use
different depths) and :meth:`BootstrappingSchedule.from_transforms` grounds
the model in the *measured* rotation counts of the real transform ladders.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2, pi, sqrt

import numpy as np

from repro.ckks.batch import stack_ciphertexts, unstack_ciphertext
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoding import (
    CkksEncoder,
    matrix_diagonals,
    matrix_from_diagonals,
    slot_bit_reversal,
)
from repro.ckks.linear_transform import (
    DiagonalLinearTransform,
    required_rotation_steps,
)
from repro.ckks.poly_eval import EvalModPoly, eval_mod, ps_operation_counts
from repro.poly.rns_poly import RnsPolynomial
from repro.errors import ParameterError

# --------------------------------------------------------------------------
# Special-FFT factorisation of the canonical embedding
# --------------------------------------------------------------------------


def special_fft_matrix(slots: int) -> np.ndarray:
    """The packed embedding ``W[j, k] = zeta^(5^j * k)`` (``zeta = e^(i*pi/2n)``).

    ``slots`` must be a power of two.  ``z = W @ u`` maps the complex-packed
    coefficient vector ``u = c[:n] + i * c[n:]`` of a plaintext polynomial to
    its slot values -- the single matrix CoeffToSlot inverts.
    """
    if slots < 2 or slots & (slots - 1):
        raise ParameterError("slot count must be a power of two >= 2")
    order = 4 * slots  # 2N for degree N = 2 * slots
    powers = np.array(
        [pow(5, j, order) for j in range(slots)], dtype=np.int64
    )
    return np.exp(2j * np.pi * powers[:, None] * np.arange(slots)[None, :] / order)


def special_fft_stage_diagonals(
    slots: int, length: int, inverse: bool = False
) -> dict[int, np.ndarray]:
    """Generalized diagonals of one radix-2 special-FFT butterfly stage.

    The decode-direction stage for block ``length`` (half-block ``h``) is the
    classic decimation-in-time butterfly with twiddles
    ``w_j = exp(2*pi*i * 5^j / (4*length))``::

        out[t]     = in[t] + w_j * in[t + h]      (t = base + j, j < h)
        out[t + h] = in[t] - w_j * in[t + h]

    which touches exactly the diagonals ``{0, +h, -h}``; ``inverse=True``
    returns the stage's inverse (also 3-diagonal).  At ``length == slots``
    the ``+h`` and ``-h`` diagonals coincide and are summed.
    """
    if length < 2 or length > slots or length & (length - 1):
        raise ParameterError("stage length must be a power of two in [2, slots]")
    half = length // 2
    order = 4 * length
    diagonals: dict[int, np.ndarray] = {}

    def put(index: int, position: int, value: complex) -> None:
        index %= slots
        if index not in diagonals:
            diagonals[index] = np.zeros(slots, dtype=np.complex128)
        diagonals[index][position] += value

    twiddles = [
        np.exp(2j * np.pi * pow(5, j, order) / order) for j in range(half)
    ]
    for base in range(0, slots, length):
        for j, twiddle in enumerate(twiddles):
            top, bottom = base + j, base + j + half
            if not inverse:
                put(0, top, 1.0)
                put(half, top, twiddle)
                put(0, bottom, -twiddle)
                put(-half, bottom, 1.0)
            else:
                put(0, top, 0.5)
                put(half, top, 0.5)
                put(0, bottom, -0.5 / twiddle)
                put(-half, bottom, 0.5 / twiddle)
    return diagonals


def _dense(diagonals: dict[int, np.ndarray], slots: int) -> np.ndarray:
    return matrix_from_diagonals(diagonals, slots)


def collapsed_fft_factors(
    slots: int,
    depth: int,
    inverse: bool = False,
    tol: float = 1e-12,
    normalised: bool = False,
) -> list[dict[int, np.ndarray]]:
    """The special FFT as ``depth`` sparse factors, in application order.

    ``inverse=False`` is the SlotToCoeff direction (stages ``2 .. slots``
    applied to a bit-reversed input); ``inverse=True`` is CoeffToSlot (the
    stage inverses in reverse order).  Consecutive stages are merged by dense
    composition until ``depth`` factors remain -- a factor made of ``r``
    stages has at most ``2^(r+1) - 1`` diagonals, the classic radix-``2^r``
    trade of depth against rotations.

    ``normalised=True`` scales every stage by ``sqrt(2)**(+/-1)`` so each is
    magnitude-preserving (butterfly rows of norm 1): the CoeffToSlot ladder
    then carries ``sqrt(slots) * u`` instead of the geometrically shrinking
    ``u``, keeping the signal-to-rescale-noise ratio flat across the ladder
    (the constant cancels in the SlotToCoeff direction, which is scaled by
    the reciprocal).  Production bootstrappers fold the same constant into
    their matrices; homomorphic precision improves by ``~sqrt(slots)``.
    """
    stage_count = int(log2(slots))
    if not 1 <= depth <= stage_count:
        raise ParameterError(f"depth must be in [1, {stage_count}] for {slots} slots")
    lengths = [1 << (s + 1) for s in range(stage_count)]  # 2, 4, ..., slots
    if inverse:
        lengths = lengths[::-1]
    stages = [
        special_fft_stage_diagonals(slots, length, inverse=inverse)
        for length in lengths
    ]
    if normalised:
        gain = sqrt(2.0) if inverse else 1.0 / sqrt(2.0)
        stages = [
            {k: diagonal * gain for k, diagonal in stage.items()}
            for stage in stages
        ]
    # Balanced contiguous grouping of the stages into `depth` factors.
    bounds = [round(i * stage_count / depth) for i in range(depth + 1)]
    factors = []
    for lo, hi in zip(bounds, bounds[1:]):
        composed = _dense(stages[lo], slots)
        for stage in stages[lo + 1 : hi]:
            composed = _dense(stage, slots) @ composed
        factors.append(matrix_diagonals(composed, tol=tol))
    return factors


def composed_matrix(factors: list[DiagonalLinearTransform]) -> np.ndarray:
    """Dense product of a transform ladder (factors in application order)."""
    matrix = None
    for factor in factors:
        dense = factor.matrix()
        matrix = dense if matrix is None else dense @ matrix
    return matrix


@dataclass
class BootstrappingTransforms:
    """The executable CoeffToSlot / SlotToCoeff ladders for one parameter set.

    ``coeff_to_slot`` factors map slot values ``z`` to the bit-reversed
    complex-packed coefficients ``u[bitrev]``; ``slot_to_coeff`` is the exact
    inverse ladder.  Factors are listed in application order and encoded
    level-matched (each plaintext carries the prime its rescale drops) so the
    ciphertext scale is invariant across the ladders.
    """

    encoder: CkksEncoder
    coeff_to_slot: list[DiagonalLinearTransform]
    slot_to_coeff: list[DiagonalLinearTransform]
    normalised: bool = True

    @property
    def coefficient_scaling(self) -> float:
        """Constant ``CoeffToSlot`` multiplies the packed coefficients by.

        Normalised ladders deliver ``sqrt(slots) * u[bitrev]`` into the slots
        (the constant cancels in SlotToCoeff); un-normalised ladders deliver
        ``u[bitrev]`` directly.
        """
        if self.normalised:
            return sqrt(float(self.encoder.params.slot_count))
        return 1.0

    @property
    def c2s_depth(self) -> int:
        """Multiplicative levels CoeffToSlot consumes."""
        return len(self.coeff_to_slot)

    @property
    def s2c_depth(self) -> int:
        """Multiplicative levels SlotToCoeff consumes."""
        return len(self.slot_to_coeff)

    def rotation_steps(self) -> list[int]:
        """Union of rotation offsets both ladders key-switch."""
        return required_rotation_steps(*self.coeff_to_slot, *self.slot_to_coeff)

    def c2s_rotation_count(self) -> int:
        """Measured key-switched rotations of one CoeffToSlot invocation."""
        return sum(factor.rotation_count() for factor in self.coeff_to_slot)

    def s2c_rotation_count(self) -> int:
        """Measured key-switched rotations of one SlotToCoeff invocation."""
        return sum(factor.rotation_count() for factor in self.slot_to_coeff)

    def plain_multiplication_count(self) -> int:
        """Diagonal (plaintext) multiplications across both ladders."""
        return sum(
            factor.diagonal_count()
            for factor in (*self.coeff_to_slot, *self.slot_to_coeff)
        )


def build_bootstrapping_transforms(
    encoder: CkksEncoder,
    c2s_depth: int = 3,
    s2c_depth: int = 3,
    *,
    n1: int | None = None,
    level_matched: bool = True,
    normalised: bool = True,
) -> BootstrappingTransforms:
    """Factor the embedding and wrap each factor in the BSGS engine."""
    slots = encoder.params.slot_count
    c2s = [
        DiagonalLinearTransform.from_diagonals(
            encoder, diagonals, n1=n1, level_matched=level_matched
        )
        for diagonals in collapsed_fft_factors(
            slots, c2s_depth, inverse=True, normalised=normalised
        )
    ]
    s2c = [
        DiagonalLinearTransform.from_diagonals(
            encoder, diagonals, n1=n1, level_matched=level_matched
        )
        for diagonals in collapsed_fft_factors(
            slots, s2c_depth, inverse=False, normalised=normalised
        )
    ]
    return BootstrappingTransforms(
        encoder=encoder, coeff_to_slot=c2s, slot_to_coeff=s2c, normalised=normalised
    )


def _apply_ladder(
    evaluator, factors: list[DiagonalLinearTransform], ciphertext: Ciphertext
) -> Ciphertext:
    """Run a transform ladder, rescaling after every factor."""
    result = ciphertext
    for factor in factors:
        result = evaluator.rescale(factor.apply(evaluator, result))
    return result


def coeff_to_slot(
    evaluator, transforms: BootstrappingTransforms, ciphertext: Ciphertext
) -> Ciphertext:
    """Homomorphic CoeffToSlot: coefficients (bit-reversed, packed) into slots.

    Consumes ``c2s_depth`` levels.  The output's slot ``t`` holds
    ``K * (c[r(t)] + i * c[r(t) + n])`` where ``c`` are the input plaintext's
    scaled coefficients, ``r`` is the slot bit-reversal and ``K`` is
    ``transforms.coefficient_scaling`` -- the packing EvalMod consumes (it is
    slot-wise, so the permutation is free, and ``K`` cancels in SlotToCoeff).
    """
    return _apply_ladder(evaluator, transforms.coeff_to_slot, ciphertext)


def slot_to_coeff(
    evaluator, transforms: BootstrappingTransforms, ciphertext: Ciphertext
) -> Ciphertext:
    """Homomorphic SlotToCoeff: the exact inverse ladder of CoeffToSlot."""
    return _apply_ladder(evaluator, transforms.slot_to_coeff, ciphertext)


def coeff_to_slot_split(
    evaluator, transforms: BootstrappingTransforms, ciphertext: Ciphertext
) -> tuple[Ciphertext, Ciphertext]:
    """CoeffToSlot plus the conjugation split into real coefficient halves.

    Returns ``(ct_lo, ct_hi)`` whose slots hold the *real* vectors
    ``K * c[:n][bitrev]`` and ``K * c[n:][bitrev]`` respectively, with
    ``K = transforms.coefficient_scaling`` (``sqrt(slots)`` for the default
    normalised ladder) -- the form EvalMod wants when both halves are reduced
    independently; size the reduction interval by ``K``.  Costs one extra
    level for the ``1/2`` constants on top of ``c2s_depth``.
    """
    packed = coeff_to_slot(evaluator, transforms, ciphertext)
    conjugated = evaluator.conjugate(packed)
    plus = evaluator.add(packed, conjugated)  # 2 * Re(u)
    minus = evaluator.sub(packed, conjugated)  # 2i * Im(u)
    encoder = transforms.encoder
    slots = encoder.params.slot_count
    half = encoder.encode(np.full(slots, 0.5), level=plus.level, cache=True)
    half_over_i = encoder.encode(
        np.full(slots, -0.5j), level=minus.level, cache=True
    )
    lo = evaluator.rescale(evaluator.multiply_plain(plus, half))
    hi = evaluator.rescale(evaluator.multiply_plain(minus, half_over_i))
    return lo, hi


def slot_to_coeff_merge(
    evaluator,
    transforms: BootstrappingTransforms,
    ct_lo: Ciphertext,
    ct_hi: Ciphertext,
) -> Ciphertext:
    """Repack split coefficient halves (``u = lo + i * hi``) and run SlotToCoeff.

    The inverse of :func:`coeff_to_slot_split`; costs one extra level for the
    repacking constants on top of ``s2c_depth``.
    """
    encoder = transforms.encoder
    slots = encoder.params.slot_count
    one = encoder.encode(np.full(slots, 1.0), level=ct_lo.level, cache=True)
    i_vector = encoder.encode(np.full(slots, 1j), level=ct_hi.level, cache=True)
    lo = evaluator.rescale(evaluator.multiply_plain(ct_lo, one))
    hi = evaluator.rescale(evaluator.multiply_plain(ct_hi, i_vector))
    return slot_to_coeff(evaluator, transforms, evaluator.add(lo, hi))


def slot_permutation(transforms: BootstrappingTransforms) -> np.ndarray:
    """The slot permutation CoeffToSlot leaves its output in (bit-reversal)."""
    return slot_bit_reversal(transforms.encoder.params.slot_count)


# --------------------------------------------------------------------------
# ModRaise + the end-to-end pipeline
# --------------------------------------------------------------------------


def mod_raise(ciphertext: Ciphertext, params, level: int | None = None) -> Ciphertext:
    """Re-embed an exhausted ciphertext into a larger modulus chain.

    Each residue of the (level-1) input is lifted to its centered signed
    representative in ``[-q_0/2, q_0/2)`` and re-reduced against the first
    ``level`` primes (default: the whole chain).  Decryption of the result is
    ``m + q_0 * I`` where the overflow ``I`` is bounded by
    ``(||s||_1 + 1)/2`` -- the quantity EvalMod removes.  The scale is
    unchanged: the raised ciphertext carries the message at the original
    ``Delta`` plus the ``(q_0/Delta)``-spaced overflow ladder.
    """
    if ciphertext.level != 1:
        raise ParameterError(
            f"ModRaise expects an exhausted level-1 ciphertext, got level "
            f"{ciphertext.level}"
        )
    target = params.basis_at_level(params.limbs if level is None else level)
    q0 = ciphertext.c0.basis.moduli[0]
    half = q0 // 2

    def raise_poly(poly: RnsPolynomial) -> RnsPolynomial:
        residues = poly.to_coeff().residues[0].astype(np.int64)
        centered = np.where(residues >= half, residues - q0, residues)
        return RnsPolynomial.from_signed_coefficients(centered, target)

    return Ciphertext(
        c0=raise_poly(ciphertext.c0),
        c1=raise_poly(ciphertext.c1),
        scale=ciphertext.scale,
        level=target.size,
    )


@dataclass
class CkksBootstrapper:
    """The executable pipeline ModRaise -> C2S -> EvalMod -> S2C.

    Bundles the transform ladders with the EvalMod approximation sized for
    the parameter set: the normalised CoeffToSlot ladder delivers
    ``K * (m + q_0 I)/Delta`` into the slots (``K = sqrt(slots)``), the
    conjugation split yields the two real coefficient halves, each half is
    reduced modulo the slot-space period ``K * q_0/Delta`` by the
    Paterson-Stockmeyer sine evaluation, and merge + SlotToCoeff restore the
    message into a fresh ciphertext carrying every level the pipeline did not
    consume.

    ``k_bound`` must cover the ModRaise overflow ``|I| <= (||s||_1 + 1)/2``
    -- pair with a sparse secret (``KeyGenerator(hamming_weight=...)``)
    exactly as production bootstrappers do.  ``message_ratio`` bounds
    ``max |coeff| / q_0`` of messages this instance can refresh: the sine
    approximation's relative error is ``(2 pi * message_ratio)^2 / 6``, so
    the default ``1/128`` stays comfortably under ``2^-10``.
    """

    encoder: CkksEncoder
    transforms: BootstrappingTransforms
    evalmod: EvalModPoly

    @classmethod
    def create(
        cls,
        encoder: CkksEncoder,
        *,
        c2s_depth: int = 2,
        s2c_depth: int = 2,
        k_bound: int = 3,
        evalmod_degree: int = 31,
        double_angle: int = 1,
        message_ratio: float = 1.0 / 128.0,
        n1: int | None = None,
    ) -> "CkksBootstrapper":
        """Build the ladders and fit EvalMod for one parameter set."""
        params = encoder.params
        transforms = build_bootstrapping_transforms(
            encoder, c2s_depth=c2s_depth, s2c_depth=s2c_depth, n1=n1,
            normalised=True,
        )
        scaling = transforms.coefficient_scaling
        period = scaling * float(params.modulus_basis.moduli[0]) / params.scale
        evalmod = EvalModPoly.create(
            period,
            k_bound=k_bound,
            degree=evalmod_degree,
            double_angle=double_angle,
            message_width=period * float(message_ratio),
        )
        return cls(encoder=encoder, transforms=transforms, evalmod=evalmod)

    def rotation_steps(self) -> list[int]:
        """Rotation offsets the pipeline key-switches (conjugation excluded).

        Generate keys with ``galois_keys_for_steps(steps, conjugation=True)``
        -- the conjugation split needs the conjugation key as well.
        """
        return self.transforms.rotation_steps()

    def minimum_level(self) -> int:
        """Limbs the parameter set must provide for one bootstrap."""
        return (
            1  # the refreshed output must keep at least one level
            + self.transforms.c2s_depth
            + 1  # conjugation split constants
            + self.evalmod.depth()
            + 1  # merge constants
            + self.transforms.s2c_depth
        )

    def bootstrap(self, evaluator, ciphertext: Ciphertext) -> Ciphertext:
        """Refresh an exhausted level-1 ciphertext.

        Returns a ciphertext decrypting to the same slots with the
        multiplicative budget the pipeline left over; the decode error is
        bounded by the sine approximation (``(2 pi * message_ratio)^2 / 6``
        relative) plus CKKS noise.
        """
        params = self.encoder.params
        raised = mod_raise(ciphertext, params)
        lo, hi = coeff_to_slot_split(evaluator, self.transforms, raised)
        # The two EvalMod halves run identical circuits at the same level and
        # scale, so stack them into one (2, 2, L, N) ciphertext and pay a
        # single batched Paterson-Stockmeyer evaluation instead of two
        # sequential ones.  Every kernel is exact per batch slice, so the
        # unstacked halves are bit-identical to the sequential path.
        stacked = stack_ciphertexts([lo, hi])
        stacked = eval_mod(evaluator, stacked, self.evalmod)
        lo, hi = unstack_ciphertext(stacked)
        result = slot_to_coeff_merge(evaluator, self.transforms, lo, hi)
        self._stamp_noise(evaluator, result)
        return result

    def _stamp_noise(self, evaluator, result: Ciphertext) -> None:
        """Stamp the refreshed ciphertext's noise estimate.

        ModRaise enters the pipeline untracked (its overflow ladder is not
        CKKS noise), so the evaluator's per-op propagation yields ``None``
        here.  The dominant residual error of a bootstrap is the sine
        approximation -- relative error ``(2 pi * message_ratio)**2 / 6``
        against the message bound -- on top of the CKKS rounding floor of the
        pipeline's own multiplies; the stamp upper-bounds both (the analytic
        relative term carries a 4-bit margin for the double-angle unfolding
        and the ladders' accumulated rounding).
        """
        model = getattr(evaluator, "noise", None)
        if model is None or not model.policy.track:
            return
        ratio = self.evalmod.message_width / self.evalmod.period
        relative = (2.0 * pi * ratio) ** 2 / 6.0
        approx = relative * model.policy.message_bound * result.scale * 16.0
        approx_bits = log2(max(approx, 1e-300))
        floor_bits = model.keyswitch_bits(model.fresh_bits())
        result.noise_bits = max(approx_bits, floor_bits) + 1.0
        model.guard(result.level, result.noise_bits)

    def schedule(self, degree: int | None = None) -> "BootstrappingSchedule":
        """A measured-count schedule for this pipeline (paper Table IX)."""
        return BootstrappingSchedule.from_transforms(
            self.encoder.params.degree if degree is None else degree,
            self.transforms,
            evalmod=self.evalmod,
        )


# --------------------------------------------------------------------------
# Schedule model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrappingSchedule:
    """HE-operator counts for one packed bootstrapping invocation.

    The defaults follow the standard structure: CoeffToSlot and SlotToCoeff
    are each a product of ``depth`` sparse linear transforms realised with
    baby-step/giant-step rotations, and EvalMod is a degree-``evalmod_degree``
    Chebyshev polynomial evaluated with ``~2*sqrt(d)`` ciphertext
    multiplications.  No operator count is a hard-coded guess: the analytic
    per-level rotation count is derived *per phase* (``c2s_levels`` and
    ``s2c_levels`` may differ), the analytic EvalMod counts come from the
    actual Paterson-Stockmeyer plan
    (:func:`repro.ckks.poly_eval.ps_operation_counts`), and measured counts
    from a real ladder pair / :class:`EvalModPoly` override the analytic
    model via :meth:`from_transforms`.
    """

    degree: int
    c2s_levels: int = 3
    s2c_levels: int = 3
    evalmod_degree: int = 63
    evalmod_multiplications: int | None = None
    evalmod_additions: int | None = None
    c2s_rotations: int | None = None
    s2c_rotations: int | None = None
    plain_multiplications: int | None = None

    @property
    def slots(self) -> int:
        """Number of packed slots being bootstrapped."""
        return self.degree // 2

    def rotations_per_level(self, levels: int) -> int:
        """Analytic BSGS rotation count per linear-transform level.

        A ``levels``-deep factorisation gives each factor about
        ``slots**(1/levels)`` diagonals, evaluated with ``~2*sqrt(d)``
        rotations by the baby-step/giant-step split.
        """
        per_factor = self.slots ** (1.0 / max(levels, 1))
        return max(2, int(2 * ceil(sqrt(per_factor))))

    @property
    def rotations_per_linear_level(self) -> int:
        """Per-level rotation count of the CoeffToSlot phase (legacy alias)."""
        return self.rotations_per_level(self.c2s_levels)

    @property
    def c2s_rotation_count(self) -> int:
        """Rotations of the CoeffToSlot phase (measured when available)."""
        if self.c2s_rotations is not None:
            return self.c2s_rotations
        return self.c2s_levels * self.rotations_per_level(self.c2s_levels)

    @property
    def s2c_rotation_count(self) -> int:
        """Rotations of the SlotToCoeff phase (measured when available).

        Derived from ``s2c_levels`` -- a schedule with ``s2c_levels !=
        c2s_levels`` prices each phase with its own per-level BSGS count.
        """
        if self.s2c_rotations is not None:
            return self.s2c_rotations
        return self.s2c_levels * self.rotations_per_level(self.s2c_levels)

    @property
    def rotation_count(self) -> int:
        """Total HE-Rotate invocations."""
        return self.c2s_rotation_count + self.s2c_rotation_count

    @property
    def plain_multiplication_count(self) -> int:
        """Plaintext (diagonal) multiplications inside the linear transforms."""
        if self.plain_multiplications is not None:
            return self.plain_multiplications
        return self.rotation_count

    @property
    def multiplication_count(self) -> int:
        """Ciphertext-ciphertext multiplications (EvalMod polynomial).

        Measured when available, otherwise the Paterson-Stockmeyer plan's
        non-scalar multiplication count for ``evalmod_degree`` -- the
        ``~2*sqrt(d)`` the paper's methodology assumes, computed instead of
        guessed.
        """
        if self.evalmod_multiplications is not None:
            return self.evalmod_multiplications
        return ps_operation_counts(self.evalmod_degree)["he_mult"]

    @property
    def evalmod_addition_count(self) -> int:
        """Homomorphic additions of the EvalMod phase."""
        if self.evalmod_additions is not None:
            return self.evalmod_additions
        return ps_operation_counts(self.evalmod_degree)["he_add"]

    @property
    def rescale_count(self) -> int:
        """Rescalings: one per consumed multiplicative level."""
        return self.c2s_levels + self.s2c_levels + self.multiplication_count

    @property
    def addition_count(self) -> int:
        """Ciphertext additions across all phases."""
        return self.rotation_count + self.evalmod_addition_count

    def operator_counts(self) -> dict[str, int]:
        """Mapping from HE-operator name to invocation count."""
        return {
            "rotate": self.rotation_count,
            "he_mult": self.multiplication_count,
            "rescale": self.rescale_count,
            "he_add": self.addition_count,
        }

    @classmethod
    def from_transforms(
        cls,
        degree: int,
        transforms: BootstrappingTransforms,
        *,
        evalmod: EvalModPoly | None = None,
        evalmod_multiplications: int | None = None,
        evalmod_additions: int | None = None,
    ) -> "BootstrappingSchedule":
        """A schedule grounded in the measured counts of a real pipeline.

        Rotation and plaintext-multiplication counts come from the ladder
        pair; EvalMod counts come from the fitted :class:`EvalModPoly`'s
        evaluation plan (or explicit measurements, e.g. the evaluator's
        ``he_mult`` operation counter after an :func:`eval_mod` run) -- the
        pipeline runs EvalMod once per coefficient half, hence the factor
        two.  With neither given, the analytic Paterson-Stockmeyer plan for
        ``evalmod_degree`` prices the phase.
        """
        evalmod_degree = 63
        if evalmod is not None:
            evalmod_degree = evalmod.series.degree
            if evalmod_multiplications is None:
                evalmod_multiplications = 2 * evalmod.multiplication_count()
            if evalmod_additions is None:
                evalmod_additions = 2 * evalmod.addition_count()
        return cls(
            degree=degree,
            c2s_levels=transforms.c2s_depth,
            s2c_levels=transforms.s2c_depth,
            evalmod_degree=evalmod_degree,
            evalmod_multiplications=evalmod_multiplications,
            evalmod_additions=evalmod_additions,
            c2s_rotations=transforms.c2s_rotation_count(),
            s2c_rotations=transforms.s2c_rotation_count(),
            plain_multiplications=transforms.plain_multiplication_count(),
        )
