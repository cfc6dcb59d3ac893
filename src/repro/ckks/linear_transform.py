"""Diagonal-encoded homomorphic linear transforms (BSGS + double hoisting).

The system's linear-algebra backbone: an arbitrary slot-space matrix ``M`` is
stored as its non-zero generalized diagonals (``M @ x = sum_k d_k * rot_k(x)``)
and evaluated with the baby-step/giant-step decomposition the paper prices its
CoeffToSlot/SlotToCoeff ladders with.  Writing ``k = g*n1 + b``::

    M @ x = sum_g rot_{g*n1}( sum_b rot_{-g*n1}(d_{g*n1+b}) * rot_b(x) )

so only ``~n1 + n2`` rotations are key-switched instead of one per diagonal.
``apply`` is *lazily double hoisted*: ModDown commutes (up to rounding) with
plaintext multiplication, rotation and addition, so every intermediate stays
``P``-scaled in the extended ``L' = L + alpha``-limb evaluation basis the
key-switch inner products are born in, and the whole matvec pays one ModDown
(limb rows through the NTT per step; ``L`` = level, ``alpha`` special limbs):

* **input** -- ``c0`` and ``c1`` enter the evaluation domain once (``2L``
  forward), and the one hoisted key-switch decomposition that serves every
  baby rotation skips each digit's own limbs because ``c1``'s transform is
  already held (``dnum * L' - L`` forward);
* **baby step** -- gather the hoisted digits, take the key inner products
  (:func:`repro.ckks.keyswitch.switch_extended_eval_lazy`) and add the
  gathered ``c0`` lifted by ``[P]_{q_i}`` (zero special limbs, so the final
  division by ``P`` is exact on it); the unrotated ``b = 0`` term is the same
  lift of ``(c0, c1)``.  No transform, no ModDown;
* **inner sums** -- per giant group one lazily reduced modular inner product
  against the cached extended-basis plaintext stack: raw uint64 sums in
  chunks that cannot overflow, one ``%`` per chunk instead of one per
  diagonal, no transforms;
* **giant step** -- the group's pair is gathered; its ``c0`` is only ever
  added, so it goes straight into the extended-basis accumulator; its ``c1``
  must be key-switched, so it alone leaves (``L'`` inverse, coefficient
  ModDown, ``dnum * L'`` forward for the fresh decomposition) and the
  *un-ModDown'd* key-switch accumulators join the sum.  Giant groups share
  nothing, so on rings of :data:`FAN_OUT_MIN_DEGREE` and up they run side by
  side on the core budget (:func:`repro.parallel.fan_out`);
* **output** -- one stacked ``2L'`` inverse and one ModDown for everything.

The rounding therefore happens once per output (plus once per giant ``c1``)
instead of once per rotation, so ``apply`` is decode-equivalent -- not
bit-identical -- to the loop of public ``rotate_hoisted`` / ``multiply_plain``
/ ``add`` / ``rotate`` calls; its bit-exact oracle is the naive per-term
replay of this same dataflow in ``tests/bsgs_reference.py``.  Plaintext
diagonals are encoded lazily per level, so one transform instance serves
ciphertexts at any level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.ckks.batch import stack_ciphertexts, unstack_ciphertext
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoding import (
    CkksEncoder,
    matrix_diagonals,
    matrix_from_diagonals,
    rotate_slots,
)
from repro.cancellation import checkpoint
from repro.ckks.keyswitch import (
    _conditional_add,
    decompose_to_eval,
    mod_down_stacked,
    modular_inner_product,
    switch_extended_eval_lazy,
)
from repro.diagnostics import BoundedLruCache, register_cache_group
from repro.errors import IncompatibleOperands, MissingKeyError, ParameterError
from repro.numtheory.crt import RnsBasis
from repro.parallel import fan_out
from repro.poly.ring import automorphism_eval_indices
from repro.poly.rns_poly import COEFF_DOMAIN, RnsPolynomial, stacked_ntt_inverse


#: Smallest ring whose giant groups are worth handing to another core.  On a
#: 2-vCPU host the bare-evaluator matvec + square circuit at two cores against
#: one measured N = 2048 -16 %, 1024 -10 %, 512 even, 256 +17 %, 64 +24 %.
FAN_OUT_MIN_DEGREE = 1024

#: Bound on memoised transforms per encoder (each holds per-level
#: eval-domain plaintext tensors, so entries are heavy).
TRANSFORM_CACHE_LIMIT = 128
_TRANSFORM_CACHE_GROUP = register_cache_group("encoder.transforms")


def cached_transform(
    encoder: CkksEncoder, key, factory
) -> "DiagonalLinearTransform":
    """Per-encoder get-or-build memo of constructed transforms.

    Consumers that rebuild the same transform per call (convolution kernels,
    fixed weight matrices) route construction through this helper so repeated
    applications share one instance -- and therefore its cached eval-domain
    plaintext tensors.  The memo lives on the encoder instance, whose
    lifetime matches the parameter set the transforms are bound to, and
    evicts least-recently-used past :data:`TRANSFORM_CACHE_LIMIT`.
    """
    cache = getattr(encoder, "_transform_cache", None)
    if cache is None:
        cache = _TRANSFORM_CACHE_GROUP.add(
            BoundedLruCache(name="encoder.transforms", capacity=TRANSFORM_CACHE_LIMIT)
        )
        encoder._transform_cache = cache
    return cache.get_or_create(key, factory)


def required_rotation_steps(*transforms) -> list[int]:
    """The union of rotation steps a sequence of transforms key-switches.

    Feed the result to :meth:`KeyGenerator.galois_keys_for_steps` to generate
    exactly the Galois keys the BSGS ladders need (baby and giant index sets,
    deduplicated across transforms).
    """
    steps: set[int] = set()
    for transform in transforms:
        steps.update(transform.rotation_steps())
    return sorted(steps)


def _bsgs_cost(indices: list[int], n1: int) -> int:
    """Key-switched rotations a BSGS split at ``n1`` pays for these diagonals."""
    babies = {k % n1 for k in indices} - {0}
    giants = {(k // n1) * n1 for k in indices} - {0}
    return len(babies) + len(giants)


def _default_baby_count(indices: list[int], slots: int) -> int:
    """Pick the power-of-two baby count minimising key-switched rotations.

    For a dense diagonal set this lands at ``~sqrt(n)`` (the classic BSGS
    balance); for the sparse index sets of collapsed FFT factors the search
    exploits their structure and often beats the square-root choice.
    """
    candidates = [1 << shift for shift in range(slots.bit_length())]
    return min(candidates, key=lambda n1: (_bsgs_cost(indices, n1), n1))


@dataclass
class DiagonalLinearTransform:
    """A slot-space linear map encoded as generalized diagonals.

    Attributes
    ----------
    encoder:
        The encoder whose parameter set the transform is bound to (plaintext
        diagonals are encoded through it, hitting its memoisation cache).
    diagonals:
        Mapping from diagonal index ``k`` (normalised to ``[0, slots)``) to
        the length-``slots`` complex diagonal vector ``d_k``.
    n1:
        Baby-step count of the BSGS split (``k = (k // n1) * n1 + k % n1``).
    scale:
        Encoding scale of the diagonal plaintexts.  ``None`` uses the
        parameter set's default Delta; ``level_matched=True`` overrides it
        per level with the prime the subsequent rescale drops, keeping the
        ciphertext scale invariant across a transform ladder.
    level_matched:
        See ``scale``.
    """

    encoder: CkksEncoder
    diagonals: dict[int, np.ndarray]
    n1: int
    scale: float | None = None
    level_matched: bool = False
    _groups: dict[int, list[int]] = field(init=False, repr=False)
    _extended_plain_cache: dict[int, dict[int, np.ndarray]] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        slots = self.slots
        if not self.diagonals:
            raise ParameterError("transform needs at least one non-zero diagonal")
        if not 1 <= self.n1 <= slots:
            raise ParameterError(f"baby count n1 must be in [1, {slots}]")
        groups: dict[int, list[int]] = {}
        for k in sorted(self.diagonals):
            groups.setdefault(k // self.n1, []).append(k % self.n1)
        self._groups = groups

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_diagonals(
        cls,
        encoder: CkksEncoder,
        diagonals: Mapping[int, np.ndarray],
        *,
        n1: int | None = None,
        scale: float | None = None,
        level_matched: bool = False,
    ) -> "DiagonalLinearTransform":
        """Build a transform from a ``{diagonal index: vector}`` mapping.

        Indices are normalised modulo the slot count, exactly-zero diagonals
        are dropped, and (unless given) ``n1`` is chosen by a search over
        power-of-two splits minimising the key-switched rotation count.
        """
        slots = encoder.params.slot_count
        normalised: dict[int, np.ndarray] = {}
        for k, vector in diagonals.items():
            vector = np.asarray(vector, dtype=np.complex128).ravel()
            if vector.size != slots:
                raise ParameterError(
                    f"diagonal {k} has {vector.size} entries, expected {slots}"
                )
            if not np.any(vector):
                continue
            index = int(k) % slots
            if index in normalised:
                raise ParameterError(f"duplicate diagonal index {index}")
            normalised[index] = vector
        if not normalised:
            raise ParameterError("transform needs at least one non-zero diagonal")
        if n1 is None:
            n1 = _default_baby_count(sorted(normalised), slots)
        return cls(
            encoder=encoder,
            diagonals=normalised,
            n1=int(n1),
            scale=scale,
            level_matched=level_matched,
        )

    @classmethod
    def from_matrix(
        cls,
        encoder: CkksEncoder,
        matrix: np.ndarray,
        *,
        tol: float = 1e-12,
        n1: int | None = None,
        scale: float | None = None,
        level_matched: bool = False,
    ) -> "DiagonalLinearTransform":
        """Build a transform from a dense ``slots x slots`` matrix."""
        return cls.from_diagonals(
            encoder,
            matrix_diagonals(matrix, tol=tol),
            n1=n1,
            scale=scale,
            level_matched=level_matched,
        )

    # --------------------------------------------------------------- queries
    @property
    def slots(self) -> int:
        """Slot count of the bound parameter set."""
        return self.encoder.params.slot_count

    @property
    def baby_steps(self) -> list[int]:
        """Distinct baby rotation offsets (including 0 if used)."""
        return sorted({b for babies in self._groups.values() for b in babies})

    @property
    def giant_steps(self) -> list[int]:
        """Distinct non-zero giant rotation offsets (multiples of ``n1``)."""
        return sorted(g * self.n1 for g in self._groups if g != 0)

    def rotation_steps(self) -> list[int]:
        """All non-zero rotation offsets ``apply`` key-switches."""
        steps = {b for b in self.baby_steps if b != 0}
        steps.update(self.giant_steps)
        return sorted(steps)

    def rotation_count(self) -> int:
        """Key-switched rotations per ``apply`` (baby + giant)."""
        return len([b for b in self.baby_steps if b != 0]) + len(self.giant_steps)

    def diagonal_count(self) -> int:
        """Number of non-zero generalized diagonals (plaintext multiplies)."""
        return len(self.diagonals)

    def matrix(self) -> np.ndarray:
        """The dense slot matrix this transform evaluates."""
        return matrix_from_diagonals(self.diagonals, self.slots)

    def apply_plain(self, vector: np.ndarray) -> np.ndarray:
        """NumPy reference of the transform (the homomorphic oracle)."""
        vector = np.asarray(vector, dtype=np.complex128).ravel()
        result = np.zeros(self.slots, dtype=np.complex128)
        for k, diagonal in self.diagonals.items():
            result += diagonal * rotate_slots(vector, k)
        return result

    # ------------------------------------------------------------ evaluation
    def plaintext_scale(self, level: int) -> float:
        """Scale the diagonal plaintexts carry at ``level``."""
        if self.level_matched:
            return float(self.encoder.params.modulus_basis.moduli[level - 1])
        if self.scale is not None:
            return float(self.scale)
        return float(self.encoder.params.scale)

    def _plaintexts_at(self, level: int) -> dict[int, np.ndarray]:
        """Eval-domain residue stacks of the pre-rotated diagonals, cached.

        The BSGS identity needs diagonal ``k = g*n1 + b`` pre-rotated by
        ``-g*n1`` so the giant rotation can be hoisted outside the inner sum;
        the encoded plaintexts are static per level, so their forward NTTs
        are paid once and the read-only tensors shared across applies.  They
        are encoded over the extended (``level + alpha``-limb) basis, because
        they multiply babies that have not left the key-switch basis.  Each
        giant group ``g`` maps to one ``(babies, level + alpha, N)`` stack in
        the order of ``_groups[g]`` -- the right-hand operand of its inner
        sum.
        """
        cached = self._extended_plain_cache.get(level)
        if cached is None:
            scale = self.plaintext_scale(level)
            basis = self.encoder.params.extended_basis(level)
            cached = {}
            for g, babies in self._groups.items():
                cached[g] = np.stack(
                    [
                        self.encoder.encode_at_basis(
                            np.roll(self.diagonals[g * self.n1 + b], g * self.n1),
                            scale,
                            basis,
                        )
                        .to_eval()
                        .residues
                        for b in babies
                    ]
                )
                cached[g].flags.writeable = False
            self._extended_plain_cache[level] = cached
        return cached

    def _inner_sum(self, babies, plaintexts, g: int, basis: RnsBasis) -> np.ndarray:
        """Giant group ``g``'s ``sum_b baby_b * plain_(g,b) mod q``, as a pair.

        ``babies`` is the ``(..., 2, len(baby_steps), limbs, N)`` tensor of
        every baby's extended-basis ``(c0, c1)``; the sum is one lazily
        reduced :func:`modular_inner_product` (raw uint64 sums in chunks that
        cannot overflow, one ``%`` per chunk rather than per diagonal).
        """
        baby_steps = self.baby_steps
        if self._groups[g] != baby_steps:
            positions = [baby_steps.index(b) for b in self._groups[g]]
            babies = babies[..., positions, :, :]
        return modular_inner_product(babies, plaintexts[g], basis)

    def _stamp_noise(self, evaluator, ciphertext: Ciphertext, output: Ciphertext):
        """Propagate the input's noise estimate to ``output`` and guard it."""
        if ciphertext.noise_bits is not None:
            model = evaluator.noise
            bits = ciphertext.noise_bits
            if self.baby_steps != [0]:
                bits = model.keyswitch_bits(bits)
            bits = model.multiply_plain_bits(
                bits, ciphertext.scale, self.plaintext_scale(output.level)
            )
            if self.giant_steps:
                bits = model.keyswitch_bits(bits)
            # The output sums `diagonal_count` such terms.
            bits += math.log2(max(self.diagonal_count(), 1))
            output.noise_bits = bits
            model.guard(output.level, bits)
        return output

    def apply(self, evaluator, ciphertext: Ciphertext) -> Ciphertext:
        """Evaluate the transform on a ciphertext (BSGS, lazily double hoisted).

        Returns a ciphertext at the same level whose scale is multiplied by
        the plaintext scale; callers rescale when they are ready to drop the
        level.  Decrypts to ``matrix() @ slots`` up to CKKS noise.
        """
        params = evaluator.params
        if params.slot_count != self.slots:
            raise IncompatibleOperands(
                f"transform is bound to {self.slots} slots but the evaluator "
                f"packs {params.slot_count}",
                self.encoder.params,
                params,
            )
        evaluator.validate(ciphertext, name="ciphertext")
        if evaluator.galois_keys is None and self.rotation_steps():
            raise MissingKeyError(
                "the transform's rotations require Galois keys; generate "
                "them with KeyGenerator.galois_keys_for_steps("
                "required_rotation_steps(transform))"
            )
        level = ciphertext.level
        degree = params.degree
        basis = params.basis_at_level(level)
        extended = params.extended_basis(level)
        moduli = basis.moduli_array[:, None]
        extended_moduli = extended.moduli_array[:, None]
        p_column = params.special_product_column(level)
        plaintexts = self._plaintexts_at(level)
        weight = evaluator._batch_weight(ciphertext)

        # Baby rotations: the input enters the evaluation domain once and one
        # hoisted decomposition (reusing c1's transform) serves every baby.
        # Baby i's P-scaled extended-basis (c0, c1) is babies[..., :, i, :, :]:
        # key inner products as born, level-basis components lifted by
        # [P]_{q_i} with zero special limbs.  No baby pays a transform.
        baby_steps = self.baby_steps
        c0_eval = ciphertext.c0.to_eval().residues
        c1_eval = ciphertext.c1.to_eval().residues
        c0_lifted = (c0_eval * p_column) % moduli  # the lift commutes with gathers
        hoisted = None
        if baby_steps != [0]:
            hoisted = evaluator.hoist(ciphertext, c1_eval=c1_eval)
        babies = np.empty(
            c0_eval.shape[:-2] + (2, len(baby_steps), extended.size, degree),
            dtype=np.uint64,
        )
        for index, b in enumerate(baby_steps):
            if b == 0:
                babies[..., 0, index, :level, :] = c0_lifted
                babies[..., 1, index, :level, :] = (c1_eval * p_column) % moduli
                babies[..., index, level:, :] = 0
                continue
            checkpoint()  # BSGS ladders are long and bypass validate()
            exponent = self.encoder.slot_rotation_exponent(b)
            key = evaluator.galois_keys.key_for(exponent)
            evaluator.count_operation("rotate", weight)
            indices = automorphism_eval_indices(degree, exponent)
            ks0, ks1 = switch_extended_eval_lazy(
                np.take(hoisted.digits_eval, indices, axis=-1), key, params, level
            )
            _conditional_add(
                ks0[..., :level, :], np.take(c0_lifted, indices, axis=-1), moduli
            )
            babies[..., 0, index, :, :] = ks0
            babies[..., 1, index, :, :] = ks1

        # Giant steps.  Group g's inner sum over its babies is one lazily
        # reduced modular inner product in the extended basis.  A giant
        # rotation gathers the pair; c0 is only added from here on, so it
        # stays; c1 alone leaves for the ModDown + fresh decomposition its
        # key switch needs, and comes back as un-ModDown'd accumulators.
        # Key lookups (and their MissingKeyError) and the operation counts
        # happen here, on the calling thread; the groups then share nothing
        # and fan out, and their (..., 2, L', N) P-scaled terms are summed in
        # group order -- modular sums are exact, so any schedule gives the
        # same bits.
        groups = sorted(self._groups)
        giant_keys = {}
        for count, g in enumerate(groups):
            if count:
                evaluator.count_operation("he_add", weight)
            if g != 0:
                exponent = self.encoder.slot_rotation_exponent(g * self.n1)
                giant_keys[g] = (exponent, evaluator.galois_keys.key_for(exponent))
                evaluator.count_operation("rotate", weight)

        def giant_group(g: int) -> np.ndarray:
            checkpoint()
            term = self._inner_sum(babies, plaintexts, g, extended)
            if g == 0:
                return term
            exponent, key = giant_keys[g]
            term = np.take(term, automorphism_eval_indices(degree, exponent), axis=-1)
            rotated1 = mod_down_stacked(
                stacked_ntt_inverse(extended, term[..., 1, :, :]), params, level
            )
            ks0, ks1 = switch_extended_eval_lazy(
                decompose_to_eval(
                    RnsPolynomial(basis, rotated1, COEFF_DOMAIN), params, level
                ),
                key,
                params,
                level,
            )
            _conditional_add(term[..., 0, :, :], ks0, extended_moduli)
            term[..., 1, :, :] = ks1
            return term

        if degree >= FAN_OUT_MIN_DEGREE:
            terms = fan_out(giant_group, groups)
        else:
            terms = [giant_group(g) for g in groups]
        total, *rest = terms
        for term in rest:
            _conditional_add(total, term, extended_moduli)

        # One domain exit and one ModDown for the whole matvec.
        down = mod_down_stacked(stacked_ntt_inverse(extended, total), params, level)
        output = Ciphertext(
            c0=RnsPolynomial(basis, down[..., 0, :, :], COEFF_DOMAIN),
            c1=RnsPolynomial(basis, down[..., 1, :, :], COEFF_DOMAIN),
            scale=ciphertext.scale * self.plaintext_scale(level),
            level=level,
        )
        return self._stamp_noise(evaluator, ciphertext, output)

    def apply_batch(self, evaluator, ciphertexts: list[Ciphertext]) -> list[Ciphertext]:
        """Evaluate the transform on ``B`` compatible ciphertexts at once.

        The batch is stacked along a leading axis and runs through one
        :meth:`apply`: the cached plaintext tensors, the shared hoisted baby
        rotations and the per-giant key switches are all paid once for the
        whole batch (the batch rides the stacked BConv/NTT/einsum kernels).
        Bit-identical to applying the transform to each member sequentially.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            raise ParameterError("apply_batch needs at least one ciphertext")
        if len(ciphertexts) == 1:
            return [self.apply(evaluator, ciphertexts[0])]
        return unstack_ciphertext(self.apply(evaluator, stack_ciphertexts(ciphertexts)))


def bsgs_rotation_counts(diagonal_indices, slots: int, n1: int | None = None):
    """``(n1, baby count, giant count)`` for a diagonal index set.

    The analytic mirror of :meth:`DiagonalLinearTransform.rotation_count`,
    usable by cost models without building plaintexts: for a dense index set
    this reproduces the classic ``~2*sqrt(n)`` BSGS rotation count.
    """
    indices = sorted({int(k) % slots for k in diagonal_indices})
    if not indices:
        raise ParameterError("need at least one diagonal index")
    if n1 is None:
        n1 = _default_baby_count(indices, slots)
    babies = {k % n1 for k in indices} - {0}
    giants = {(k // n1) * n1 for k in indices} - {0}
    return int(n1), len(babies), len(giants)
