"""Hybrid key switching (digit decomposition + special-prime ModDown).

Given a polynomial ``d`` (with ``level`` limbs) that is currently multiplied
by some source secret (``s**2`` after a tensor product, ``automorphism(s)``
after a rotation), key switching produces a ciphertext pair ``(ks0, ks1)``
under the canonical secret ``s`` such that ``ks0 + ks1 * s ~= d * s_source``.

The pipeline is *fused* the way the paper's compiler fuses the Decomposing
layer, and *evaluation-domain resident*: a value leaves the NTT domain only
where the algebra needs coefficients.  With ``L' = level + alpha``:

* **decompose** -- one stacked BConv extends all ``dnum`` digits in the
  coefficient domain, and one batched forward pass transforms the
  ``(dnum, L', N)`` tensor.  When the operand's evaluation-domain residues
  are known, each digit's *own* limbs (which BConv reproduces exactly) are
  copied from them and only the foreign limbs are transformed, as limb
  subsets of the extended basis' plan stack: ``level`` fewer forward rows
  (:func:`decompose_to_eval`).
* **inner products** -- the digit axis is contracted against views of the
  key's one evaluation-domain tensor in chunked uint64 einsums, reduced once
  per chunk (:func:`switch_extended_eval_lazy`).
* **ModDown** -- lazy: both accumulators share one stacked ``(2, L', N)``
  inverse pass, then one batched BConv of the special limbs and one
  subtract-and-divide kernel (:func:`mod_down_stacked`).

:func:`switch_key` on a coefficient-domain operand therefore costs exactly
one batched forward and one batched inverse pass regardless of ``dnum``
(counters assert the pass and limb-row counts).  ModDown commutes, up to
rounding, with everything a BSGS matvec does to a key-switched value
(plaintext multiply, rotate, add), so the linear-transform engine stops at
:func:`switch_extended_eval_lazy` -- its babies stay ``P``-scaled in the
extended evaluation basis -- and pays :func:`mod_down_stacked` once per
matvec (`repro.ckks.linear_transform`).  The fused pipeline is bit-identical
to the per-digit loop (the NTT is ``Z_q``-linear per limb and every reduction
exact), which survives as :func:`switch_key_unfused`, the oracle the fused
path is tested against.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.ckks.keys import KeySwitchKey
from repro.ckks.params import CkksParameters
from repro.errors import IncompatibleOperands, ParameterError
from repro.numtheory.crt import RnsBasis, inverse_column
from repro.poly import fused_kernels
from repro.poly.basis_conversion import conversion_for, stacked_conversion_for
from repro.poly.rns_poly import (
    COEFF_DOMAIN,
    EVAL_DOMAIN,
    RnsPolynomial,
    chain_constant,
    stacked_ntt_forward,
    stacked_ntt_inverse,
)


def decompose_and_extend(
    poly: RnsPolynomial, params: CkksParameters, level: int
) -> np.ndarray:
    """Digit-decompose ``poly`` and basis-extend every digit in one stacked BConv.

    Returns the coefficient-domain ``(dnum, level + alpha, N)`` tensor of all
    extended digits -- ``(..., dnum, level + alpha, N)`` for a batched input,
    with the whole batch folded into the *columns* of the one block GEMM so a
    ciphertext stack pays a single (larger) BConv rather than ``B`` small
    ones.  This is the per-ciphertext half of key switching that rotation
    hoisting computes once and reuses across many rotations.
    """
    level_basis = params.basis_at_level(level)
    poly = poly.to_coeff()
    if poly.basis.moduli != level_basis.moduli:
        raise IncompatibleOperands(
            f"polynomial basis ({poly.limb_count} limbs) does not match "
            f"the requested level {level}",
            poly,
        )
    conversion = stacked_conversion_for(
        level_basis, params.extended_basis(level), params.digit_partition(level)
    )
    residues = poly.residues
    if residues.ndim == 2:
        return conversion.convert_stacked(residues)
    batch_shape = residues.shape[:-2]
    limbs, degree = residues.shape[-2:]
    # Fold every leading axis into the GEMM column axis: (..., L, N) becomes
    # (L, B*N) column blocks, so the conversion runs as one block matmul for
    # the whole batch (bit-exact: each column is converted independently).
    folded = np.ascontiguousarray(
        np.moveaxis(residues.reshape(-1, limbs, degree), 0, 1).reshape(limbs, -1)
    )
    extended = conversion.convert_stacked(folded)
    dnum, ext_limbs = extended.shape[0], extended.shape[1]
    unfolded = extended.reshape(dnum, ext_limbs, -1, degree)
    return np.ascontiguousarray(
        np.moveaxis(unfolded, 2, 0).reshape(*batch_shape, dnum, ext_limbs, degree)
    )


def decompose_to_eval(
    poly: RnsPolynomial,
    params: CkksParameters,
    level: int,
    eval_residues: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluation-domain extended digits of ``poly``: decompose, extend, NTT.

    Without the operand's evaluation-domain residues this is one batched
    forward pass over the whole ``(..., dnum, level + alpha, N)`` tensor.
    When the caller holds them (``eval_residues``, or ``poly`` itself is in
    the evaluation domain) each digit's *own* limbs -- which BConv reproduces
    exactly, so their transform is the operand's -- are copied from there and
    only its foreign limbs are transformed, as limb subsets of the extended
    basis' plan stack: ``level`` fewer limb rows, bit-identical digits.
    """
    extended = params.extended_basis(level)
    if eval_residues is None and poly.domain == EVAL_DOMAIN:
        eval_residues = poly.residues
    digits = decompose_and_extend(poly, params, level)
    if eval_residues is None:
        return stacked_ntt_forward(extended, digits)
    for index, (start, stop) in enumerate(params.digit_partition(level)):
        digit = digits[..., index, :, :]
        digit[..., start:stop, :] = eval_residues[..., start:stop, :]
        for foreign in (slice(0, start), slice(stop, extended.size)):
            if foreign.start < foreign.stop:
                digit[..., foreign, :] = stacked_ntt_forward(
                    extended, digit[..., foreign, :], foreign
                )
    return digits


def _conditional_add(
    accumulator: np.ndarray, term: np.ndarray, moduli: np.ndarray
) -> None:
    """``accumulator = (accumulator + term) mod q`` in place, reduced operands.

    No division and no allocation: ``term`` is consumed as the scratch for
    ``accumulator - q``, which wraps above every residue exactly when the sum
    was already reduced, so the minimum picks the reduced value.
    """
    accumulator += term
    np.subtract(accumulator, moduli, out=term)
    np.minimum(accumulator, term, out=accumulator)


def switch_extended_eval(
    digits_eval: np.ndarray,
    key: KeySwitchKey,
    params: CkksParameters,
    level: int,
    *,
    addend: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Finish a key switch from eval-domain extended digits (lazy ModDown).

    ``digits_eval`` is the ``(dnum, level + alpha, N)`` evaluation-domain
    digit tensor.  The inner products with the key digits accumulate in the
    evaluation domain, into one stacked ``(2, L', N)`` accumulator tensor
    that stays there until its one inverse pass; the ModDown correction and
    divide then run once over the stacked coefficient tensor
    (:func:`mod_down_stacked`).

    ``addend`` -- a pair of evaluation-domain ``(..., level, N)`` residue
    tensors ``(x0, x1)`` -- returns ``(x0 + ks0, x1 + ks1)`` instead, bit for
    bit, without a transform of its own: ``P * x`` has zero special limbs, so
    ``ModDown(P * x + acc) = x + ModDown(acc)`` exactly, and the lift joins
    the accumulators' level limbs before their one stacked exit.
    """
    level_basis = params.basis_at_level(level)
    extended = params.extended_basis(level)
    stacked = _key_products(digits_eval, key, params, level)
    if addend is not None:
        moduli = level_basis.moduli_array[:, None]
        p_column = params.special_product_column(level)
        for index, residues in enumerate(addend):
            _conditional_add(
                stacked[..., index, :level, :], (residues * p_column) % moduli, moduli
            )
    down = mod_down_stacked(stacked_ntt_inverse(extended, stacked), params, level)
    return (
        RnsPolynomial(level_basis, down[..., 0, :, :], COEFF_DOMAIN),
        RnsPolynomial(level_basis, down[..., 1, :, :], COEFF_DOMAIN),
    )


def switch_extended_eval_lazy(
    digits_eval: np.ndarray,
    key: KeySwitchKey,
    params: CkksParameters,
    level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Key-switch inner products only, staying in the extended eval basis.

    The double-hoisting primitive: returns the ``(..., level + alpha, N)``
    accumulator pair still ``P``-scaled in the extended evaluation basis,
    letting the caller defer the inverse NTT and ModDown past further
    accumulation (the BSGS engine sums many baby terms per giant step and
    pays one domain exit for the whole sum).

    The key is two views of its one top-level tensor
    (:meth:`KeySwitchKey.at_level`), so the ``(b, a)`` pair is contracted in
    one einsum per limb range -- the ``level`` ciphertext limbs, the
    ``alpha`` special limbs -- into stacked ``(..., 2, L', N)`` accumulators.
    """
    stacked = _key_products(digits_eval, key, params, level)
    return stacked[..., 0, :, :], stacked[..., 1, :, :]


def _key_products(
    digits_eval: np.ndarray, key: KeySwitchKey, params: CkksParameters, level: int
) -> np.ndarray:
    """:func:`switch_extended_eval_lazy`'s pair as one stacked tensor."""
    level_part, special_part = key.at_level(level)
    expected = (level_part.shape[1], level + params.special_limbs, params.degree)
    if digits_eval.shape[-3:] != expected:
        raise ParameterError("key material does not match the digit partition")
    stacked = np.empty(
        digits_eval.shape[:-3] + (2,) + digits_eval.shape[-2:], dtype=np.uint64
    )
    for limbs, part, basis in (
        (slice(None, level), level_part, params.basis_at_level(level)),
        (slice(level, None), special_part, params.special_basis),
    ):
        modular_inner_product(
            digits_eval[..., limbs, :], part, basis, out=stacked[..., limbs, :]
        )
    return stacked


def modular_inner_product(
    digits_eval: np.ndarray,
    key_stack: np.ndarray,
    basis: RnsBasis,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``sum_d digits[d] * key[d] mod q`` without materialising the products.

    The digit axis is contracted by an integer einsum in chunks sized so the
    uint64 partial sums cannot overflow (operands are reduced, so each
    product is below ``q**2``); only the ``(..., L', N)`` accumulator ever
    pays a modular reduction.  ``digits_eval`` may carry leading batch axes
    (a ciphertext stack sharing one key); the contraction broadcasts the key
    across them in the same einsum.  The BSGS engine's inner sums (baby
    rotations against plaintext diagonals) are the same contraction.  A
    ``(K, D, L', N)`` ``key_stack`` (a switching key's ``(b, a)`` pair)
    contracts every ``k`` in the same einsum, into ``(..., K, L', N)``.
    ``out``, when given, receives the accumulator (it may be a view).
    """
    moduli = basis.moduli_array[:, None]
    product_bits = 2 * max((int(q) - 1).bit_length() for q in basis.moduli)
    chunk = max(1, 1 << max(0, 63 - product_bits))
    digit_count = digits_eval.shape[-3]
    subscripts = "...dln,dln->...ln" if key_stack.ndim == 3 else "...dln,kdln->...kln"
    accumulator: np.ndarray | None = None
    for start in range(0, digit_count, chunk):
        stop = min(start + chunk, digit_count)
        partial = np.einsum(
            subscripts,
            digits_eval[..., start:stop, :, :],
            key_stack[..., start:stop, :, :],
            out=out if accumulator is None else None,
        )
        partial %= moduli
        if accumulator is None:
            accumulator = partial
        else:
            accumulator += partial
            np.subtract(accumulator, moduli, out=partial)
            np.minimum(accumulator, partial, out=accumulator)
    return accumulator


def switch_key(
    poly: RnsPolynomial,
    key: KeySwitchKey,
    params: CkksParameters,
    level: int,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Apply fused hybrid key switching to ``poly`` (coefficient or eval domain).

    Returns ``(ks0, ks1)`` over the ``level``-limb ciphertext basis, in the
    coefficient domain.  Bit-identical to :func:`switch_key_unfused`; for a
    coefficient-domain input the whole switch runs exactly one batched
    forward and one batched inverse transform pass (lazy ModDown).  An
    evaluation-domain input pays ``level`` inverse rows for its coefficients
    and gets them back as the own-limb skip (:func:`decompose_to_eval`).
    """
    digits_eval = decompose_to_eval(poly, params, level)
    return switch_extended_eval(digits_eval, key, params, level)


def switch_key_unfused(
    poly: RnsPolynomial,
    key: KeySwitchKey,
    params: CkksParameters,
    level: int,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """The per-digit key-switch loop (kept as the fused path's bit-exact oracle).

    One BConv, one digit transform, two key products and two inverse NTTs per
    digit, with the accumulation in the coefficient domain -- the PR 1
    dataflow the fused pipeline is benchmarked against.
    """
    level_basis = params.basis_at_level(level)
    extended = params.extended_basis(level)
    poly = poly.to_coeff()
    if poly.basis.moduli != level_basis.moduli:
        raise IncompatibleOperands(
            f"polynomial basis ({poly.limb_count} limbs) does not match "
            f"the requested level {level}",
            poly,
        )

    acc0: RnsPolynomial | None = None
    acc1: RnsPolynomial | None = None
    digit_keys = key.to_coeff(level)
    for (start, stop), (b_j, a_j) in zip(params.digit_partition(level), digit_keys):
        digit_basis = level_basis.sub_basis(start, stop)
        digit_poly = RnsPolynomial(
            digit_basis, poly.residues[..., start:stop, :], "coeff"
        )
        # Basis-extend the digit to the full level + special basis (BConv);
        # the conversion constants are compiled once per basis pair.
        conversion = conversion_for(digit_basis, extended)
        extended_digit = conversion.convert(digit_poly)
        term0 = extended_digit.multiply(b_j).to_coeff()
        term1 = extended_digit.multiply(a_j).to_coeff()
        acc0 = term0 if acc0 is None else acc0.add(term0)
        acc1 = term1 if acc1 is None else acc1.add(term1)

    ks0 = mod_down(acc0, params, level)
    ks1 = mod_down(acc1, params, level)
    return ks0, ks1


def mod_down_stacked(
    stacked: np.ndarray, params: CkksParameters, level: int
) -> np.ndarray:
    """Vectorized RNS ModDown of a stacked ``(..., level + alpha, N)`` tensor.

    Standard ModDown algebra -- basis-convert the special-prime residues to
    the ciphertext basis, subtract, multiply by ``P^{-1}`` limb-wise -- but
    run once over every stacked operand: the BConv correction for all leading
    operands is one batched matmul (the generalized
    :meth:`BasisConversion.convert_residues`) and the subtract+divide is one
    broadcast of the fused ``moddown_sub_div`` kernel
    (`repro.poly.fused_kernels`): the subtract and the ``P^{-1}`` scale
    executed as one pass.
    Takes and returns coefficient-domain residues: ``(..., level, N)``.
    """
    level_basis = params.basis_at_level(level)
    special = params.special_basis
    if stacked.shape[-2] != level + special.size:
        raise ParameterError("ModDown input must live in the extended basis")
    correction = conversion_for(special, level_basis).convert_residues(
        stacked[..., level:, :]
    )
    build = partial(inverse_column, special.modulus_product, level_basis.moduli)
    return fused_kernels.moddown_sub_div(
        stacked[..., :level, :],
        correction,
        level_basis.moduli_array[:, None],
        chain_constant("moddown", (special, level_basis), build),
    )


def mod_down(
    poly: RnsPolynomial, params: CkksParameters, level: int
) -> RnsPolynomial:
    """Divide a (level + special)-basis polynomial by ``P`` with rounding.

    The single-polynomial entry point over :func:`mod_down_stacked` (the
    fused key switch uses the stacked kernel directly on its accumulator
    pair).
    """
    level_basis = params.basis_at_level(level)
    expected = level_basis.moduli + params.special_basis.moduli
    if poly.basis.moduli != expected:
        raise ParameterError("ModDown input must live in the extended basis")
    poly = poly.to_coeff()
    residues = mod_down_stacked(poly.residues, params, level)
    return RnsPolynomial(level_basis, residues, "coeff")
