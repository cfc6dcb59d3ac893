"""A deliberately naive replay of the lazily double-hoisted BSGS dataflow.

``DiagonalLinearTransform.apply`` is decode-equivalent, not bit-identical, to
the loop of public evaluator operators (it ModDowns once per matvec instead of
once per rotation), so its bit-exact oracle is this module: the *same* algebra
-- where the values are ``P``-scaled, where the two kinds of ModDown happen --
computed with none of the engine's machinery.  One ``RnsPolynomial`` per
value, one ``%`` per product (``RnsPolynomial.multiply``), one BConv / two key
products per digit (the ``switch_key_unfused`` loop, stopped before its
ModDown), the coefficient-domain single-polynomial ``mod_down`` and the public
coefficient-domain ``automorphism``.  No stacked tensors, no lazy sums, no
evaluation-point gathers, no cached plaintexts.

Every step is exact arithmetic modulo each limb, so the engine must agree
residue for residue.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.keyswitch import mod_down
from repro.numtheory.crt import RnsBasis
from repro.poly.basis_conversion import conversion_for
from repro.poly.rns_poly import RnsPolynomial


def extended_digits(poly, params, level) -> list[RnsPolynomial]:
    """Each key-switch digit of ``poly`` basis-extended on its own (BConv)."""
    level_basis = params.basis_at_level(level)
    extended = params.extended_basis(level)
    coeff = poly.to_coeff()
    digits = []
    for start, stop in params.digit_partition(level):
        digit_basis = RnsBasis(
            moduli=level_basis.moduli[start:stop], degree=params.degree
        )
        digit = RnsPolynomial(digit_basis, coeff.residues[start:stop].copy())
        digits.append(conversion_for(digit_basis, extended).convert(digit))
    return digits


def key_products(digits, key, level):
    """``sum_j digit_j * (b_j, a_j)``: the key switch *before* its ModDown."""
    total0 = total1 = None
    for digit, (b_j, a_j) in zip(digits, key.to_coeff(level), strict=True):
        term0, term1 = digit.multiply(b_j), digit.multiply(a_j)
        total0 = term0 if total0 is None else total0.add(term0)
        total1 = term1 if total1 is None else total1.add(term1)
    return total0, total1


def lift(poly, params, level) -> RnsPolynomial:
    """``P * poly`` over the extended basis (its special limbs are zero)."""
    scaled = poly.to_coeff().scalar_mul(params.special_product)
    padding = np.zeros((params.special_limbs, params.degree), dtype=np.uint64)
    return RnsPolynomial(
        params.extended_basis(level), np.concatenate([scaled.residues, padding])
    )


def reference_apply(evaluator, transform, ciphertext) -> Ciphertext:
    """``transform.apply(evaluator, ciphertext)``, one polynomial at a time."""
    params, encoder = evaluator.params, transform.encoder
    level, n1 = ciphertext.level, transform.n1
    extended = params.extended_basis(level)
    scale = transform.plaintext_scale(level)

    # Babies: P-scaled extended-basis pairs.  Hoisting extends c1's digits
    # before the automorphism, so the reference rotates the extended digits.
    digits = extended_digits(ciphertext.c1, params, level)
    babies = {}
    for b in transform.baby_steps:
        if b == 0:
            babies[b] = (
                lift(ciphertext.c0, params, level),
                lift(ciphertext.c1, params, level),
            )
            continue
        exponent = encoder.slot_rotation_exponent(b)
        ks0, ks1 = key_products(
            [digit.automorphism(exponent) for digit in digits],
            evaluator.galois_keys.key_for(exponent),
            level,
        )
        rotated0 = lift(ciphertext.c0.automorphism(exponent), params, level)
        babies[b] = (ks0.add(rotated0.to_eval()), ks1)

    total = None
    for g in sorted(transform._groups):
        inner = None
        for b in transform._groups[g]:
            plain = encoder.encode_at_basis(
                np.roll(transform.diagonals[g * n1 + b], g * n1), scale, extended
            )
            term = tuple(component.multiply(plain) for component in babies[b])
            inner = term if inner is None else (
                inner[0].add(term[0]),
                inner[1].add(term[1]),
            )
        if g != 0:
            # Giant step: c0 is only rotated; c1 is ModDown'd, key-switched
            # and comes back P-scaled (no ModDown on the key products).
            exponent = encoder.slot_rotation_exponent(g * n1)
            rotated1 = mod_down(inner[1].automorphism(exponent), params, level)
            ks0, ks1 = key_products(
                extended_digits(rotated1, params, level),
                evaluator.galois_keys.key_for(exponent),
                level,
            )
            inner = (inner[0].automorphism(exponent).to_eval().add(ks0), ks1)
        total = inner if total is None else (
            total[0].add(inner[0]),
            total[1].add(inner[1]),
        )

    return Ciphertext(
        c0=mod_down(total[0], params, level),
        c1=mod_down(total[1], params, level),
        scale=ciphertext.scale * scale,
        level=level,
    )
