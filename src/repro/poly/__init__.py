"""Polynomial-ring substrate: negacyclic rings, NTT variants, RNS polynomials.

The CKKS scheme computes in ``R_Q = Z_Q[x]/(x^N + 1)``.  This package provides

* ``negacyclic`` -- schoolbook negacyclic arithmetic, the exactness oracle,
* ``ntt_reference`` -- the radix-2 (Cooley-Tukey) negacyclic NTT/INTT with
  natural-order semantics, used as the functional reference for every other
  NTT formulation in the library,
* ``ntt_engine`` -- the production path: cached ``NttPlanStack`` objects
  transforming whole ``(L, N)`` residue matrices (a single-modulus ring is
  the ``L = 1`` stack) on the four-step GEMM rung, its stacked tables
  built on first use, with the reference oracle as the one fallback,
* ``ring`` -- a ``PolyRing`` bundling modulus, roots of unity and NTT plans,
* ``rns_poly`` -- limb-parallel RNS polynomials over an ``RnsBasis``,
* ``basis_conversion`` -- the fast basis conversion (BConv) kernel whose
  step-2 modular matrix multiplication BAT accelerates (paper Table VI),
* ``gemm_mod`` -- the shared exact split-float64 modular GEMM kernel behind
  BConv and the engine's ``four_step`` backend.
"""

from repro.poly.basis_conversion import BasisConversion, conversion_for
from repro.poly.gemm_mod import as_blas_operand, modular_matmul
from repro.poly.ntt_engine import (
    BACKEND_FOUR_STEP,
    BACKEND_REFERENCE,
    NttPlanStack,
    clear_quarantine,
    plan_stack_for,
    quarantine_backend,
    quarantined_backends,
    reset_sentinels,
    verify_plan,
)
from repro.poly.negacyclic import (
    negacyclic_convolve,
    poly_add,
    poly_negate,
    poly_scalar_mul,
    poly_sub,
)
from repro.poly.ntt_reference import (
    negacyclic_evaluate_direct,
    ntt_inverse_negacyclic,
    ntt_forward_negacyclic,
)
from repro.poly.ring import PolyRing
from repro.poly.rns_poly import RnsPolynomial

__all__ = [
    "BACKEND_FOUR_STEP",
    "BACKEND_REFERENCE",
    "BasisConversion",
    "NttPlanStack",
    "PolyRing",
    "RnsPolynomial",
    "as_blas_operand",
    "clear_quarantine",
    "conversion_for",
    "modular_matmul",
    "plan_stack_for",
    "quarantine_backend",
    "quarantined_backends",
    "reset_sentinels",
    "verify_plan",
    "negacyclic_convolve",
    "negacyclic_evaluate_direct",
    "ntt_forward_negacyclic",
    "ntt_inverse_negacyclic",
    "poly_add",
    "poly_negate",
    "poly_scalar_mul",
    "poly_sub",
]
