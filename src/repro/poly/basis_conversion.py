"""Fast RNS basis conversion (BConv), paper section F2 and Table VI.

BConv maps the residues of a polynomial from a source basis
``B1 = {q_0 .. q_{L-1}}`` to a target basis ``B2 = {p_0 .. p_{L'-1}}``:

    Conv(a)_j = ( sum_i [a_i * qhat_i^{-1}]_{q_i} * [Q/q_i]_{p_j} ) mod p_j

The computation splits into the two steps the paper profiles:

* **Step 1** -- ``L`` independent length-``N`` vectorized modular
  multiplications by the per-limb constants ``qhat_i^{-1}`` (VPU work), and
* **Step 2** -- a modular matrix multiplication against the pre-known
  constant matrix ``[Q/q_i]_{p_j}`` (the kernel BAT converts into an 8-bit
  MXU matmul, giving the Table VI speedups).  It runs on the library's one
  exact modular GEMM (`repro.poly.gemm_mod`), the kernel the NTT's GEMMs run
  on too.

One :class:`BasisConversion` serves both uses in key switching.  Its source
basis is tiled by ``D`` digits, each converted to the whole target basis
with its own constants, and the ``D`` conversion matrices are stacked into
one ``(D L', L)`` block (zero outside each digit's columns), so step 2 is
one batched matmul call for every digit, one slice per digit and chunk: the
all-digit Decomposing layer the paper's compiler hands to the MXU
(:func:`stacked_conversion_for`, ``D = dnum``).
A plain conversion is the one-digit case (:func:`conversion_for`, ModDown
and the per-digit key-switch oracle).

The result of fast basis conversion is *approximate* in the standard sense:
it equals ``a + e * Q (mod p_j)`` for a small non-negative integer
``e < L``.  ``convert_exact`` provides the exact (CRT-reconstructing) variant
used by tests and by rescaling correctness checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.numtheory.crt import RnsBasis
from repro.poly.gemm_mod import SplitGemm, bigint_matmul, split_gemm
from repro.poly.rns_poly import COEFF_DOMAIN, RnsPolynomial, chain_constant


@dataclass
class BasisConversion:
    """Precompiled constants for converting from ``source`` to ``target``.

    Attributes
    ----------
    source:
        The source RNS basis (the ``L`` input limbs).
    target:
        The target RNS basis (the ``L'`` output limbs) every digit converts to.
    partitions:
        ``(start, stop)`` limb ranges of the ``D`` digits, in order, tiling
        ``0..L``; empty (the default) means one digit, the whole source.
    hat_inverses:
        The ``(L,)`` step-1 constants, each limb's within its digit.
    conversion_matrix:
        The ``(D L', L)`` step-2 block: rows ``d L' .. (d+1) L'`` hold digit
        ``d``'s ``[Q_d / q_i]_{p_j}`` in its columns and zero elsewhere.
    """

    source: RnsBasis
    target: RnsBasis
    partitions: tuple[tuple[int, int], ...] = ()
    hat_inverses: np.ndarray = field(init=False, repr=False)
    conversion_matrix: np.ndarray = field(init=False, repr=False)
    _target_col: np.ndarray = field(init=False, repr=False)
    _gemm: SplitGemm | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.source.degree != self.target.degree:
            raise ValueError("source and target bases must share the ring degree")
        if not self.partitions:
            self.partitions = ((0, self.source.size),)
        expected_start = 0
        for start, stop in self.partitions:
            if start != expected_start or stop <= start or stop > self.source.size:
                raise ValueError("digit partitions must tile the source basis")
            expected_start = stop
        if expected_start != self.source.size:
            raise ValueError("digit partitions must tile the source basis")

        digits, rows = len(self.partitions), self.target.size
        hat = np.empty(self.source.size, dtype=np.uint64)
        block = np.zeros((digits, rows, self.source.size), dtype=np.uint64)
        for d, (start, stop) in enumerate(self.partitions):
            hat[start:stop], block[d, :, start:stop] = _conversion_constants(
                self.source.sub_basis(start, stop), self.target
            )
        self.hat_inverses = hat
        self.conversion_matrix = block.reshape(digits * rows, self.source.size)
        self._target_col = np.tile(self.target.moduli_array, digits)[:, None]
        source_bits = max((int(q) - 1).bit_length() for q in self.source.moduli)
        self._gemm = split_gemm(block, self._target_col, source_bits)

    # ----------------------------------------------------------------- step 1
    def step1(self, residues: np.ndarray) -> np.ndarray:
        """Per-limb scaling ``b_i = a_i * qhat_i^{-1} mod q_i`` over (..., L, N).

        Leading batch axes (e.g. the stacked ModDown's ``(2, alpha, N)``
        accumulator pair) broadcast through the per-limb constants.
        """
        residues = np.asarray(residues, dtype=np.uint64)
        moduli = self.source.moduli_array[:, None]
        return (residues * self.hat_inverses[:, None]) % moduli

    # ----------------------------------------------------------------- step 2
    def step2(self, scaled: np.ndarray) -> np.ndarray:
        """Modular matrix multiplication against the conversion matrix.

        ``scaled`` is the (..., L, N) output of step 1; the result is the
        (..., D L', N) residue tensor in the target basis, digit by digit
        (leading batch axes ride through ``np.matmul`` broadcasting).
        Moduli with an exact float split take the shared split GEMM, wider
        ones `gemm_mod.bigint_matmul`.
        """
        scaled = np.asarray(scaled, dtype=np.uint64)
        if self._gemm is not None:
            return self._gemm(scaled)
        return bigint_matmul(self.conversion_matrix, scaled, self._target_col)

    # ------------------------------------------------------------------- API
    def convert_residues(self, residues: np.ndarray) -> np.ndarray:
        """Fast (approximate) conversion of an (..., L, N) residue tensor.

        ``(..., L', N)`` for a one-digit conversion, ``(..., D L', N)``
        digit by digit otherwise.
        """
        return self.step2(self.step1(residues))

    def convert_stacked(self, residues: np.ndarray) -> np.ndarray:
        """Convert every digit of an ``(..., L, N)`` residue tensor to ``(..., D, L', N)``."""
        converted = self.convert_residues(residues)
        digits = (len(self.partitions), self.target.size)
        return converted.reshape(converted.shape[:-2] + digits + converted.shape[-1:])

    def convert(self, polynomial: RnsPolynomial) -> RnsPolynomial:
        """Fast (approximate) one-digit conversion of a coefficient-domain polynomial."""
        if polynomial.domain != COEFF_DOMAIN:
            raise ValueError("BConv operates on coefficient-domain polynomials")
        if polynomial.basis.moduli != self.source.moduli:
            raise ValueError("polynomial basis does not match the conversion source")
        converted = self.convert_residues(polynomial.residues)
        return RnsPolynomial(self.target, converted, COEFF_DOMAIN)

    def convert_exact(self, polynomial: RnsPolynomial) -> RnsPolynomial:
        """Exact conversion through CRT reconstruction (test oracle)."""
        if polynomial.domain != COEFF_DOMAIN:
            raise ValueError("BConv operates on coefficient-domain polynomials")
        integers = polynomial.to_int_coefficients()
        residues = self.target.decompose_array(integers)
        return RnsPolynomial(self.target, residues, COEFF_DOMAIN)


def _conversion_constants(
    source: RnsBasis, target: RnsBasis
) -> tuple[np.ndarray, np.ndarray]:
    """``source``'s hat inverses ``(L,)`` and the ``(L', L)`` conversion matrix.

    ``matrix[j, i] = (Q / q_i) mod p_j`` (pre-known, compiled offline).
    """
    hat = np.array(
        [source.hat_inverse(i) for i in range(source.size)], dtype=np.uint64
    )
    matrix = np.empty((target.size, source.size), dtype=np.uint64)
    for j, p_j in enumerate(target.moduli):
        for i in range(source.size):
            matrix[j, i] = source.hat_modulo(i, p_j)
    return hat, matrix


def conversion_for(source: RnsBasis, target: RnsBasis) -> BasisConversion:
    """The one-digit :class:`BasisConversion` for a (source, target) pair.

    Key switching performs the same digit -> extended-basis conversions on
    every call; the constant tables depend only on the two bases, so they are
    compiled once, as a memo entry on the chain the bases are drawn from
    (`repro.poly.rns_poly.chain_constant`).  Bare bases compile afresh.
    """
    build = partial(BasisConversion, source, target)
    return chain_constant("bconv", (source, target), build)


def stacked_conversion_for(
    source: RnsBasis, target: RnsBasis, partitions: tuple[tuple[int, int], ...]
) -> BasisConversion:
    """The all-digit :class:`BasisConversion` per (source, target, partition).

    Memoised on the chain, like :func:`conversion_for`.
    """
    build = partial(BasisConversion, source, target, partitions)
    return chain_constant(("stacked_bconv", partitions), (source, target), build)
