"""Fast RNS basis conversion (BConv), paper section F2 and Table VI.

BConv maps the residues of a polynomial from a source basis
``B1 = {q_0 .. q_{L-1}}`` to a target basis ``B2 = {p_0 .. p_{L'-1}}``:

    Conv(a)_j = ( sum_i [a_i * qhat_i^{-1}]_{q_i} * [Q/q_i]_{p_j} ) mod p_j

The computation splits into the two steps the paper profiles:

* **Step 1** -- ``L`` independent length-``N`` vectorized modular
  multiplications by the per-limb constants ``qhat_i^{-1}`` (VPU work), and
* **Step 2** -- an ``(N, L, L')`` modular matrix multiplication against the
  pre-known constant matrix ``[Q/q_i]_{p_j}`` (the kernel BAT converts into an
  8-bit MXU matmul, giving the Table VI speedups).

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
from repro.poly.gemm_mod import split_matmul as _split_matmul
from repro.poly.gemm_mod import split_matrix as _split_matrix
from repro.poly.rns_poly import COEFF_DOMAIN, RnsPolynomial, chain_constant


@dataclass
class BasisConversion:
    """Precompiled constants for converting from ``source`` to ``target``.

    Attributes
    ----------
    source:
        The source RNS basis (the ``L`` input limbs).
    target:
        The target RNS basis (the ``L'`` output limbs).
    """

    source: RnsBasis
    target: RnsBasis
    hat_inverses: np.ndarray = field(init=False, repr=False)
    conversion_matrix: np.ndarray = field(init=False, repr=False)
    _split_shift: int | None = field(init=False, repr=False)
    _matrix_hi: np.ndarray | None = field(init=False, repr=False)
    _matrix_lo: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.source.degree != self.target.degree:
            raise ValueError("source and target bases must share the ring degree")
        self.hat_inverses, matrix = _conversion_constants(self.source, self.target)
        self.conversion_matrix = matrix
        self._split_shift, self._matrix_hi, self._matrix_lo = _split_matrix(
            matrix, self.source.moduli, self.target.moduli
        )

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
        (..., L', N) residue tensor in the target basis (leading batch axes
        ride through ``np.matmul`` broadcasting).  Word-sized moduli take the
        exact split-GEMM fast path, wider ones :func:`_chunked_matmul`.
        """
        scaled = np.asarray(scaled, dtype=np.uint64)
        if self._split_shift is not None:
            return _split_matmul(
                self._split_shift,
                self._matrix_hi,
                self._matrix_lo,
                scaled,
                self.target.moduli_array[:, None],
            )
        return _chunked_matmul(self.conversion_matrix, scaled, self.source, self.target)

    # ------------------------------------------------------------------- API
    def convert_residues(self, residues: np.ndarray) -> np.ndarray:
        """Fast (approximate) conversion of an (..., L, N) residue tensor."""
        return self.step2(self.step1(residues))

    def convert(self, polynomial: RnsPolynomial) -> RnsPolynomial:
        """Fast (approximate) conversion of a coefficient-domain polynomial."""
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


def _chunked_matmul(
    matrix: np.ndarray, scaled: np.ndarray, source: RnsBasis, target: RnsBasis
) -> np.ndarray:
    """Exact ``matrix @ scaled`` modulo the target limbs, in uint64 integers.

    The fallback where no exact float split exists: the source limbs are
    contracted a chunk at a time, sized so no partial sum reaches ``2**63``.
    """
    bits = max((int(q) - 1).bit_length() for q in source.moduli)
    bits += max((int(p) - 1).bit_length() for p in target.moduli)
    chunk = max(1, 1 << max(0, 63 - bits))
    target_col = target.moduli_array[:, None]
    out = 0
    for start in range(0, source.size, chunk):
        rows = slice(start, start + chunk)
        out = out + np.matmul(matrix[..., rows], scaled[..., rows, :]) % target_col
        out %= target_col
    return out


def conversion_for(source: RnsBasis, target: RnsBasis) -> BasisConversion:
    """Return the :class:`BasisConversion` for a (source, target) pair.

    Key switching performs the same digit -> extended-basis conversions on
    every call; the constant tables depend only on the two bases, so they are
    compiled once, as a memo entry on the chain the bases are drawn from
    (`repro.poly.rns_poly.chain_constant`).  Bare bases compile afresh.
    """
    build = partial(BasisConversion, source, target)
    return chain_constant("bconv", (source, target), build)


@dataclass
class StackedBasisConversion:
    """All-digit BConv: every key-switch digit converted in one batched matmul.

    Each digit's conversion constants are written straight into one block
    conversion matrix of shape ``(D, L', L)`` (zero outside each digit's
    column range) and one fused ``(L,)`` hat-inverse vector -- no per-digit
    :class:`BasisConversion` is built -- so converting all
    ``D = dnum`` digits of an ``(L, N)`` residue matrix becomes a single
    elementwise scale followed by one ``(D, L', L) x (L, N)`` modular einsum
    -- the dense Decomposing-layer matmul the paper's compiler hands to the
    MXU.  Results are bit-identical to running :meth:`BasisConversion.convert`
    digit by digit (all reductions are exact, so chunking differences cannot
    show).

    Attributes
    ----------
    source:
        The full level basis whose limbs the ``partitions`` tile.
    target:
        The target basis every digit is extended to (level + special primes).
    partitions:
        ``(start, stop)`` limb ranges of the digits, in order, covering
        ``0..L`` contiguously.
    """

    source: RnsBasis
    target: RnsBasis
    partitions: tuple[tuple[int, int], ...]
    hat_inverses: np.ndarray = field(init=False, repr=False)
    block_matrix: np.ndarray = field(init=False, repr=False)
    _split_shift: int | None = field(init=False, repr=False)
    _block_hi: np.ndarray | None = field(init=False, repr=False)
    _block_lo: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.source.degree != self.target.degree:
            raise ValueError("source and target bases must share the ring degree")
        expected_start = 0
        for start, stop in self.partitions:
            if start != expected_start or stop <= start or stop > self.source.size:
                raise ValueError("digit partitions must tile the source basis")
            expected_start = stop
        if expected_start != self.source.size:
            raise ValueError("digit partitions must tile the source basis")

        digit_count = len(self.partitions)
        hat = np.empty(self.source.size, dtype=np.uint64)
        block = np.zeros(
            (digit_count, self.target.size, self.source.size), dtype=np.uint64
        )
        for d, (start, stop) in enumerate(self.partitions):
            hat[start:stop], block[d, :, start:stop] = _conversion_constants(
                self.source.sub_basis(start, stop), self.target
            )
        self.hat_inverses = hat
        self.block_matrix = block
        self._split_shift, self._block_hi, self._block_lo = _split_matrix(
            block, self.source.moduli, self.target.moduli
        )

    @property
    def digit_count(self) -> int:
        """Number of digits ``D``."""
        return len(self.partitions)

    def convert_stacked(self, residues: np.ndarray) -> np.ndarray:
        """Convert all digits of an ``(L, N)`` residue matrix to ``(D, L', N)``.

        Step 1 scales every limb by its digit's ``qhat_i^{-1}`` in one pass;
        step 2 runs the block matmul as one split GEMM (or
        :func:`_chunked_matmul` for wide moduli).
        """
        residues = np.asarray(residues, dtype=np.uint64)
        source_moduli = self.source.moduli_array[:, None]
        scaled = (residues * self.hat_inverses[:, None]) % source_moduli

        if self._split_shift is None:
            return _chunked_matmul(self.block_matrix, scaled, self.source, self.target)
        target_col = self.target.moduli_array[None, :, None]
        return _split_matmul(
            self._split_shift, self._block_hi, self._block_lo, scaled, target_col
        )

    def convert(self, polynomial: RnsPolynomial) -> tuple[RnsPolynomial, ...]:
        """Convert a coefficient-domain polynomial; one target-basis element per digit."""
        if polynomial.domain != COEFF_DOMAIN:
            raise ValueError("BConv operates on coefficient-domain polynomials")
        if polynomial.basis.moduli != self.source.moduli:
            raise ValueError("polynomial basis does not match the conversion source")
        stacked = self.convert_stacked(polynomial.residues)
        return tuple(
            RnsPolynomial(self.target, stacked[d], COEFF_DOMAIN)
            for d in range(self.digit_count)
        )


def stacked_conversion_for(
    source: RnsBasis, target: RnsBasis, partitions: tuple[tuple[int, int], ...]
) -> StackedBasisConversion:
    """The :class:`StackedBasisConversion` per (source, target, partition).

    Memoised on the chain, like :func:`conversion_for`.
    """
    build = partial(StackedBasisConversion, source, target, partitions)
    return chain_constant(("stacked_bconv", partitions), (source, target), build)
