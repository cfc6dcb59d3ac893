"""4-step NTT with explicit runtime transpose (the GPU decomposing baseline).

The 4-step factorisation reshapes a length-``N = R*C`` transform into

1. ``R``-point NTTs down the columns of an ``R x C`` matrix (a matrix product
   with an ``R x R`` twiddle matrix),
2. an explicit transpose of the ``R x C`` intermediate,
3. an element-wise multiplication by per-entry twiddle factors, and
4. ``C``-point NTTs down the columns of the transposed matrix (a matrix
   product with a ``C x C`` twiddle matrix),

after which the result, flattened row-major, is the negacyclic NTT in natural
evaluation order.  Step 2 is the runtime data reordering that CROSS's MAT
removes (paper Fig. 10, rows 1 vs 2); this module keeps it explicit so the
baseline's kernel schedule -- and its cost on the simulated TPU -- includes the
transpose.

The negacyclic twist ``psi^j`` is folded into the offline twiddle matrices for
both the baseline and the MAT variant, so the two differ only in the runtime
reordering, exactly as in the paper.

Since PR 5 the numerics are shared with the production engine: the twiddle
matrices come from `repro.poly.ntt_engine`'s four-step builders (this module
keeps only the explicit-transpose *schedule*), and the modular matmuls run
through `repro.poly.gemm_mod.modular_matmul` -- the same split-float64 kernel
backing BConv and the engine's ``four_step`` backend -- so the TPU model and
the executable path exercise one factorisation and one GEMM implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.numtheory.modular import mod_inv
from repro.poly.gemm_mod import modular_matmul
from repro.poly.ntt_engine import four_step_matrices


@dataclass
class FourStepNttPlan:
    """Offline-compiled parameters for the explicit-transpose 4-step NTT.

    Parameters
    ----------
    degree:
        Transform length ``N`` (power of two).
    modulus:
        NTT-friendly prime ``q`` with ``q = 1 (mod 2N)``.
    psi:
        Primitive ``2N``-th root of unity modulo ``q``.
    rows, cols:
        The ``(R, C)`` factorisation with ``R * C = N``.
    """

    degree: int
    modulus: int
    psi: int
    rows: int
    cols: int
    step1_matrix: np.ndarray = field(init=False, repr=False)
    step3_twiddle: np.ndarray = field(init=False, repr=False)
    step4_matrix: np.ndarray = field(init=False, repr=False)
    inv_step1_matrix: np.ndarray = field(init=False, repr=False)
    inv_step3_twiddle: np.ndarray = field(init=False, repr=False)
    inv_step4_matrix: np.ndarray = field(init=False, repr=False)
    n_inverse: int = field(init=False)

    def __post_init__(self) -> None:
        if self.rows * self.cols != self.degree:
            raise ValueError("rows * cols must equal the transform length")
        # Step 1 is the column-wise R-point NTT with the negacyclic twist
        # contribution psi^(C*j1) folded in offline; step 3's twiddles are
        # applied after the transpose, so they are indexed [j2, k1]; step 4 is
        # the column-wise C-point NTT of the transposed matrix.  The inverse
        # matrices are the analytic omega^{-1}/psi^{-1} closed forms (N^{-1}
        # rides the final column matrix, so the chain inverts exactly even
        # though the individual matrices differ from the Gauss-Jordan
        # inverses by the cancelling scalar C).
        (
            self.step1_matrix,
            self.step3_twiddle,
            self.step4_matrix,
            self.inv_step4_matrix,
            self.inv_step3_twiddle,
            self.inv_step1_matrix,
        ) = (
            matrix[0]
            for matrix in four_step_matrices(
                (self.modulus,), (self.psi,), self.degree, self.rows, self.cols
            )
        )
        self.n_inverse = mod_inv(self.degree, self.modulus)

    # ------------------------------------------------------------------ steps
    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT, natural order in and out (length N)."""
        q = np.uint64(self.modulus)
        matrix = np.asarray(coeffs, dtype=np.uint64).reshape(self.rows, self.cols)
        step1 = _modmatmul(self.step1_matrix, matrix, self.modulus)
        transposed = step1.T.copy()  # the explicit runtime transpose
        step3 = (transposed * self.step3_twiddle) % q
        step4 = _modmatmul(self.step4_matrix, step3, self.modulus)
        return step4.reshape(-1)

    def inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse transform, undoing :meth:`forward` exactly."""
        q = np.uint64(self.modulus)
        matrix = np.asarray(evaluations, dtype=np.uint64).reshape(self.cols, self.rows)
        step4 = _modmatmul(self.inv_step4_matrix, matrix, self.modulus)
        step3 = (step4 * self.inv_step3_twiddle) % q
        transposed = step3.T.copy()  # the inverse explicit transpose
        step1 = _modmatmul(self.inv_step1_matrix, transposed, self.modulus)
        return step1.reshape(-1)


def _modmatmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact modular matrix product (the shared split-GEMM kernel)."""
    return modular_matmul(a, b, modulus)


def _modular_matrix_inverse(matrix: np.ndarray, modulus: int) -> np.ndarray:
    """Inverse of a square matrix over Z_q (Gauss-Jordan with modular inverses)."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise ValueError("matrix must be square")
    work = matrix.astype(object) % modulus
    inverse = np.eye(size, dtype=object)
    for col in range(size):
        pivot_row = next(
            (r for r in range(col, size) if work[r, col] % modulus != 0), None
        )
        if pivot_row is None:
            raise ValueError("matrix is singular modulo q")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        pivot_inv = mod_inv(int(work[col, col]), modulus)
        work[col] = (work[col] * pivot_inv) % modulus
        inverse[col] = (inverse[col] * pivot_inv) % modulus
        for row in range(size):
            if row == col:
                continue
            factor = int(work[row, col]) % modulus
            if factor:
                work[row] = (work[row] - factor * work[col]) % modulus
                inverse[row] = (inverse[row] - factor * inverse[col]) % modulus
    return inverse.astype(np.uint64)
