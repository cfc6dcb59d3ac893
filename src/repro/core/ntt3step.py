"""The paper's Fig. 10 NTT plans: 4-step with a transpose vs MAT's 3-step.

Both plans are thin views over the production engine's single-limb tables
(:func:`repro.poly.ntt_engine.four_step_matrices`), so the two rows of the
figure and the engine's ``four_step`` rung share one set of matrices.

**The GPU-style 4-step NTT** (:class:`FourStepNttPlan`, Fig. 10 row 1)
reshapes a length-``N = R*C`` transform into

1. ``R``-point NTTs down the columns of an ``R x C`` matrix (a matrix product
   with an ``R x R`` twiddle matrix, the negacyclic twist ``psi^(C*j1)``
   folded in offline),
2. an explicit transpose of the ``R x C`` intermediate,
3. an element-wise multiplication by per-entry twiddle factors, and
4. ``C``-point NTTs down the columns of the transposed matrix (a matrix
   product with a ``C x C`` twiddle matrix),

after which the result, flattened row-major, is the negacyclic NTT in natural
evaluation order.  Step 2 is the runtime data reordering that MAT removes, so
this plan keeps it explicit: the baseline's kernel schedule -- and its cost
on the simulated TPU -- includes the transpose.

**The layout-invariant 3-step NTT** (:class:`ThreeStepNttPlan`, Fig. 10
row 2) is CROSS's MAT form:

    step 1:  B   = W1 @ A          (R x R modular matmul, pre-known W1)
    step 2:  B'  = B  .* TF        (element-wise twiddle multiply)
    step 3:  OUT = B' @ W3         (C x C modular matmul, pre-known W3)

where ``A`` is simply the coefficient vector viewed as an ``R x C`` tile in
row-major order (no data movement), and where the negacyclic twist, the
transpose and the optional bit-reverse are all *folded into the offline
parameter matrices* ``W1``, ``TF`` and ``W3``.  The output stays in the same
``R x C`` tile -- "layout invariant" -- holding the NTT values in a fixed,
documented permutation of natural evaluation order (`evaluation_permutation`).
Its inverse matrices are the engine's analytic inverses times mod-``q``
scalars (the engine folds ``N^{-1}`` into one matrix; the 3-step plan needs
``R^{-1}`` and ``C^{-1}`` on its two), with the bit-reversal embedded as in
the forward direction.

With ``use_bat=True`` the 3-step plan's two matrix multiplications run
through the BAT int8 path (:mod:`repro.core.bat`), which is what the MXU
executes on a real TPU; the element-wise stage stays on the VPU.  Otherwise
both plans run their matmuls through `repro.poly.gemm_mod.modular_matmul` --
the same split-float64 kernel behind the engine's ``four_step`` rung.  Every
configuration is exact and is tested against
:func:`repro.poly.ntt_reference.ntt_forward_negacyclic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.core.bat import (
    BatMatmulPlan,
    bat_modmatmul_left_known,
    bat_modmatmul_right_known,
    compile_left_operand,
    compile_right_operand,
)
from repro.core.mat import embed_permutation_into_cols, embed_permutation_into_rows
from repro.numtheory.bitrev import bit_reverse_indices
from repro.numtheory.modular import mod_inv
from repro.poly.gemm_mod import modular_matmul
from repro.poly.ntt_engine import MAX_PLAN_MODULUS, four_step_matrices

OutputOrder = Literal["cross", "bitrev"]


def _engine_matrices(
    degree: int, modulus: int, psi: int, rows: int, cols: int
) -> tuple[np.ndarray, ...]:
    """The engine's ``(M1, TW, M4, M4_inv, TW_inv, M1_inv)`` for one modulus."""
    if rows * cols != degree:
        raise ValueError("rows * cols must equal the transform length")
    if not 1 < modulus < MAX_PLAN_MODULUS:
        raise ValueError("the plan's tables need 1 < q < 2**32")
    return tuple(
        matrix[0]
        for matrix in four_step_matrices((modulus,), (psi,), degree, rows, cols)
    )


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

    def __post_init__(self) -> None:
        # Step 3's twiddles are applied after the transpose, so they are
        # indexed [j2, k1].  The inverse matrices are the engine's analytic
        # omega^{-1}/psi^{-1} closed forms, N^{-1} riding the final column
        # matrix.
        (
            self.step1_matrix,
            self.step3_twiddle,
            self.step4_matrix,
            self.inv_step4_matrix,
            self.inv_step3_twiddle,
            self.inv_step1_matrix,
        ) = _engine_matrices(self.degree, self.modulus, self.psi, self.rows, self.cols)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT, natural order in and out (length N)."""
        q = np.uint64(self.modulus)
        matrix = np.asarray(coeffs, dtype=np.uint64).reshape(self.rows, self.cols)
        step1 = modular_matmul(self.step1_matrix, matrix, self.modulus)
        transposed = step1.T.copy()  # the explicit runtime transpose
        step3 = (transposed * self.step3_twiddle) % q
        step4 = modular_matmul(self.step4_matrix, step3, self.modulus)
        return step4.reshape(-1)

    def inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse transform, undoing :meth:`forward` exactly."""
        q = np.uint64(self.modulus)
        matrix = np.asarray(evaluations, dtype=np.uint64).reshape(self.cols, self.rows)
        step4 = modular_matmul(self.inv_step4_matrix, matrix, self.modulus)
        step3 = (step4 * self.inv_step3_twiddle) % q
        transposed = step3.T.copy()  # the inverse explicit transpose
        step1 = modular_matmul(self.inv_step1_matrix, transposed, self.modulus)
        return step1.reshape(-1)


@dataclass
class ThreeStepNttPlan:
    """Offline-compiled parameters for the layout-invariant 3-step NTT.

    Parameters
    ----------
    degree, modulus, psi:
        Ring degree ``N``, NTT prime ``q`` and primitive ``2N``-th root.
    rows, cols:
        The ``(R, C)`` tile factorisation (``R * C = N``).
    use_bat:
        Route the two matmuls through the BAT int8 path (the MXU mapping).
    reduction:
        Word-level reduction used by the BAT path (``"barrett"``,
        ``"montgomery"`` or ``"exact"``); ignored when ``use_bat`` is False.
    output_order:
        ``"cross"`` keeps the natural MAT layout; ``"bitrev"`` additionally
        embeds row/column bit-reversal (the formulation in the paper's
        closed-form expression).  Both are layout invariant.
    """

    degree: int
    modulus: int
    psi: int
    rows: int
    cols: int
    use_bat: bool = False
    reduction: str = "barrett"
    output_order: OutputOrder = "cross"

    step1_matrix: np.ndarray = field(init=False, repr=False)
    step2_twiddle: np.ndarray = field(init=False, repr=False)
    step3_matrix: np.ndarray = field(init=False, repr=False)
    inv_step1_matrix: np.ndarray = field(init=False, repr=False)
    inv_step2_twiddle: np.ndarray = field(init=False, repr=False)
    inv_step3_matrix: np.ndarray = field(init=False, repr=False)
    _bat_step1: BatMatmulPlan | None = field(init=False, default=None, repr=False)
    _bat_step3: BatMatmulPlan | None = field(init=False, default=None, repr=False)
    _bat_inv_step1: BatMatmulPlan | None = field(init=False, default=None, repr=False)
    _bat_inv_step3: BatMatmulPlan | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.output_order not in ("cross", "bitrev"):
            raise ValueError(f"unknown output order {self.output_order!r}")
        q = self.modulus
        m1, tw, m4, m4_inv, tw_inv, m1_inv = _engine_matrices(
            self.degree, q, self.psi, self.rows, self.cols
        )

        # --- offline parameter construction (the MAT "compile time") --------
        # W1 is the engine's column matrix; the twist TF[k1, j2] is its
        # [j2, k1] table transposed offline (the runtime transpose MAT
        # removes); W3 is its symmetric row matrix.  The engine's M1_inv
        # carries N^{-1} where W1^{-1} needs R^{-1} = C * N^{-1}, and W3^{-1}
        # is C^{-1} * M4_inv.
        step1, twiddle, step3 = m1, np.ascontiguousarray(tw.T), m4
        inv_step1 = m1_inv * np.uint64(self.cols) % np.uint64(q)
        inv_twiddle = np.ascontiguousarray(tw_inv.T)
        inv_step3 = m4_inv * np.uint64(mod_inv(self.cols, q)) % np.uint64(q)

        if self.output_order == "bitrev":
            # Forward: rows of W1 and TF, columns of W3.  The inverses take
            # the matching columns of W1^{-1} and rows of W3^{-1}.
            row_perm = bit_reverse_indices(self.rows)
            col_perm = bit_reverse_indices(self.cols)
            step1 = embed_permutation_into_rows(step1, row_perm)
            twiddle = embed_permutation_into_rows(twiddle, row_perm)
            step3 = embed_permutation_into_cols(step3, col_perm)
            inv_step1 = embed_permutation_into_cols(inv_step1, row_perm)
            inv_twiddle = embed_permutation_into_rows(inv_twiddle, row_perm)
            inv_step3 = embed_permutation_into_rows(inv_step3, col_perm)

        self.step1_matrix = step1
        self.step2_twiddle = twiddle
        self.step3_matrix = step3
        self.inv_step1_matrix = inv_step1
        self.inv_step2_twiddle = inv_twiddle
        self.inv_step3_matrix = inv_step3

        if self.use_bat:
            self._bat_step1 = compile_left_operand(
                step1, q, reduction=self.reduction
            )
            self._bat_step3 = compile_right_operand(
                step3, q, reduction=self.reduction
            )
            self._bat_inv_step1 = compile_left_operand(
                self.inv_step1_matrix, q, reduction=self.reduction
            )
            self._bat_inv_step3 = compile_right_operand(
                self.inv_step3_matrix, q, reduction=self.reduction
            )

    # ----------------------------------------------------------------- layout
    @property
    def evaluation_permutation(self) -> np.ndarray:
        """Indices such that ``forward(a) == reference_ntt(a)[perm]``.

        Position ``p = k1 * C + k2`` of the layout-invariant output holds the
        reference evaluation with index ``rowmap(k1) + R * colmap(k2)`` where
        the row/column maps are the identity ("cross" order) or bit-reversal
        ("bitrev" order).
        """
        positions = np.arange(self.degree, dtype=np.int64)
        k1 = positions // self.cols
        k2 = positions % self.cols
        if self.output_order == "bitrev":
            row_perm = bit_reverse_indices(self.rows)
            col_perm = bit_reverse_indices(self.cols)
            k1 = row_perm[k1]
            k2 = col_perm[k2]
        return k1 + self.rows * k2

    # ------------------------------------------------------------------ steps
    def _matmul_step1(self, data: np.ndarray, inverse: bool) -> np.ndarray:
        matrix = self.inv_step1_matrix if inverse else self.step1_matrix
        plan = self._bat_inv_step1 if inverse else self._bat_step1
        if self.use_bat and plan is not None:
            return bat_modmatmul_left_known(plan, data)
        return modular_matmul(matrix, data, self.modulus)

    def _matmul_step3(self, data: np.ndarray, inverse: bool) -> np.ndarray:
        matrix = self.inv_step3_matrix if inverse else self.step3_matrix
        plan = self._bat_inv_step3 if inverse else self._bat_step3
        if self.use_bat and plan is not None:
            return bat_modmatmul_right_known(data, plan)
        return modular_matmul(data, matrix, self.modulus)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward NTT: natural coefficient order in, layout-invariant order out."""
        coeffs = np.asarray(coeffs, dtype=np.uint64)
        if coeffs.shape[-1] != self.degree:
            raise ValueError("input length does not match the plan degree")
        tile = coeffs.reshape(self.rows, self.cols)
        step1 = self._matmul_step1(tile, inverse=False)
        step2 = (step1 * self.step2_twiddle) % np.uint64(self.modulus)
        step3 = self._matmul_step3(step2, inverse=False)
        return step3.reshape(-1)

    def inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse NTT: layout-invariant order in, natural coefficient order out."""
        evaluations = np.asarray(evaluations, dtype=np.uint64)
        if evaluations.shape[-1] != self.degree:
            raise ValueError("input length does not match the plan degree")
        tile = evaluations.reshape(self.rows, self.cols)
        step3 = self._matmul_step3(tile, inverse=True)
        step2 = (step3 * self.inv_step2_twiddle) % np.uint64(self.modulus)
        step1 = self._matmul_step1(step2, inverse=True)
        return step1.reshape(-1)

    def forward_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward transform of a (batch, N) block, one row at a time."""
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.uint64))
        return np.stack([self.forward(row) for row in coeffs], axis=0)

    def inverse_batch(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse transform of a (batch, N) block."""
        evaluations = np.atleast_2d(np.asarray(evaluations, dtype=np.uint64))
        return np.stack([self.inverse(row) for row in evaluations], axis=0)

    # -------------------------------------------------------------- utilities
    def to_reference_order(self, layout_values: np.ndarray) -> np.ndarray:
        """Convert layout-invariant output to natural evaluation order (testing aid)."""
        layout_values = np.asarray(layout_values)
        natural = np.empty_like(layout_values)
        natural[self.evaluation_permutation] = layout_values
        return natural

    def from_reference_order(self, natural_values: np.ndarray) -> np.ndarray:
        """Convert natural evaluation order into this plan's layout order."""
        natural_values = np.asarray(natural_values)
        return natural_values[self.evaluation_permutation]
