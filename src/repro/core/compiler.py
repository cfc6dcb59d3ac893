"""The CROSS compiler: lowering HE kernels to device operation graphs.

This module is the binding/decomposing layer of the paper's compilation stack
(Fig. 6).  Given a security parameter set and a set of algorithm choices it
emits :class:`~repro.core.kernel_ir.KernelGraph` objects for every HE kernel
and operator the evaluation measures:

* NTT / INTT in three flavours -- CROSS's layout-invariant 3-step form
  (MAT + BAT), the GPU-style 4-step form with explicit transpose and
  bit-reverse, and the radix-2 Cooley-Tukey form with per-stage shuffles,
* vectorized modular arithmetic (``VecModMul``/``Add``/``Sub``),
* basis conversion (BConv) with or without BAT,
* automorphism (slot permutation),
* hybrid key switching, and the composed HE operators HE-Add, HE-Mult,
  Rescale and Rotate,
* the packed bootstrapping schedule, priced by :func:`estimate_bootstrapping`.

The emitted graphs are costed by :class:`repro.tpu.device.TensorCoreDevice`;
the *same* compiler with ``CompilerOptions.gpu_baseline()`` reproduces the
paper's "port the SoTA GPU algorithm to the TPU" baseline, which is where the
Table V/VI/VIII speedups come from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.ckks.bootstrapping import BootstrappingSchedule
from repro.core.config import SecurityParams, chunks_per_word
from repro.core.kernel_ir import (
    Category,
    KernelGraph,
    MatMulOp,
    MemoryOp,
    PermuteOp,
    TypeConvertOp,
    VectorOp,
)

if TYPE_CHECKING:
    from repro.tpu.device import TensorCoreDevice

#: VPU instruction count of one modular multiply for each reduction algorithm.
#: Montgomery (paper Alg. 1) is the cheapest on a 32-bit datapath; Shoup needs
#: 64-bit multiplies (emulated with 32-bit halves); "bat_lazy" moves the
#: reduction to the MXU and pays a matmul with reduction dimension K instead.
MODRED_VPU_OPS: dict[str, float] = {
    "montgomery": 10.0,
    "barrett": 14.0,
    "shoup": 20.0,
    "bat_lazy": 6.0,
    "none": 2.0,
}

#: VPU instruction count of one modular add/sub (conditional correction).
MODADD_VPU_OPS = 2.0


@dataclass(frozen=True)
class CompilerOptions:
    """Algorithm choices for the decomposing/binding layers.

    Attributes
    ----------
    use_bat:
        Apply BAT so NTT/BConv matmuls run as dense int8 GEMMs on the MXU.
        When False, high-precision matmuls either fall back to the sparse
        Toeplitz int8 expansion (``sparse_fallback=True``, the TensorFHE-style
        GPU flow) or stay on the VPU as 32-bit arithmetic.
    use_mat:
        Embed transposes and bit-reverse shuffles into the offline parameters
        (layout-invariant NTT).  When False the 4-step NTT pays explicit
        PermuteOps.
    ntt_algorithm:
        "three_step", "four_step" or "radix2".
    modred:
        Modular-reduction algorithm for VPU work ("montgomery", "barrett",
        "shoup", "bat_lazy").
    sparse_fallback:
        Only relevant when ``use_bat`` is False: use the sparse (2K-1, K)
        Toeplitz int8 expansion on the MXU instead of 32-bit VPU arithmetic.
    chunk_bits:
        Matrix-engine operand precision (8 for the TPU).
    lane_count:
        VPU lane count; the standalone-NTT tile shape pins R to this value.
    """

    use_bat: bool = True
    use_mat: bool = True
    ntt_algorithm: str = "three_step"
    modred: str = "montgomery"
    sparse_fallback: bool = True
    chunk_bits: int = 8
    lane_count: int = 128

    @classmethod
    def cross_default(cls) -> "CompilerOptions":
        """CROSS's shipping configuration (BAT + MAT + Montgomery)."""
        return cls()

    @classmethod
    def gpu_baseline(cls) -> "CompilerOptions":
        """The paper's TPU baseline: SoTA GPU decomposing/binding algorithms.

        4-step NTT with explicit transpose and bit-reverse, sparse Toeplitz
        int8 expansion for high-precision multiplication, no MAT embedding.
        """
        return cls(use_bat=False, use_mat=False, ntt_algorithm="four_step")

    @classmethod
    def vpu_only_baseline(cls) -> "CompilerOptions":
        """A 32-bit-only port (Cheddar-style): every kernel stays on the VPU."""
        return cls(
            use_bat=False, use_mat=False, ntt_algorithm="radix2", sparse_fallback=False
        )

    def with_modred(self, modred: str) -> "CompilerOptions":
        """Copy of these options with a different reduction algorithm."""
        return replace(self, modred=modred)


@dataclass
class CrossCompiler:
    """Lowers HE kernels to device operation graphs for one parameter set."""

    params: SecurityParams
    options: CompilerOptions = field(default_factory=CompilerOptions.cross_default)

    # ------------------------------------------------------------ properties
    @property
    def degree(self) -> int:
        """Ring degree N."""
        return self.params.degree

    @property
    def chunk_count(self) -> int:
        """K -- int8 chunks per residue word."""
        return chunks_per_word(self.params.log_q, self.options.chunk_bits)

    @property
    def modred_ops(self) -> float:
        """VPU instructions per modular multiply under the chosen reduction."""
        return MODRED_VPU_OPS[self.options.modred]

    def ntt_tile_shape(self, degree: int | None = None) -> tuple[int, int]:
        """The (R, C) factorisation used for matrix-form NTTs."""
        degree = degree or self.degree
        lanes = self.options.lane_count
        if degree >= 2 * lanes and degree % lanes == 0:
            return lanes, degree // lanes
        rows = 1 << ((degree.bit_length() - 1) // 2)
        return rows, degree // rows

    # ------------------------------------------------------------ primitives
    def vec_mod_mul(
        self, limbs: int | None = None, batch: int = 1, name: str = "vecmodmul"
    ) -> KernelGraph:
        """Element-wise modular multiplication over ``limbs`` x N elements."""
        limbs = self.params.limbs if limbs is None else limbs
        elements = self.degree * limbs * batch
        graph = KernelGraph(name=name)
        if self.options.modred == "bat_lazy":
            k = self.chunk_count
            graph.add(
                TypeConvertOp(
                    name=f"{name}/chunk",
                    category=Category.TYPE_CONVERSION,
                    elements=elements,
                    from_bits=32,
                    to_bits=8,
                )
            )
            graph.add(
                MatMulOp(
                    name=f"{name}/lazy-reduce-matmul",
                    category=Category.VEC_MOD_OPS,
                    m=elements,
                    k=k,
                    n=k,
                    operand_bits=8,
                )
            )
            graph.add(
                VectorOp(
                    name=f"{name}/mul+merge",
                    category=Category.VEC_MOD_OPS,
                    elements=elements,
                    ops_per_element=MODRED_VPU_OPS["bat_lazy"],
                )
            )
        else:
            graph.add(
                VectorOp(
                    name=f"{name}/modmul",
                    category=Category.VEC_MOD_OPS,
                    elements=elements,
                    ops_per_element=self.modred_ops,
                )
            )
        return graph

    def vec_mod_add(
        self, limbs: int | None = None, batch: int = 1, name: str = "vecmodadd"
    ) -> KernelGraph:
        """Element-wise modular addition."""
        limbs = self.params.limbs if limbs is None else limbs
        elements = self.degree * limbs * batch
        return KernelGraph(name=name).add(
            VectorOp(
                name=f"{name}/modadd",
                category=Category.VEC_MOD_OPS,
                elements=elements,
                ops_per_element=MODADD_VPU_OPS,
            )
        )

    def vec_mod_sub(
        self, limbs: int | None = None, batch: int = 1, name: str = "vecmodsub"
    ) -> KernelGraph:
        """Element-wise modular subtraction."""
        graph = self.vec_mod_add(limbs, batch, name)
        return graph

    # ------------------------------------------------------------------- NTT
    def ntt(
        self,
        limbs: int = 1,
        batch: int = 1,
        degree: int | None = None,
        inverse: bool = False,
        name: str | None = None,
    ) -> KernelGraph:
        """Emit the NTT (or INTT) kernel under the configured algorithm."""
        degree = degree or self.degree
        name = name or ("intt" if inverse else "ntt")
        if self.options.ntt_algorithm == "radix2":
            return self._ntt_radix2(degree, limbs, batch, inverse, name)
        return self._ntt_matrix_form(degree, limbs, batch, inverse, name)

    def _matmul_category(self, inverse: bool) -> Category:
        return Category.INTT_MATMUL if inverse else Category.NTT_MATMUL

    def _ntt_matrix_form(
        self, degree: int, limbs: int, batch: int, inverse: bool, name: str
    ) -> KernelGraph:
        """3-step (MAT) or 4-step (explicit transpose) matrix-form NTT."""
        rows, cols = self.ntt_tile_shape(degree)
        repeats = limbs * batch
        k = self.chunk_count
        category = self._matmul_category(inverse)
        graph = KernelGraph(
            name=name,
            metadata={
                "degree": degree,
                "rows": rows,
                "cols": cols,
                "limbs": limbs,
                "batch": batch,
                "algorithm": self.options.ntt_algorithm,
            },
        )

        if self.options.use_bat:
            graph.add(
                TypeConvertOp(
                    name=f"{name}/chunk-decompose",
                    category=Category.TYPE_CONVERSION,
                    elements=degree * repeats,
                    from_bits=32,
                    to_bits=8,
                )
            )
            graph.add(
                PermuteOp(
                    name=f"{name}/tile-relayout",
                    category=Category.COPY_RESHAPE,
                    elements=degree * repeats,
                    pattern="broadcast",
                )
            )
            # All limbs/batches share the same pre-known twiddle matrix, so
            # they fuse into the streaming dimension of a single GEMM.
            step1 = MatMulOp(
                name=f"{name}/step1-matmul",
                category=category,
                m=k * rows,
                k=k * rows,
                n=cols * repeats,
                operand_bits=8,
            )
            step3 = MatMulOp(
                name=f"{name}/step3-matmul",
                category=category,
                m=rows * repeats,
                k=k * cols,
                n=k * cols,
                operand_bits=8,
            )
        elif self.options.sparse_fallback:
            # Sparse Toeplitz expansion: left operand carries 2K-1 block rows.
            step1 = MatMulOp(
                name=f"{name}/step1-sparse-matmul",
                category=category,
                m=(2 * k - 1) * rows,
                k=k * rows,
                n=cols * repeats,
                operand_bits=8,
            )
            step3 = MatMulOp(
                name=f"{name}/step3-sparse-matmul",
                category=category,
                m=rows * repeats,
                k=k * cols,
                n=(2 * k - 1) * cols,
                operand_bits=8,
            )
            graph.add(
                TypeConvertOp(
                    name=f"{name}/chunk-decompose",
                    category=Category.TYPE_CONVERSION,
                    elements=degree * repeats,
                    from_bits=32,
                    to_bits=8,
                )
            )
            graph.add(
                TypeConvertOp(
                    name=f"{name}/twiddle-convert",
                    category=Category.TYPE_CONVERSION,
                    elements=rows * rows + cols * cols,
                    from_bits=32,
                    to_bits=8,
                )
            )
            graph.add(
                PermuteOp(
                    name=f"{name}/tile-relayout",
                    category=Category.COPY_RESHAPE,
                    elements=degree * repeats,
                    pattern="broadcast",
                )
            )
        else:
            # Pure 32-bit arithmetic: the matmuls are serialised onto the VPU.
            step1 = MatMulOp(
                name=f"{name}/step1-vpu-matmul",
                category=category,
                m=rows,
                k=rows,
                n=cols * repeats,
                operand_bits=32,
            )
            step3 = MatMulOp(
                name=f"{name}/step3-vpu-matmul",
                category=category,
                m=rows * repeats,
                k=cols,
                n=cols,
                operand_bits=32,
            )

        carry_ops = self.chunk_count if self.options.use_bat else 2 * self.chunk_count - 1

        graph.add(step1)
        graph.add(
            VectorOp(
                name=f"{name}/step1-reduce",
                category=Category.VEC_MOD_OPS,
                elements=degree * repeats,
                ops_per_element=self.modred_ops + carry_ops,
            )
        )
        if not self.options.use_mat:
            # Explicit runtime transpose between step 1 and step 3 (4-step NTT).
            graph.add(
                PermuteOp(
                    name=f"{name}/transpose",
                    category=Category.PERMUTATION,
                    elements=degree * repeats,
                    pattern="transpose",
                )
            )
        graph.add(
            VectorOp(
                name=f"{name}/step2-twiddle-mul",
                category=Category.VEC_MOD_OPS,
                elements=degree * repeats,
                ops_per_element=self.modred_ops,
            )
        )
        graph.add(step3)
        graph.add(
            VectorOp(
                name=f"{name}/step3-reduce",
                category=Category.VEC_MOD_OPS,
                elements=degree * repeats,
                ops_per_element=self.modred_ops + carry_ops,
            )
        )
        if not self.options.use_mat:
            # Bit-reverse output shuffle the MAT variant folds away.
            graph.add(
                PermuteOp(
                    name=f"{name}/bit-reverse",
                    category=Category.PERMUTATION,
                    elements=degree * repeats,
                    pattern="shuffle",
                )
            )
        if inverse:
            graph.add(
                VectorOp(
                    name=f"{name}/scale-by-n-inverse",
                    category=Category.VEC_MOD_OPS,
                    elements=degree * repeats,
                    ops_per_element=self.modred_ops,
                )
            )
        return graph

    def _ntt_radix2(
        self, degree: int, limbs: int, batch: int, inverse: bool, name: str
    ) -> KernelGraph:
        """Radix-2 Cooley-Tukey NTT: log2(N) butterfly stages + shuffles."""
        repeats = limbs * batch
        stages = int(degree).bit_length() - 1
        graph = KernelGraph(
            name=name,
            metadata={"degree": degree, "limbs": limbs, "batch": batch, "algorithm": "radix2"},
        )
        for stage in range(stages):
            graph.add(
                VectorOp(
                    name=f"{name}/stage{stage}-butterfly",
                    category=Category.VEC_MOD_OPS,
                    elements=(degree // 2) * repeats,
                    ops_per_element=self.modred_ops + 2 * MODADD_VPU_OPS,
                )
            )
            graph.add(
                PermuteOp(
                    name=f"{name}/stage{stage}-shuffle",
                    category=Category.PERMUTATION,
                    elements=degree * repeats,
                    pattern="shuffle",
                )
            )
        if inverse:
            graph.add(
                VectorOp(
                    name=f"{name}/scale-by-n-inverse",
                    category=Category.VEC_MOD_OPS,
                    elements=degree * repeats,
                    ops_per_element=self.modred_ops,
                )
            )
        return graph

    # ----------------------------------------------------------------- BConv
    def bconv(
        self,
        limbs_in: int,
        limbs_out: int,
        batch: int = 1,
        name: str = "bconv",
    ) -> KernelGraph:
        """Basis conversion from ``limbs_in`` to ``limbs_out`` limbs."""
        n = self.degree
        k = self.chunk_count
        graph = KernelGraph(
            name=name,
            metadata={"limbs_in": limbs_in, "limbs_out": limbs_out, "batch": batch},
        )
        graph.add(
            VectorOp(
                name=f"{name}/step1-scale",
                category=Category.VEC_MOD_OPS,
                elements=n * limbs_in * batch,
                ops_per_element=self.modred_ops,
            )
        )
        if self.options.use_bat:
            graph.add(
                TypeConvertOp(
                    name=f"{name}/chunk-decompose",
                    category=Category.TYPE_CONVERSION,
                    elements=n * limbs_in * batch,
                    from_bits=32,
                    to_bits=8,
                )
            )
            graph.add(
                MatMulOp(
                    name=f"{name}/step2-matmul",
                    category=Category.BCONV_MATMUL,
                    m=k * limbs_out,
                    k=k * limbs_in,
                    n=n,
                    operand_bits=8,
                    batch=batch,
                )
            )
            graph.add(
                VectorOp(
                    name=f"{name}/step2-merge-reduce",
                    category=Category.VEC_MOD_OPS,
                    elements=n * limbs_out * batch,
                    ops_per_element=self.modred_ops + k,
                )
            )
        else:
            graph.add(
                MatMulOp(
                    name=f"{name}/step2-vpu-matmul",
                    category=Category.BCONV_MATMUL,
                    m=limbs_out,
                    k=limbs_in,
                    n=n,
                    operand_bits=32,
                    batch=batch,
                )
            )
        return graph

    # ----------------------------------------------------------- automorphism
    def automorphism(
        self, limbs: int | None = None, polynomials: int = 2, name: str = "automorphism"
    ) -> KernelGraph:
        """Slot permutation of a ciphertext (the Rotate pre-step).

        MAT cannot embed arbitrary Galois permutations into computation, so
        the kernel is an irregular gather across lanes (the paper's Fig. 12
        "Permutation" slice and the bootstrapping bottleneck of Table IX).
        """
        limbs = self.params.limbs if limbs is None else limbs
        elements = self.degree * limbs * polynomials
        return KernelGraph(name=name).add(
            PermuteOp(
                name=f"{name}/galois-gather",
                category=Category.AUTOMORPHISM,
                elements=elements,
                pattern="gather",
            )
        )

    # ------------------------------------------------------------ key switch
    def key_switch(self, limbs: int | None = None, name: str = "keyswitch") -> KernelGraph:
        """Hybrid key switching (dnum digits, alpha auxiliary limbs).

        Schedule (per switched polynomial):

        1. INTT of the ``L`` input limbs.
        2. Per digit: BConv from ``alpha`` digit limbs to the remaining
           ``L + alpha - alpha`` limbs, then NTT of the extended limbs.
        3. Inner product with the two key polynomials over ``dnum`` digits.
        4. ModDown: BConv of the ``alpha`` auxiliary limbs back to ``L``,
           INTT/NTT plumbing and the final scaling by ``P^{-1}``.
        """
        limbs = self.params.limbs if limbs is None else limbs
        dnum = self.params.dnum
        alpha = -(-limbs // dnum)
        extended = limbs + alpha
        graph = KernelGraph(
            name=name, metadata={"limbs": limbs, "dnum": dnum, "alpha": alpha}
        )
        graph.merge(self.ntt(limbs=limbs, inverse=True, name=f"{name}/input-intt"))
        for digit in range(dnum):
            graph.merge(
                self.bconv(
                    limbs_in=alpha,
                    limbs_out=extended - alpha,
                    name=f"{name}/digit{digit}-bconv",
                )
            )
            graph.merge(
                self.ntt(
                    limbs=extended - alpha,
                    name=f"{name}/digit{digit}-ntt",
                )
            )
        # Inner product with the evaluation key (2 output polynomials).
        graph.merge(
            self.vec_mod_mul(
                limbs=2 * dnum * extended, name=f"{name}/key-inner-product"
            )
        )
        graph.merge(
            self.vec_mod_add(
                limbs=2 * (dnum - 1) * extended, name=f"{name}/key-accumulate"
            )
        )
        # ModDown for both output polynomials.
        for poly in range(2):
            graph.merge(
                self.ntt(limbs=alpha, inverse=True, name=f"{name}/moddown{poly}-intt")
            )
            graph.merge(
                self.bconv(
                    limbs_in=alpha, limbs_out=limbs, name=f"{name}/moddown{poly}-bconv"
                )
            )
            graph.merge(
                self.ntt(limbs=limbs, name=f"{name}/moddown{poly}-ntt")
            )
            graph.merge(
                self.vec_mod_mul(limbs=limbs, name=f"{name}/moddown{poly}-scale")
            )
            graph.merge(
                self.vec_mod_add(limbs=limbs, name=f"{name}/moddown{poly}-add")
            )
        return graph

    # ------------------------------------------------------------ HE operators
    def he_add(self, limbs: int | None = None) -> KernelGraph:
        """Ciphertext addition: two limb-wise vector additions."""
        limbs = self.params.limbs if limbs is None else limbs
        graph = KernelGraph(name="he_add", metadata={"limbs": limbs})
        graph.merge(self.vec_mod_add(limbs=2 * limbs, name="he_add/c0c1"))
        return graph

    def he_mult(self, limbs: int | None = None) -> KernelGraph:
        """Ciphertext multiplication with relinearisation (paper's HE-Mult)."""
        limbs = self.params.limbs if limbs is None else limbs
        graph = KernelGraph(name="he_mult", metadata={"limbs": limbs})
        # Tensor product of (c0, c1) x (c0', c1') -> (d0, d1, d2).
        graph.merge(self.vec_mod_mul(limbs=4 * limbs, name="he_mult/tensor-product"))
        graph.merge(self.vec_mod_add(limbs=limbs, name="he_mult/tensor-add"))
        # Relinearise d2 back to two polynomials.
        graph.merge(self.key_switch(limbs=limbs, name="he_mult/relin"))
        graph.merge(self.vec_mod_add(limbs=2 * limbs, name="he_mult/combine"))
        return graph

    def rescale(self, limbs: int | None = None) -> KernelGraph:
        """Rescaling (divide by the last prime and drop one limb)."""
        limbs = self.params.limbs if limbs is None else limbs
        graph = KernelGraph(name="rescale", metadata={"limbs": limbs})
        for poly in range(2):
            graph.merge(
                self.ntt(limbs=1, inverse=True, name=f"rescale/p{poly}-last-limb-intt")
            )
            graph.merge(
                self.ntt(limbs=limbs - 1, name=f"rescale/p{poly}-broadcast-ntt")
            )
            graph.merge(
                self.vec_mod_sub(limbs=limbs - 1, name=f"rescale/p{poly}-sub")
            )
            graph.merge(
                self.vec_mod_mul(limbs=limbs - 1, name=f"rescale/p{poly}-scale")
            )
        return graph

    def rotate(self, limbs: int | None = None) -> KernelGraph:
        """Slot rotation: automorphism plus one key switch."""
        limbs = self.params.limbs if limbs is None else limbs
        graph = KernelGraph(name="rotate", metadata={"limbs": limbs})
        graph.merge(self.automorphism(limbs=limbs, name="rotate/automorphism"))
        graph.merge(self.key_switch(limbs=limbs, name="rotate/keyswitch"))
        graph.merge(self.vec_mod_add(limbs=2 * limbs, name="rotate/combine"))
        return graph

    def operator(self, name: str, limbs: int | None = None) -> KernelGraph:
        """Dispatch an HE operator by name ("he_add", "he_mult", "rescale", "rotate")."""
        builders = {
            "he_add": self.he_add,
            "he_mult": self.he_mult,
            "rescale": self.rescale,
            "rotate": self.rotate,
        }
        try:
            builder = builders[name]
        except KeyError as exc:
            raise KeyError(f"unknown HE operator {name!r}") from exc
        return builder(limbs)

    # --------------------------------------------------------------- programs
    def parameter_load(self, bytes_needed: int, name: str = "parameters") -> KernelGraph:
        """Explicit HBM load of pre-known parameters (twiddles, keys)."""
        return KernelGraph(name=name).add(
            MemoryOp(
                name=f"{name}/hbm-load",
                category=Category.COPY_RESHAPE,
                bytes_moved=bytes_needed,
                direction="read",
            )
        )


@dataclass
class BootstrappingEstimate:
    """Latency estimate plus per-category breakdown for one bootstrap."""

    latency_s: float
    operator_latencies: dict[str, float]
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        """Total latency in milliseconds."""
        return self.latency_s * 1e3


def estimate_bootstrapping(
    compiler: CrossCompiler,
    device: TensorCoreDevice,
    schedule: BootstrappingSchedule | None = None,
    tensor_cores: int = 1,
) -> BootstrappingEstimate:
    """Price a packed bootstrapping schedule on a simulated device.

    The per-operator latency is profiled once (exactly as the paper profiles
    each kernel and multiplies by invocation counts) and the breakdown is the
    category-aggregated view of the composed trace.
    """
    schedule = schedule or BootstrappingSchedule(degree=compiler.degree)
    counts = schedule.operator_counts()
    operator_latencies: dict[str, float] = {}
    traces = []
    for operator, count in counts.items():
        trace = device.run(compiler.operator(operator))
        operator_latencies[operator] = trace.total_latency
        traces.append((trace, count))

    total = sum(trace.total_latency * count for trace, count in traces)
    breakdown: dict[str, float] = {}
    for trace, count in traces:
        for category, latency in trace.latency_by_category().items():
            breakdown[category.value] = breakdown.get(category.value, 0.0) + latency * count
    total_breakdown = sum(breakdown.values())
    if total_breakdown > 0:
        breakdown = {k: v / total_breakdown for k, v in breakdown.items()}
    return BootstrappingEstimate(
        latency_s=total / tensor_cores,
        operator_latencies=operator_latencies,
        breakdown=breakdown,
    )
