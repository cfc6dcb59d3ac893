"""Kernel graphs of the paper's high-precision ModMatMul baseline (Table V).

The SoTA GPU flow expands a 32-bit modular multiplication into a sparse
Toeplitz int8 matrix-vector product with ``2K-1`` partial sums and a long
carry-add chain (paper Fig. 7 left); BAT folds it into a dense ``K x K``
operand.  The compiler configurations of the TPU baselines are
``CompilerOptions.gpu_baseline()`` and ``CompilerOptions.vpu_only_baseline()``.
"""

from __future__ import annotations

from repro.core.kernel_ir import Category, KernelGraph, MatMulOp, TypeConvertOp, VectorOp


def sparse_matmul_graph(
    height: int, inner: int, width: int, chunk_count: int = 4, name: str = "sparse-modmatmul"
) -> KernelGraph:
    """Kernel graph of the sparse-Toeplitz high-precision ModMatMul (Table V baseline).

    The left operand expands to ``(2K-1)H x KV`` (43% zeros are still
    multiplied), the runtime operand needs an explicit type conversion, and
    the carry chain has ``2K-1`` links.
    """
    k = chunk_count
    graph = KernelGraph(name=name, metadata={"h": height, "v": inner, "w": width})
    graph.add(
        TypeConvertOp(
            name=f"{name}/chunk-decompose",
            category=Category.TYPE_CONVERSION,
            elements=inner * width,
            from_bits=32,
            to_bits=8,
        )
    )
    graph.add(
        TypeConvertOp(
            name=f"{name}/static-param-convert",
            category=Category.TYPE_CONVERSION,
            elements=height * inner,
            from_bits=32,
            to_bits=8,
        )
    )
    graph.add(
        MatMulOp(
            name=f"{name}/sparse-matmul",
            category=Category.OTHER,
            m=(2 * k - 1) * height,
            k=k * inner,
            n=width,
            operand_bits=8,
        )
    )
    graph.add(
        VectorOp(
            name=f"{name}/carry-add-chain",
            category=Category.VEC_MOD_OPS,
            elements=height * width,
            ops_per_element=(2 * k - 1) + 14.0,
        )
    )
    return graph


def bat_matmul_graph(
    height: int, inner: int, width: int, chunk_count: int = 4, name: str = "bat-modmatmul"
) -> KernelGraph:
    """Kernel graph of the dense BAT ModMatMul (Table V CROSS row).

    Dense ``KH x KV`` left operand (compiled offline, no runtime conversion of
    the static parameter), carry chain of ``K`` links.
    """
    k = chunk_count
    graph = KernelGraph(name=name, metadata={"h": height, "v": inner, "w": width})
    graph.add(
        TypeConvertOp(
            name=f"{name}/chunk-decompose",
            category=Category.TYPE_CONVERSION,
            elements=inner * width,
            from_bits=32,
            to_bits=8,
        )
    )
    graph.add(
        MatMulOp(
            name=f"{name}/dense-matmul",
            category=Category.OTHER,
            m=k * height,
            k=k * inner,
            n=width,
            operand_bits=8,
        )
    )
    graph.add(
        VectorOp(
            name=f"{name}/carry-add-chain",
            category=Category.VEC_MOD_OPS,
            elements=height * width,
            ops_per_element=k + 14.0,
        )
    )
    return graph
