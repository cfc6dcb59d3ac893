"""CROSS reproduction: homomorphic encryption on ASIC AI accelerators.

This library reproduces "Leveraging ASIC AI Chips for Homomorphic Encryption"
(HPCA 2026): the BAT and MAT compiler transformations, the layout-invariant
3-step NTT, a from-scratch CKKS-RNS scheme, a functional + roofline TPU
simulator, and the benchmark harnesses that regenerate every table and figure
of the paper's evaluation.

Package map
-----------
``repro.errors``     the typed ``ReproError`` exception taxonomy
``repro.diagnostics`` bounded event log + LRU cache registry (guardrails)
``repro.numtheory``  exact modular arithmetic, reductions, CRT, primes
``repro.poly``       negacyclic rings, NTT variants, RNS polynomials, BConv
``repro.core``       BAT, MAT, the 3-step NTT, the kernel IR and compiler
``repro.tpu``        simulated tensor-core devices (MXU/VPU/XLU + roofline)
``repro.ckks``       the CKKS scheme (encoder, evaluator, key switching)
``repro.cancellation`` cooperative deadlines/cancellation for deep circuits
``repro.parallel``   ``fan_out``: one request's independent work on its core budget
``repro.serving``    multi-tenant serving runtime (queue, retries, shards)
``repro.perf``       power-matched energy-efficiency methodology + paper data
``repro.baselines``  the GPU-flow baselines the paper compares against
``repro.workloads``  MNIST CNN and HELR logistic-regression workloads
``repro.analysis``   table/figure formatting used by the benchmarks
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "cancellation",
    "ckks",
    "core",
    "diagnostics",
    "errors",
    "numtheory",
    "parallel",
    "perf",
    "poly",
    "serving",
    "testing",
    "tpu",
    "workloads",
]
