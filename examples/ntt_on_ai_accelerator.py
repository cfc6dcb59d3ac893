"""NTT deep-dive: how BAT and MAT map a negacyclic NTT onto a matrix engine.

Walks through the paper's core technical story on real (small) data:

1. the reference radix-2 NTT,
2. the 4-step NTT with its explicit runtime transpose (the GPU decomposition),
3. CROSS's layout-invariant 3-step NTT where the transpose, the bit-reverse
   and the negacyclic twist are folded into offline parameters and the two
   matrix multiplications run as dense int8 (BAT) products, and
4. the simulated-TPU cost of each variant plus the batch-size ablation.

Run:  python examples/ntt_on_ai_accelerator.py
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import CompilerOptions, CrossCompiler
from repro.core.config import PARAMETER_SETS
from repro.core.ntt3step import FourStepNttPlan, ThreeStepNttPlan
from repro.perf import batch_throughput_curve, optimal_batch
from repro.poly.ring import PolyRing
from repro.numtheory.primes import generate_ntt_prime
from repro.tpu import TensorCoreDevice


def functional_walkthrough() -> None:
    degree = 256
    modulus = generate_ntt_prime(28, degree)
    ring = PolyRing(degree=degree, modulus=modulus)
    rng = np.random.default_rng(3)
    coeffs = ring.random_uniform(rng)

    reference = ring.ntt(coeffs)
    four_step = FourStepNttPlan(degree=degree, modulus=modulus, psi=ring.psi, rows=16, cols=16)
    three_step = ThreeStepNttPlan(
        degree=degree, modulus=modulus, psi=ring.psi, rows=16, cols=16,
        use_bat=True, reduction="montgomery",
    )

    print("== functional equivalence (N=256, 28-bit prime) ==")
    print(f"  4-step == reference          : {np.array_equal(four_step.forward(coeffs), reference)}")
    layout = three_step.forward(coeffs)
    print(f"  3-step (BAT+MAT) == reference: "
          f"{np.array_equal(three_step.to_reference_order(layout), reference)}")
    print(f"  3-step inverse roundtrip     : {np.array_equal(three_step.inverse(layout), coeffs)}")
    print(f"  layout-invariant order (first 8 indices): "
          f"{three_step.evaluation_permutation[:8].tolist()}")


def simulated_costs() -> None:
    device = TensorCoreDevice.for_generation("TPUv6e")
    params = PARAMETER_SETS["C"]
    cross = CrossCompiler(params, CompilerOptions.cross_default())
    gpu_flow = CrossCompiler(params, CompilerOptions.gpu_baseline())
    radix2 = CrossCompiler(params, CompilerOptions.vpu_only_baseline())

    print("\n== simulated TPUv6e cost of one batch of 16 NTTs (N=2^14) ==")
    for label, compiler in (("CROSS 3-step", cross), ("4-step + transpose", gpu_flow), ("radix-2 CT", radix2)):
        latency_us = device.latency(compiler.ntt(limbs=1, batch=16)) * 1e6
        print(f"  {label:20s}: {latency_us:9.1f} us")

    print("\n== batch-size ablation (paper Fig. 11b) ==")
    for set_name in ("A", "D"):
        compiler = CrossCompiler(PARAMETER_SETS[set_name], CompilerOptions.cross_default())
        points = batch_throughput_curve(compiler, device, [1, 2, 4, 8, 16, 32, 64])
        best = optimal_batch(points)
        print(f"  Set {set_name}: optimal batch {best.batch:3d}, throughput gain {best.normalized:4.2f}x")


if __name__ == "__main__":
    functional_walkthrough()
    simulated_costs()
