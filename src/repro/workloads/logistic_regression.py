"""HELR: encrypted logistic-regression training (paper section V-D b).

The paper follows HELR [30]: binary classification trained for 32 iterations,
each iteration a gradient update over a batch of 1024 images of 14x14 pixels,
reporting 84 ms per iteration on one TPUv6e tensor core.  An iteration is a
fixed pipeline of inner products, a degree-3 polynomial approximation of the
sigmoid, and a weighted update -- all expressible as rotations, plaintext and
ciphertext multiplications, and rescalings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import TYPE_CHECKING

from repro.workloads.mnist import WorkloadEstimate

if TYPE_CHECKING:
    from repro.core.compiler import CrossCompiler
    from repro.tpu.device import TensorCoreDevice


@dataclass(frozen=True)
class HelrIterationSchedule:
    """HE-operator counts for one HELR gradient-descent iteration.

    Attributes
    ----------
    batch_size:
        Samples per iteration (1024 in the paper).
    features:
        Feature count per sample (14 x 14 = 196).
    slot_count:
        Slots per ciphertext at the workload's parameter set.
    sigmoid_degree:
        Degree of the polynomial sigmoid approximation.
    """

    batch_size: int = 1024
    features: int = 196
    slot_count: int = 2**12
    sigmoid_degree: int = 3

    @property
    def sample_blocks(self) -> int:
        """Ciphertexts needed to hold the whole training batch."""
        return max(1, ceil(self.batch_size * self.features / self.slot_count))

    def operator_counts(self) -> dict[str, int]:
        """HE-operator invocation counts for one iteration.

        The inner product over the feature dimension is a rotate-and-add tree
        of depth ``log2(features)`` per sample block; the sigmoid needs
        ``sigmoid_degree`` ciphertext multiplications; the gradient
        accumulation is another rotation tree plus a plaintext-scaled update.
        """
        reduction_depth = ceil(log2(self.features))
        rotations = 2 * self.sample_blocks * reduction_depth
        ct_mults = self.sample_blocks * self.sigmoid_degree + self.sample_blocks
        plain_mults = 2 * self.sample_blocks
        rescales = ct_mults + plain_mults // 2
        additions = rotations + 2 * self.sample_blocks
        return {
            "rotate": rotations,
            "he_mult": ct_mults,
            "multiply_plain": plain_mults,
            "rescale": rescales,
            "he_add": additions,
        }


def estimate_helr_iteration(
    compiler: CrossCompiler,
    device: TensorCoreDevice,
    schedule: HelrIterationSchedule | None = None,
    tensor_cores: int = 1,
) -> WorkloadEstimate:
    """Latency of one HELR iteration on the simulated device."""
    schedule = schedule or HelrIterationSchedule()
    counts = schedule.operator_counts()
    latencies: dict[str, float] = {}
    total = 0.0
    for operator, count in counts.items():
        if operator == "multiply_plain":
            graph = compiler.vec_mod_mul(
                limbs=2 * compiler.params.limbs, name="multiply_plain"
            )
        else:
            graph = compiler.operator(operator)
        latency = device.latency(graph)
        latencies[operator] = latency * 1e6
        total += latency * count
    return WorkloadEstimate(
        latency_s=total / tensor_cores,
        operator_counts=counts,
        operator_latencies_us=latencies,
    )
