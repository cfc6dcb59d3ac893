"""Encrypted MNIST CNN inference (paper section V-D a).

The paper evaluates a small convolutional network
(2x {Conv -> ReLU-like activation -> AvgPool} -> FC -> activation -> FC) on
encrypted inputs with ``N = 2**13``, ``L = 18``, ``dnum = 3`` and no
bootstrapping, reporting 270 ms amortised latency per image on TPUv6e-8.  The
latency number is obtained with the same worst-case methodology used for
bootstrapping: count HE-kernel invocations and multiply by the per-kernel
profiled latency.  ``MnistCnnSchedule`` produces those counts;
``estimate_mnist_inference`` prices them on the simulated device.

A small *functional* encrypted linear layer (``run_encrypted_linear_layer``)
demonstrates the same computation end-to-end on the exact CKKS stack at
test-friendly parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import TYPE_CHECKING

import numpy as np

from repro.ckks.ciphertext import Ciphertext
from repro.ckks.encoding import CkksEncoder
from repro.ckks.evaluator import CkksEvaluator

if TYPE_CHECKING:
    from repro.core.compiler import CrossCompiler
    from repro.tpu.device import TensorCoreDevice


@dataclass(frozen=True)
class ConvLayerSpec:
    """One convolution layer (channels-last, square kernels)."""

    input_size: int
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1

    @property
    def output_size(self) -> int:
        """Spatial output dimension."""
        return (self.input_size - self.kernel_size) // self.stride + 1


@dataclass
class MnistCnnSchedule:
    """HE-operator counts for one batched inference of the paper's CNN.

    With weights as plaintexts and activations packed into ciphertext slots,
    a convolution becomes (kernel_size^2 * in_channels) rotations plus
    plaintext multiplications per output channel block; the square activation
    is one ciphertext-ciphertext multiplication plus a rescale; the fully
    connected layers are baby-step/giant-step matrix-vector products.
    """

    image_size: int = 32
    conv_layers: tuple[ConvLayerSpec, ...] = (
        ConvLayerSpec(input_size=32, in_channels=3, out_channels=8, kernel_size=3),
        ConvLayerSpec(input_size=15, in_channels=8, out_channels=16, kernel_size=3),
    )
    fc_dims: tuple[tuple[int, int], ...] = ((16 * 6 * 6, 64), (64, 10))
    slot_count: int = 2**12

    def convolution_counts(self) -> dict[str, int]:
        """Rotations / plaintext mults / rescales used by the two conv blocks."""
        rotations = 0
        plain_mults = 0
        activations = 0
        for layer in self.conv_layers:
            taps = layer.kernel_size * layer.kernel_size * layer.in_channels
            channel_blocks = ceil(
                layer.out_channels * layer.output_size**2 / self.slot_count
            )
            rotations += taps * max(1, channel_blocks)
            plain_mults += taps * max(1, channel_blocks)
            activations += max(1, channel_blocks)
            # Average pooling is a short rotation-and-add tree.
            rotations += 2 * max(1, channel_blocks)
        return {
            "rotate": rotations,
            "multiply_plain": plain_mults,
            "he_mult": activations,
            "rescale": plain_mults // 4 + activations,
        }

    def fully_connected_counts(self) -> dict[str, int]:
        """Rotations / plaintext mults for the FC layers (baby-step giant-step)."""
        rotations = 0
        plain_mults = 0
        activations = 1  # activation between the two FC layers
        for rows, cols in self.fc_dims:
            diagonals = min(rows, self.slot_count)
            giant = ceil(diagonals**0.5)
            rotations += 2 * giant
            plain_mults += diagonals // max(1, giant) * giant
        return {
            "rotate": rotations,
            "multiply_plain": plain_mults,
            "he_mult": activations,
            "rescale": activations + 2,
        }

    def operator_counts(self) -> dict[str, int]:
        """Total HE-operator invocation counts for one inference."""
        conv = self.convolution_counts()
        fc = self.fully_connected_counts()
        combined: dict[str, int] = {}
        for source in (conv, fc):
            for key, value in source.items():
                combined[key] = combined.get(key, 0) + value
        combined["he_add"] = combined.get("rotate", 0)  # one add per rotated tap
        return combined


@dataclass
class WorkloadEstimate:
    """Latency estimate for one workload invocation."""

    latency_s: float
    operator_counts: dict[str, int]
    operator_latencies_us: dict[str, float] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        """Latency in milliseconds."""
        return self.latency_s * 1e3


def estimate_mnist_inference(
    compiler: CrossCompiler,
    device: TensorCoreDevice,
    schedule: MnistCnnSchedule | None = None,
    tensor_cores: int = 8,
    batch: int = 64,
) -> WorkloadEstimate:
    """Amortised per-image latency of encrypted MNIST inference."""
    schedule = schedule or MnistCnnSchedule()
    counts = schedule.operator_counts()
    latencies: dict[str, float] = {}
    total = 0.0
    for operator, count in counts.items():
        if operator == "multiply_plain":
            graph = compiler.vec_mod_mul(limbs=2 * compiler.params.limbs, name="multiply_plain")
        else:
            graph = compiler.operator(operator)
        latency = device.latency(graph)
        latencies[operator] = latency * 1e6
        total += latency * count
    # Images are processed as a batch spread across the tensor cores.
    amortized = total * batch / (tensor_cores * batch)
    return WorkloadEstimate(
        latency_s=amortized, operator_counts=counts, operator_latencies_us=latencies
    )


def run_encrypted_linear_layer(
    evaluator: CkksEvaluator,
    encoder: CkksEncoder,
    ciphertext: Ciphertext,
    weights: np.ndarray,
    bias: np.ndarray,
) -> Ciphertext:
    """Functionally apply ``diag(weights) * x + bias`` to an encrypted vector.

    A deliberately simple (diagonal) linear layer: one plaintext
    multiplication, one rescale and one plaintext addition -- enough to
    exercise the full encode/encrypt/evaluate path in the examples and tests
    without the bookkeeping of a general matrix-vector product.
    """
    weight_plain = encoder.encode(np.asarray(weights, dtype=np.float64), level=ciphertext.level)
    product = evaluator.multiply_plain(ciphertext, weight_plain)
    rescaled = evaluator.rescale(product)
    bias_plain = encoder.encode(
        np.asarray(bias, dtype=np.float64), scale=rescaled.scale, level=rescaled.level
    )
    return evaluator.add_plain(rescaled, bias_plain)
