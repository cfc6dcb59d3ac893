"""Tests for the MNIST and HELR workload models and the functional layer demo."""

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, CrossCompiler
from repro.core.config import SecurityParams
from repro.tpu import TensorCoreDevice
from repro.workloads import (
    HelrIterationSchedule,
    MnistCnnSchedule,
    estimate_helr_iteration,
    estimate_mnist_inference,
    run_encrypted_linear_layer,
)

MNIST_PARAMS = SecurityParams(name="mnist", degree=2**13, log_q=28, limbs=18, dnum=3)


@pytest.fixture(scope="module")
def mnist_compiler():
    return CrossCompiler(MNIST_PARAMS, CompilerOptions.cross_default())


@pytest.fixture(scope="module")
def device():
    return TensorCoreDevice.for_generation("TPUv6e")


class TestMnistSchedule:
    def test_counts_positive(self):
        counts = MnistCnnSchedule().operator_counts()
        assert all(value > 0 for value in counts.values())
        assert counts["rotate"] > counts["he_mult"]

    def test_conv_output_size(self):
        layer = MnistCnnSchedule().conv_layers[0]
        assert layer.output_size == 30

    def test_convolution_counts_by_hand(self):
        """Conv 1: 27 taps over 2 slot blocks; conv 2: 72 taps over 1 block;
        each block adds a 2-rotation pooling tree and one square activation."""
        counts = MnistCnnSchedule().convolution_counts()
        assert counts == {
            "rotate": 27 * 2 + 2 * 2 + 72 + 2,
            "multiply_plain": 27 * 2 + 72,
            "he_mult": 3,
            "rescale": (27 * 2 + 72) // 4 + 3,
        }

    def test_fully_connected_counts_by_hand(self):
        """BSGS over 576 and 64 diagonals: giant steps of 24 and 8."""
        counts = MnistCnnSchedule().fully_connected_counts()
        assert counts == {
            "rotate": 2 * 24 + 2 * 8,
            "multiply_plain": 576 + 64,
            "he_mult": 1,
            "rescale": 3,
        }
        total = MnistCnnSchedule().operator_counts()
        assert total["he_add"] == total["rotate"] == 132 + 64

    def test_estimate(self, mnist_compiler, device):
        estimate = estimate_mnist_inference(mnist_compiler, device, tensor_cores=8)
        assert estimate.latency_ms > 1
        # Same order of magnitude as the paper's 270 ms per image.
        assert estimate.latency_ms < 10_000

    def test_cross_faster_than_baseline(self, device):
        cross = estimate_mnist_inference(
            CrossCompiler(MNIST_PARAMS, CompilerOptions.cross_default()), device
        )
        baseline = estimate_mnist_inference(
            CrossCompiler(MNIST_PARAMS, CompilerOptions.gpu_baseline()), device
        )
        assert cross.latency_s < baseline.latency_s


class TestHelrSchedule:
    def test_counts(self):
        schedule = HelrIterationSchedule()
        counts = schedule.operator_counts()
        assert schedule.sample_blocks == 49
        assert counts["rotate"] > 0 and counts["he_mult"] > 0

    def test_estimate(self, mnist_compiler, device):
        estimate = estimate_helr_iteration(mnist_compiler, device)
        assert estimate.latency_ms > 1
        assert "rotate" in estimate.operator_latencies_us


class TestFunctionalLinearLayer:
    def test_encrypted_diagonal_layer(self, ckks_setup, rng):
        params = ckks_setup["params"]
        encoder = ckks_setup["encoder"]
        slots = params.slot_count
        x = rng.uniform(-1, 1, slots)
        weights = rng.uniform(-1, 1, slots)
        bias = rng.uniform(-0.5, 0.5, slots)
        ciphertext = ckks_setup["encryptor"].encrypt(encoder.encode_real(x))
        result = run_encrypted_linear_layer(
            ckks_setup["evaluator"], encoder, ciphertext, weights, bias
        )
        decoded = encoder.decode(ckks_setup["decryptor"].decrypt(result)).real
        expected = weights * x + bias
        assert np.abs(decoded - expected).max() < 0.05
