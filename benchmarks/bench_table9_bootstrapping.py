"""Table IX: packed bootstrapping latency across TPU-VMs plus breakdown."""

import numpy as np
import pytest

from benchmarks.conftest import print_report
from repro.analysis import format_breakdown, format_table
from repro.ckks import (
    CkksBootstrapper,
    CkksEncoder,
    CkksEvaluator,
    CkksParameters,
    Decryptor,
    Encryptor,
    KeyGenerator,
)
from repro.core.compiler import estimate_bootstrapping
from repro.perf import BOOTSTRAPPING_BREAKDOWN_V6E8, BOOTSTRAPPING_LATENCY_MS
from repro.tpu import TensorCoreDevice

VM_SETUPS = {"v4-8": ("TPUv4", 8), "v5e-4": ("TPUv5e", 4), "v5p-8": ("TPUv5p", 8), "v6e-8": ("TPUv6e", 8)}


@pytest.mark.parametrize("vm_name", list(VM_SETUPS))
def test_table9_latency(benchmark, cross_set_d, vm_name):
    """Bootstrapping latency for one TPU-VM configuration."""
    generation, cores = VM_SETUPS[vm_name]
    device = TensorCoreDevice.for_generation(generation)

    estimate = benchmark(estimate_bootstrapping, cross_set_d, device, None, cores)

    print_report(
        f"Table IX {vm_name}",
        format_table(
            ["source", "latency (ms)"],
            [["paper", BOOTSTRAPPING_LATENCY_MS[vm_name]], ["simulated", estimate.latency_ms]],
        ),
    )
    assert estimate.latency_ms > 1


def test_table9_v6e_breakdown(benchmark, cross_set_d, tpu_v6e):
    """The v6e-8 bootstrapping breakdown: automorphism + vector work dominate."""
    estimate = benchmark(estimate_bootstrapping, cross_set_d, tpu_v6e, None, 8)
    print_report(
        "Table IX v6e-8 breakdown",
        format_breakdown(estimate.breakdown, title="simulated")
        + "\n"
        + format_breakdown(BOOTSTRAPPING_BREAKDOWN_V6E8, title="paper"),
    )
    assert estimate.breakdown.get("VecModOps", 0) + estimate.breakdown.get("Automorphism", 0) > 0.2


def test_table9_executable_pipeline(benchmark):
    """The pipeline Table IX prices, executed: ModRaise -> C2S -> EvalMod -> S2C.

    Runs at N = 64, where twenty 29-bit limbs cover the pipeline's depth and
    a sparse secret bounds ModRaise's overflow.  The refreshed slots must
    match the message to 2^-10 relative error, and the rotations and HE-Mults
    executed must equal the counts its schedule reports to the simulator.
    """
    params = CkksParameters.create(
        degree=64, limbs=20, log_q=29, dnum=10, scale_bits=29, special_limbs=3
    )
    params.error_stddev = 1.0
    keygen = KeyGenerator(params, rng=np.random.default_rng(11), hamming_weight=4)
    encoder = CkksEncoder(params)
    bootstrapper = CkksBootstrapper.create(encoder)
    evaluator = CkksEvaluator(
        params,
        relin_key=keygen.relinearization_key(),
        galois_keys=keygen.galois_keys_for_steps(
            bootstrapper.rotation_steps(), conjugation=True
        ),
    )
    rng = np.random.default_rng(13)
    z = 0.01 * (
        rng.uniform(-1, 1, params.slot_count) + 1j * rng.uniform(-1, 1, params.slot_count)
    )
    encryptor = Encryptor(params, keygen.public_key(), keygen)
    exhausted = encryptor.encrypt(encoder.encode(z, level=1))

    evaluator.reset_operation_counts()
    refreshed = benchmark.pedantic(
        bootstrapper.bootstrap, args=(evaluator, exhausted), rounds=1, iterations=1
    )
    measured = dict(evaluator.operation_counts)
    schedule = bootstrapper.schedule()
    decoded = encoder.decode(Decryptor(params, keygen.secret_key).decrypt(refreshed))
    relative = np.abs(decoded - z).max() / np.abs(z).max()
    print_report(
        "Table IX executable pipeline (N = 64)",
        format_table(
            ["source", "rotations", "HE-Mult", "levels out", "rel. error"],
            [
                [
                    "executed",
                    measured["rotate"],
                    measured["he_mult"],
                    refreshed.level,
                    f"{relative:.1e}",
                ],
                ["schedule", schedule.rotation_count, schedule.multiplication_count, "", ""],
            ],
        ),
    )
    assert relative < 2.0**-10
    assert measured["rotate"] == schedule.rotation_count
    assert measured["he_mult"] == schedule.multiplication_count
