"""Test-support utilities: fault drills and the serving chaos harness."""

from repro.testing.faults import (
    FaultHandle,
    calibration_lie,
    corrupted_four_step_tables,
    flipped_ciphertext_bit,
    perturbed_gemm_outputs,
)

__all__ = [
    "FaultHandle",
    "calibration_lie",
    "chaos",
    "corrupted_four_step_tables",
    "flipped_ciphertext_bit",
    "perturbed_gemm_outputs",
]
