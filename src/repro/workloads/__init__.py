"""Application workloads from the paper's evaluation (section V-D).

* :mod:`repro.workloads.mnist` -- the HE CNN used for encrypted MNIST
  inference (2x {Conv -> square activation -> AvgPool} -> FC -> act -> FC),
  expressed both as a kernel schedule for latency estimation and as a small
  functional encrypted-inference demo.
* :mod:`repro.workloads.logistic_regression` -- the HELR encrypted
  logistic-regression training iteration, as a kernel schedule for latency
  estimation.
"""

from repro.workloads.logistic_regression import (
    HelrIterationSchedule,
    estimate_helr_iteration,
)
from repro.workloads.mnist import (
    MnistCnnSchedule,
    estimate_mnist_inference,
    run_encrypted_linear_layer,
)

__all__ = [
    "HelrIterationSchedule",
    "MnistCnnSchedule",
    "estimate_helr_iteration",
    "estimate_mnist_inference",
    "run_encrypted_linear_layer",
]
