"""Baseline algorithms the paper compares against.

* :mod:`repro.baselines.gpu_flow` -- kernel graphs of the SoTA GPU
  high-precision multiplication flow (paper Fig. 7 left: sparse Toeplitz
  chunk matrix, seven partial sums, long carry-add chain) beside BAT's, as
  Table V prices them.
"""

from repro.baselines.gpu_flow import bat_matmul_graph, sparse_matmul_graph

__all__ = ["bat_matmul_graph", "sparse_matmul_graph"]
