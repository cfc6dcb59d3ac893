"""Latency ledger: the repo's end-to-end benchmark (see README.md here).

Five fixed workloads take one canonical request from the bare evaluator to the
process shards and report absolute numbers: the end-to-end metrics a client
sees (``--trace 0``) and per-layer attribution measured from outside the
program (``--trace 1``).  ``BENCHMARK.json`` at the repo root declares the
command, the workload names and the metric names; ``spec.py`` is the copy the
code emits from, and the smoke test keeps the two equal.
"""
