"""Smoke test of the latency ledger (collected by tier-1, a few seconds).

Keeps ``BENCHMARK.json`` and the names the code emits equal, and proves the
one command still measures and checks a workload end to end on a 1 s window.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e import cli, spec, workloads

DECLARED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_declares_what_the_code_emits():
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert DECLARED["command"] == ["python3", "benchmarks/e2e/__main__.py"]
    assert DECLARED["run_seconds"] == spec.RUN_SECONDS
    assert DECLARED["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS
    ]
    assert DECLARED["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in spec.END_TO_END
    ]
    assert DECLARED["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in spec.PER_LAYER
    ]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(DECLARED["per_layer"]) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)


def _one_second(name: str) -> dict:
    report = cli.run(spec.WORKLOAD_BY_NAME[name], seed=3, seconds=1.0)
    assert report["problems"] == []
    assert report["counts"]["failed"] == 0
    assert report["counts"]["attempted"] >= 1
    assert set(report["metrics"]) == {name for name, *_ in spec.END_TO_END}
    assert all(value > 0 for value in report["metrics"].values())
    return report


def test_serve_thread_n64_one_second_window():
    _one_second("serve_thread_n64")


@pytest.mark.slow
def test_serve_process_n64_one_second_window():
    report = _one_second("serve_process_n64")
    assert report["supervisor"] == {"spawns": 2, "crashes": 0, "redispatches": 0}


def test_thread_and_process_n64_consume_the_same_stream():
    hashes = {
        name: workloads.build(spec.WORKLOAD_BY_NAME[name], seed=3).stream_hash
        for name in ("serve_thread_n64", "serve_process_n64")
    }
    assert len(set(hashes.values())) == 1
    other = workloads.build(spec.WORKLOAD_BY_NAME["serve_thread_n64"], seed=4)
    assert other.stream_hash not in hashes.values()
