"""Repeatability: run the whole benchmark ``--sets`` times and compare.

``python -m benchmarks.e2e.repeat --sets 2`` runs both passes of every
workload once per set, each run in its own interpreter, the sets in different
workload orders, all with the same seed.  It fails when

* any run reports a problem (a failed request, a restart, a decode miss);
* an end-to-end metric differs between sets by more than its bound;
* an exact counter (operator counts, transform passes, frame bytes,
  supervisor counters) differs at all;
* ``serve_thread_n64`` and ``serve_process_n64`` did not consume the same
  request stream (hash of the pickled payload list).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e import spec

MAIN = Path(__file__).with_name("__main__.py")
#: Per-layer metrics that must repeat exactly: the program's own counters.
EXACT = tuple(
    name
    for name, unit, _ in spec.PER_LAYER
    if unit in ("count", "bytes")
    and not name.startswith(("serving.queue", "serving.batch", "serving.runtime"))
)


def run_once(workload: str, seed: int, seconds: float, trace: int, scratch: Path) -> dict:
    target = scratch / f"{workload}.{trace}.json"
    command = [
        sys.executable, str(MAIN),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--json", str(target),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if not target.exists():
        raise SystemExit(f"{workload} --trace {trace} produced no report:\n{done.stderr}")
    return json.loads(target.read_text())


def compare(sets: list) -> list:
    """Every disagreement between the sets, as printable lines."""
    problems = []
    for index, reports in enumerate(sets):
        for (workload, trace), report in reports.items():
            for problem in report["problems"]:
                problems.append(f"set {index} {workload} trace={trace}: {problem}")
        if reports["serve_thread_n64", 0]["stream_hash"] != reports[
            "serve_process_n64", 0
        ]["stream_hash"]:
            problems.append(f"set {index}: thread and process n64 streams differ")
    for workload in spec.WORKLOAD_BY_NAME:
        for name, _unit, _better, bound in spec.END_TO_END:
            values = [reports[workload, 0]["metrics"][name] for reports in sets]
            gap = (max(values) - min(values)) / min(values)
            verdict = "ok" if gap <= bound else "DISAGREE"
            print(f"{workload:22s} {name:16s} {values} gap={gap:.3f} bound={bound} {verdict}")
            if gap > bound:
                problems.append(f"{workload} {name}: sets differ by {gap:.3f} > {bound}")
        for name in EXACT:
            values = {reports[workload, 1]["metrics"][name] for reports in sets}
            if len(values) > 1:
                problems.append(f"{workload} {name}: exact counter differs {values}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.repeat", description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)
    names = [workload.name for workload in spec.WORKLOADS]
    sets = []
    with tempfile.TemporaryDirectory() as scratch:
        for index in range(args.sets):
            # A different invocation order per set: an ordering effect
            # (thermal, page cache) must not pass as agreement.
            order = names if index % 2 == 0 else names[::-1]
            reports = {}
            for workload in order:
                for trace in (0, 1):
                    print(f"set {index}: {workload} --trace {trace}", flush=True)
                    reports[workload, trace] = run_once(
                        workload, args.seed, args.seconds, trace, Path(scratch)
                    )
            sets.append(reports)
    problems = compare(sets)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("repeatable" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
