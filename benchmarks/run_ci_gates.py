"""Unified CI benchmark driver: run every quick-mode perf gate, emit JSON.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/run_ci_gates.py [--output bench_summary.json]
                                                     [--only GATE] [--full]

Replaces the copy-pasted per-benchmark CI steps: each gate script is executed
as a subprocess with ``--quick --json <tmp>``, its machine-readable summary
is collected, and one ``bench_summary.json`` is written with the per-gate
speedups, thresholds, pass/fail verdicts and wall-clock times.  CI uploads
the file as a workflow artifact.

The driver also maintains the **perf trajectory**: unless ``--no-trajectory``
is passed, the aggregate (plus git commit metadata) is snapshotted as
``BENCH_<index>.json`` under ``--trajectory-dir`` (default
``benchmarks/trajectory/``, committed in-repo), with ``<index>`` taken from
``--pr-index`` or auto-incremented past the existing snapshots.  That turns
the per-PR perf history into data the next session can diff instead of
something buried in CI job logs; ``BENCH_5.json`` seeds the series.

When ``$GITHUB_STEP_SUMMARY`` is set (always, inside an Actions job), the
driver also appends a markdown gate table plus the per-series speedup delta
vs the previous snapshot, so regressions are readable from the Actions run
page without digging through artifacts.

The driver runs *all* gates even after a failure (one regression must not
mask another) and exits non-zero if any gate failed.  A gate flagged only
by the trajectory diff gets one automatic re-run (a real regression
reproduces; a slow scheduler draw on a shared runner does not) before the
verdict is final.  The :data:`EXACT_SERIES` some gates report (``limb_rows``:
NTT limb rows per call, read from the engine's counters; ``encoder_bytes``:
embedding tables a fresh encoder holds) are deterministic: any rise over the
previous snapshot fails the run, with no tolerance and no retry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

#: The quick-mode perf gates, in dependency-free execution order.
GATES = [
    ("ntt_engine", "benchmarks/bench_ntt_engine.py"),
    ("ntt_fourstep", "benchmarks/bench_ntt_fourstep.py"),
    ("keyswitch_fused", "benchmarks/bench_keyswitch_fused.py"),
    ("linear_transform", "benchmarks/bench_linear_transform.py"),
    ("poly_eval", "benchmarks/bench_poly_eval.py"),
    ("batched_evaluator", "benchmarks/bench_batched_evaluator.py"),
    ("fault_injection", "benchmarks/bench_fault_injection.py"),
    ("serving_load", "benchmarks/bench_serving_load.py"),
    ("serving_shard", "benchmarks/bench_serving_shard.py"),
]

#: A gated speedup series may drop at most this fraction below the previous
#: trajectory snapshot before ``trajectory_check`` fails the run.  Throughput
#: ratios on shared single-core CI runners vary ~+-20% run to run (measured:
#: the batched-evaluator series spans 3.4x-5.2x across back-to-back runs of
#: an unchanged tree), so the floor must sit below that band to flag only
#: real regressions; each gate's own absolute threshold still backstops it.
REGRESSION_TOLERANCE = 0.25

#: Lower-is-better series that are counts, not timings: compared exactly.
EXACT_SERIES = ("limb_rows", "encoder_bytes")


def run_gate(name: str, script: str, repo_root: str, quick: bool) -> dict:
    """Run one gate script and collect its JSON summary + exit status."""
    with tempfile.NamedTemporaryFile(
        suffix=f"-{name}.json", delete=False
    ) as handle:
        json_path = handle.name
    command = [sys.executable, script, "--json", json_path]
    if quick:
        command.insert(2, "--quick")
    environment = dict(os.environ)
    src = os.path.join(repo_root, "src")
    environment["PYTHONPATH"] = (
        src + os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH")
        else src
    )
    started = time.perf_counter()
    completed = subprocess.run(
        command, cwd=repo_root, env=environment, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - started
    sys.stdout.write(completed.stdout)
    sys.stderr.write(completed.stderr)
    summary = None
    try:
        with open(json_path) as handle:
            summary = json.load(handle)
    except (OSError, json.JSONDecodeError):
        pass
    finally:
        try:
            os.unlink(json_path)
        except OSError:
            pass
    passed = completed.returncode == 0 and bool(
        summary.get("passed") if summary else False
    )
    return {
        "gate": name,
        "script": script,
        "exit_code": completed.returncode,
        "elapsed_s": round(elapsed, 3),
        "passed": passed,
        "summary": summary,
    }


def _git_metadata(repo_root: str) -> dict:
    """Best-effort commit identification for trajectory snapshots."""
    metadata = {}
    for key, command in [
        ("commit", ["git", "rev-parse", "--short", "HEAD"]),
        ("subject", ["git", "log", "-1", "--format=%s"]),
    ]:
        try:
            completed = subprocess.run(
                command, cwd=repo_root, capture_output=True, text=True, timeout=10
            )
            if completed.returncode == 0:
                metadata[key] = completed.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return metadata


def _next_trajectory_index(directory: str) -> int:
    """One past the highest existing ``BENCH_<n>.json`` snapshot index."""
    highest = -1
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            match = re.fullmatch(r"BENCH_(\d+)\.json", name)
            if match:
                highest = max(highest, int(match.group(1)))
    return highest + 1


def write_trajectory_snapshot(
    aggregate: dict, directory: str, repo_root: str, pr_index: int | None
) -> str:
    """Write ``BENCH_<index>.json`` into the trajectory directory."""
    os.makedirs(directory, exist_ok=True)
    index = pr_index if pr_index is not None else _next_trajectory_index(directory)
    snapshot = {
        "pr_index": index,
        "git": _git_metadata(repo_root),
        **aggregate,
    }
    path = os.path.join(directory, f"BENCH_{index}.json")
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2)
    return path


def _series(gate_results: list, key: str = "speedup") -> dict:
    """Extract ``(gate, series) -> value`` for every gate reporting ``key``.

    Trajectory-diffed keys: ``speedup``, the higher-is-better perf ratios
    (within :data:`REGRESSION_TOLERANCE`), and each of :data:`EXACT_SERIES`,
    exact lower-is-better counts (no tolerance: counters, not timings).
    Value/threshold correctness counters (silent faults, hang counts) are
    pass/fail in their own gate and carry no regression semantics.  Gates
    whose summary is ``null`` (crashed or failed before writing JSON)
    contribute nothing.
    """
    series = {}
    for result in gate_results:
        summary = result.get("summary")
        if not summary:
            continue
        for gate in summary.get("gates", []):
            value = gate.get(key)
            if isinstance(value, (int, float)):
                series[(result["gate"], gate["name"])] = float(value)
    return series


def _previous_snapshot(directory: str, new_index: int) -> tuple[int, dict] | None:
    """The highest-indexed ``BENCH_<n>.json`` with ``n < new_index``."""
    best = None
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            match = re.fullmatch(r"BENCH_(\d+)\.json", name)
            if match and int(match.group(1)) < new_index:
                index = int(match.group(1))
                if best is None or index > best:
                    best = index
    if best is None:
        return None
    try:
        with open(os.path.join(directory, f"BENCH_{best}.json")) as handle:
            return best, json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def trajectory_check(results: list, directory: str, new_index: int) -> dict:
    """Pseudo-gate: diff this run's speedup series against the last snapshot.

    Fails when any gated speedup regressed more than
    :data:`REGRESSION_TOLERANCE` versus the previous ``BENCH_<n>.json``
    -- the point of keeping the trajectory in-repo is that a perf PR cannot
    silently trade away an earlier PR's win -- or when any of the
    :data:`EXACT_SERIES` rose at all: those are deterministic counters, so a
    rise is a dataflow or footprint regression, never runner noise, and is
    not retried.  Series
    present only on one side (new gates, removed gates, a previous null
    summary) are skipped: absence is visible in the snapshots themselves.
    """
    started = time.perf_counter()
    previous = _previous_snapshot(directory, new_index)
    current = _series(results)
    regressions = []
    raised = []
    compared = 0
    if previous is None:
        baseline_index = None
        baseline = {}
    else:
        baseline_index, snapshot = previous
        baseline = _series(snapshot.get("gates", []))
        for key, prev_value in sorted(baseline.items()):
            new_value = current.get(key)
            if new_value is None:
                continue
            compared += 1
            floor = (1.0 - REGRESSION_TOLERANCE) * prev_value
            if new_value < floor:
                regressions.append(
                    {
                        "gate": key[0],
                        "series": key[1],
                        "previous": prev_value,
                        "current": new_value,
                        "floor": floor,
                    }
                )
        for counter in EXACT_SERIES:
            now = _series(results, counter)
            before = _series(snapshot.get("gates", []), counter)
            for key in sorted(set(before) & set(now)):
                if now[key] > before[key]:
                    raised.append(
                        {
                            "counter": counter,
                            "gate": key[0],
                            "series": key[1],
                            "previous": before[key],
                            "current": now[key],
                        }
                    )
    passed = not regressions and not raised
    summary = {
        "name": "trajectory_check",
        "baseline_index": baseline_index,
        "tolerance": REGRESSION_TOLERANCE,
        "series_compared": compared,
        "regressions": regressions,
        "exact_series_raised": raised,
        "passed": passed,
    }
    if baseline_index is None:
        print("trajectory_check: no previous snapshot; nothing to diff")
    else:
        print(
            f"trajectory_check: {compared} speedup series vs "
            f"BENCH_{baseline_index}.json, {len(regressions)} regressed "
            f"beyond {REGRESSION_TOLERANCE:.0%}"
        )
        for regression in regressions:
            print(
                f"  REGRESSION {regression['gate']}/{regression['series']}: "
                f"{regression['previous']:.2f} -> {regression['current']:.2f} "
                f"(floor {regression['floor']:.2f})"
            )
        for entry in raised:
            print(
                f"  {entry['counter'].upper()} RAISED "
                f"{entry['gate']}/{entry['series']}: "
                f"{entry['previous']:.0f} -> {entry['current']:.0f}"
            )
    return {
        "gate": "trajectory_check",
        "script": "(driver)",
        "exit_code": 0 if passed else 1,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "passed": passed,
        "summary": summary,
    }


def _markdown_summary(
    results: list, directory: str, new_index: int
) -> str:
    """Render the gate table + per-series trajectory delta as markdown.

    This is what lands in ``$GITHUB_STEP_SUMMARY``: the per-gate verdicts and
    each speedup series' delta versus the previous ``BENCH_<n>.json``, so a
    regression is readable from the Actions run page without downloading the
    ``bench_summary.json`` artifact.
    """
    lines = ["## Benchmark gates", ""]
    lines.append("| gate | verdict | elapsed | detail |")
    lines.append("| --- | --- | ---: | --- |")
    for result in results:
        verdict = "✅ pass" if result["passed"] else "❌ FAIL"
        summary = result.get("summary") or {}
        details = []
        for gate in summary.get("gates", []):
            value = gate.get("speedup")
            if isinstance(value, (int, float)):
                details.append(
                    f"{gate['name']} {value:.2f}x (≥ {gate.get('threshold', 0):.2f}x)"
                )
        if result["gate"] == "trajectory_check":
            compared = summary.get("series_compared", 0)
            regressed = len(summary.get("regressions", []))
            details.append(f"{compared} series diffed, {regressed} regressed")
        lines.append(
            f"| {result['gate']} | {verdict} | {result['elapsed_s']:.1f}s "
            f"| {'; '.join(details)} |"
        )
    lines.append("")

    previous = _previous_snapshot(directory, new_index)
    current = _series(results)
    lines.append("## Speedup trajectory")
    lines.append("")
    if previous is None:
        lines.append("_No previous `BENCH_<n>.json` snapshot to diff against._")
    else:
        baseline_index, snapshot = previous
        baseline = _series(snapshot.get("gates", []))
        lines.append(
            f"Delta vs `BENCH_{baseline_index}.json` "
            f"(tolerance -{REGRESSION_TOLERANCE:.0%}):"
        )
        lines.append("")
        lines.append("| series | previous | current | delta |")
        lines.append("| --- | ---: | ---: | ---: |")
        for key in sorted(set(baseline) | set(current)):
            prev_value, new_value = baseline.get(key), current.get(key)
            name = f"{key[0]}/{key[1]}"
            if prev_value is None:
                lines.append(f"| {name} | — | {new_value:.2f}x | new |")
            elif new_value is None:
                lines.append(f"| {name} | {prev_value:.2f}x | — | removed |")
            else:
                delta = (new_value - prev_value) / prev_value
                flag = " ⚠️" if new_value < (1 - REGRESSION_TOLERANCE) * prev_value else ""
                lines.append(
                    f"| {name} | {prev_value:.2f}x | {new_value:.2f}x "
                    f"| {delta:+.1%}{flag} |"
                )
    lines.append("")
    return "\n".join(lines)


def _retry_perf_failures(
    results: list, repo_root: str, quick: bool
) -> list:
    """One retry for gates that failed *only* on a speedup threshold.

    A speedup gate sitting near its threshold can lose to a slow scheduler
    draw on a shared runner; a real perf regression reproduces on an
    immediate re-run.  Correctness gates (silent-fault counts, exactness,
    hang counts) are never retried -- their failures are evidence, not
    noise -- so a gate is only eligible when every failing series in its
    summary carries a ``speedup`` value.  The retry replaces the original
    run only if it passes, and is marked ``"retried": true``.
    """
    scripts = dict(GATES)
    for index, result in enumerate(results):
        if result["passed"]:
            continue
        summary = result.get("summary")
        if not summary:
            continue
        failing = [g for g in summary.get("gates", []) if not g.get("passed")]
        if not failing or not all(
            isinstance(g.get("speedup"), (int, float)) for g in failing
        ):
            continue
        script = scripts.get(result["gate"])
        if script is None:
            continue
        print(
            f"=== retry: {result['gate']} (speedup threshold miss; "
            "ruling out runner noise) ===",
            flush=True,
        )
        retry = run_gate(result["gate"], script, repo_root, quick=quick)
        print(flush=True)
        if retry["passed"]:
            retry["retried"] = True
            results[index] = retry
    return results


def _retry_regressed_gates(
    results: list,
    check: dict,
    repo_root: str,
    quick: bool,
    directory: str,
    new_index: int,
) -> tuple[list, dict]:
    """One retry for gates whose speedup series regressed past tolerance.

    Shared runners occasionally draw a slow sample on a throughput series;
    a genuine regression reproduces on an immediate re-run.  Each regressed
    gate is re-run once and the better of its two runs (judged by the worst
    flagged series) is kept, then the trajectory is diffed again.  The
    kept run is marked ``"retried": true`` in the summary so the snapshot
    records that a retry happened.
    """
    scripts = dict(GATES)
    flagged: dict = {}
    for regression in check["summary"]["regressions"]:
        flagged.setdefault(regression["gate"], []).append(regression["series"])

    def worst_flagged(result: dict, name: str, series_names: list) -> float:
        values = _series([result])
        return min(
            values.get((name, series), float("-inf")) for series in series_names
        )

    for name, series_names in sorted(flagged.items()):
        script = scripts.get(name)
        index = next(
            (i for i, entry in enumerate(results) if entry["gate"] == name),
            None,
        )
        if script is None or index is None:
            continue
        print(
            f"=== retry: {name} (trajectory regression; "
            "ruling out runner noise) ===",
            flush=True,
        )
        retry = run_gate(name, script, repo_root, quick=quick)
        print(flush=True)
        if retry["passed"] and worst_flagged(
            retry, name, series_names
        ) > worst_flagged(results[index], name, series_names):
            retry["retried"] = True
            results[index] = retry
    print("=== gate: trajectory_check (driver, after retry) ===", flush=True)
    return results, trajectory_check(results, directory, new_index)


def write_step_summary(
    results: list, directory: str, new_index: int, path: str | None
) -> None:
    """Append the markdown summary to ``$GITHUB_STEP_SUMMARY`` when set."""
    if not path:
        return
    try:
        with open(path, "a") as handle:
            handle.write(_markdown_summary(results, directory, new_index))
            handle.write("\n")
    except OSError as error:
        print(f"warning: could not write step summary to {path}: {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="bench_summary.json",
        help="path of the aggregated machine-readable summary",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=[name for name, _ in GATES],
        help="run only the named gate(s); repeatable",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full (non --quick) benchmark configurations",
    )
    parser.add_argument(
        "--trajectory-dir",
        default="benchmarks/trajectory",
        help="directory holding the per-PR BENCH_<n>.json perf snapshots",
    )
    parser.add_argument(
        "--pr-index",
        type=int,
        default=None,
        help="snapshot index (defaults to one past the highest existing)",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip writing the trajectory snapshot",
    )
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    selected = [
        (name, script)
        for name, script in GATES
        if not args.only or name in args.only
    ]

    results = []
    for name, script in selected:
        print(f"=== gate: {name} ({script}) ===", flush=True)
        results.append(run_gate(name, script, repo_root, quick=not args.full))
        print(flush=True)
    results = _retry_perf_failures(results, repo_root, quick=not args.full)

    trajectory_dir = (
        args.trajectory_dir
        if os.path.isabs(args.trajectory_dir)
        else os.path.join(repo_root, args.trajectory_dir)
    )
    snapshot_index = (
        args.pr_index
        if args.pr_index is not None
        else _next_trajectory_index(trajectory_dir)
    )
    if not args.no_trajectory:
        print("=== gate: trajectory_check (driver) ===", flush=True)
        check = trajectory_check(results, trajectory_dir, snapshot_index)
        print(flush=True)
        if check["summary"]["regressions"] and not args.only:
            results, check = _retry_regressed_gates(
                results,
                check,
                repo_root,
                quick=not args.full,
                directory=trajectory_dir,
                new_index=snapshot_index,
            )
            print(flush=True)
        results.append(check)

    all_passed = all(result["passed"] for result in results)
    aggregate = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "mode": "full" if args.full else "quick",
        "gates": results,
        "passed": all_passed,
    }
    with open(args.output, "w") as handle:
        json.dump(aggregate, handle, indent=2)

    write_step_summary(
        results,
        trajectory_dir,
        snapshot_index,
        os.environ.get("GITHUB_STEP_SUMMARY"),
    )

    print(f"{'gate':<20} {'elapsed':>9} {'verdict':>8}")
    print("-" * 39)
    for result in results:
        verdict = "PASS" if result["passed"] else "FAIL"
        print(f"{result['gate']:<20} {result['elapsed_s']:>8.1f}s {verdict:>8}")
    print(f"\nsummary written to {args.output}")
    if not args.no_trajectory:
        snapshot_path = write_trajectory_snapshot(
            aggregate, trajectory_dir, repo_root, snapshot_index
        )
        print(f"trajectory snapshot written to {snapshot_path}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
