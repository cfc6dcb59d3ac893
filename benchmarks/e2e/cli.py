"""One command: build a workload from the seed, measure it, check it, print it.

``--trace 0`` is the end-to-end run: set-up (timed), warm-up, one measured
window with tracing off, every result compared bit-for-bit with the inline
oracle and every oracle decrypted against the plaintext model.  ``--trace 1``
is the separate traced pass that produces the per-layer numbers (see
``layers.py`` and ``spans.py``).  Either way the last line of standard output
is the result object the driver reads; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import spec


def _check_outputs(kit, report: dict) -> None:
    """Correctness that needs no window: every oracle against the model."""
    from benchmarks.e2e.workloads import DECODE_TOLERANCE

    errors = [kit.decode_error(i, oracle) for i, oracle in enumerate(kit.oracles)]
    report["decode_error_max"] = max(errors)
    if max(errors) > DECODE_TOLERANCE:
        report["problems"].append(
            f"oracle decode error {max(errors):.3g} > {DECODE_TOLERANCE}"
        )


def _check_supervisor(kit, report: dict) -> None:
    """Fault-free by contract: any restart or re-dispatch is a failure."""
    from benchmarks.e2e.workloads import WORKERS

    if kit.shards is None:
        return
    counters = kit.shards["counters"]
    report["supervisor"] = {
        key: counters[key] for key in ("spawns", "crashes", "redispatches")
    }
    if tuple(report["supervisor"].values()) != (WORKERS, 0, 0):
        report["problems"].append(f"supervisor counters {report['supervisor']}")


def run(workload: spec.Workload, seed: int, seconds: float, trace: int = 0,
        spans_path=None) -> dict:
    """One run of one workload: the end-to-end pass, or the traced one."""
    from benchmarks.e2e import host

    host.wake()
    probe_start = host.probe()
    host.reset_peak_rss()
    # Set-up starts before ``repro`` is imported: import cost is part of it.
    setup_started = time.perf_counter()
    from benchmarks.e2e import loadgen, workloads

    kit = workloads.build(workload, seed)
    # (The bare evaluator has no server: its warm-up is build()'s oracle pass.)
    if workload.tier != "eval":
        workloads.start_server(kit)
    setup_s = time.perf_counter() - setup_started
    report = {"workload": workload.name, "seed": seed, "problems": []}
    try:
        if trace:
            from benchmarks.e2e import traced

            summary, metrics, report["spans"] = traced.measure(
                kit, seconds, spans_path, report["problems"]
            )
            metrics["host.gemm_gflops"] = probe_start["gemm_gflops"]
            metrics["host.memcpy_gbps"] = probe_start["memcpy_gbps"]
            samples = traced.layers.CALLS  # calls behind each timing
        else:
            summary = loadgen.summarise(kit, loadgen.run_window(kit, seconds))
            metrics = {
                name: summary[name]
                for name in ("latency_p50_ms", "latency_p90_ms", "throughput_rps")
            }
            metrics["setup_s"] = setup_s
            samples = summary["samples"]
    finally:
        workloads.stop_server(kit)
    if not trace:
        # Total footprint: the parent's high-water mark plus every shard's
        # resident set as its heartbeat last reported it.
        shards = kit.shards["shards"].values() if kit.shards else ()
        metrics["peak_rss_mb"] = host.peak_rss_mb() + sum(s["rss_mb"] for s in shards)
    _check_supervisor(kit, report)
    _check_outputs(kit, report)
    if summary["failed"]:
        report["problems"].append(f"{summary['failed']} request(s) failed")
    probe_end = host.probe()
    report.update(
        stream_hash=kit.stream_hash,
        phases=kit.phases,
        summary=summary,
        host={"start": probe_start, "end": probe_end},
        unstable=host.drift(probe_start, probe_end) > host.DRIFT_LIMIT,
        environment=host.environment(kit.params, seed),
        metrics=metrics,
        counts={"attempted": summary["attempted"], "failed": summary["failed"]},
        samples=samples,
    )
    return report


def _result_line(report: dict, declared: tuple) -> str:
    """The driver's result object: exactly the declared metrics, with units."""
    units = {name: unit for name, unit, *_ in declared}
    return json.dumps(
        {
            "correct": not report["problems"],
            "attempted": report["counts"]["attempted"],
            "failed": report["counts"]["failed"],
            "metrics": {
                name: {"value": report["metrics"][name], "unit": units[name]}
                for name in units
            },
        }
    )


def _print_report(report: dict, declared: tuple) -> None:
    print(f"== {report['workload']} seed={report['seed']} ==")
    for name, unit, *_ in declared:
        print(
            f"{name:48s} {report['metrics'][name]:14.4f} {unit:8s} "
            f"n={report['samples']}"
        )
    summary = report["summary"]
    flags = [
        flag
        for flag in ("unstable", "saturated")
        if report.get(flag) or summary.get(flag)
    ]
    print(
        f"attempted={report['counts']['attempted']} "
        f"failed={report['counts']['failed']} "
        f"segment_spread={summary['segment_spread']:.3f} "
        f"gemm_gflops={report['host']['start']['gemm_gflops']:.1f} "
        f"memcpy_gbps={report['host']['start']['memcpy_gbps']:.1f} "
        f"flags={','.join(flags) or 'none'}"
    )
    for problem in report["problems"]:
        print(f"PROBLEM: {problem}")


def _run_all(args) -> int:
    """Each workload in its own interpreter, so none inherits warm caches."""
    status = 0
    for workload in spec.WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).with_name("__main__.py")),
            "--workload", workload.name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.json:
            target = Path(args.json)
            command += ["--json", str(target.with_name(f"{workload.name}.{target.name}"))]
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the full report here")
    parser.add_argument("--spans", help="traced run: write the spans here (JSON lines)")
    args = parser.parse_args(argv)
    if args.all:
        return _run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    if importlib.util.find_spec("repro") is None:
        print("benchmarks.e2e: the repro package is not importable "
              "(expected src/ beside benchmarks/)", file=sys.stderr)
        return 2
    from benchmarks.e2e import host

    # SIGTERM unwinds like an exception, so the server and its shards are
    # stopped on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        report = run(workload, args.seed, args.seconds, args.trace, args.spans)
    finally:
        host.stop_children()
    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1, default=str))
    _print_report(report, declared)
    print(_result_line(report, declared), flush=True)
    return 1 if report["problems"] else 0
