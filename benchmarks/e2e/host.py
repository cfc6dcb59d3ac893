"""Host calibration probe, memory readings and the environment block.

The probe is a fixed float64 512^3 GEMM and a 64 MiB memcpy, timed when a run
starts and again when it ends: absolute latencies only compare across machines
(or across a noisy afternoon) next to these two numbers, and a drift above
10 % between the two readings marks the run ``unstable``.  The benchmark
records the environment it found; it sets and clears nothing.
"""

from __future__ import annotations

import os
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

GEMM_SIZE = 512
MEMCPY_BYTES = 64 << 20
DRIFT_LIMIT = 0.10
#: A sandbox VM that sat idle for ~10 s runs its first second of BLAS work
#: about ten times slow (measured here: 11 vs 115 GFLOP/s on the probe GEMM,
#: for 0.9-1.2 s).  Every run spins past that before the first probe, so
#: neither ``setup_s`` nor the start-of-run reading includes it.
WAKE_SECONDS = 1.5
_BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def wake() -> None:
    """Keep both cores busy for ``WAKE_SECONDS`` (see there for why)."""
    a = np.ones((GEMM_SIZE, GEMM_SIZE))
    until = time.perf_counter() + WAKE_SECONDS
    while time.perf_counter() < until:
        a @ a


def probe() -> dict:
    """Best of five for each probe: the machine's ceiling, not its mood."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_SIZE, GEMM_SIZE))
    b = rng.standard_normal((GEMM_SIZE, GEMM_SIZE))
    source = np.ones(MEMCPY_BYTES, dtype=np.uint8)
    target = np.empty_like(source)
    gemm_s = memcpy_s = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        a @ b
        gemm_s = min(gemm_s, time.perf_counter() - start)
        start = time.perf_counter()
        np.copyto(target, source)
        memcpy_s = min(memcpy_s, time.perf_counter() - start)
    return {
        "gemm_gflops": 2.0 * GEMM_SIZE**3 / gemm_s / 1e9,
        "memcpy_gbps": MEMCPY_BYTES / memcpy_s / 1e9,
    }


def drift(start: dict, end: dict) -> float:
    """Largest relative change between the two probe readings."""
    return max(abs(end[key] - start[key]) / start[key] for key in start)


def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (Linux ``clear_refs`` 5).

    The probe's own buffers (2 x 64 MiB) would otherwise be the peak of every
    small workload.  Where the kernel refuses, the mark simply keeps them.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """High-water resident set of this process, MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children() -> list[int]:
    """Pids of this process's live or unreaped children (Linux ``/proc``)."""
    pids = []
    for listing in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in listing.read_text().split()]
        except OSError:  # the thread ended while we were listing
            pass
    return pids


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    ``InferenceServer.shutdown()`` joins the shards; what outlives them is
    multiprocessing's resource tracker, started by the first spawn.  It exits
    only when this process closes its pipe -- by default at interpreter exit,
    so it ends *after* us, an orphan nobody waits for (under an init that
    does not reap it stays as a zombie).  Close the pipe now and wait for it;
    then wait for whatever else is left, with SIGKILL once ``grace_s`` is up.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes the pipe and waits for the tracker
    elif tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid == 0:
            if time.monotonic() > deadline:
                for child in _children():
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = float("inf")
            time.sleep(0.01)


def _git_commit() -> str | None:
    """HEAD of this checkout, read from ``.git`` (``None`` outside a repo)."""
    git = Path(__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _blas_build() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode / other layout
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def environment(params, seed: int) -> dict:
    """What this run ran on: host, BLAS, resolved kernels, every knob set."""
    from repro.poly import fused_kernels, ntt_engine

    moduli = tuple(params.modulus_basis.moduli)
    extended = tuple(params.extended_basis(params.limbs).moduli)
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_build(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in _BLAS_VARIABLES if k in os.environ},
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "fused_kernels_mode": fused_kernels.active_mode(),
        "ntt_backend": {
            "ring": ntt_engine.plan_stack_for(moduli, params.degree).resolve_backend(),
            "keyswitch_ring": ntt_engine.plan_stack_for(
                extended, params.degree
            ).resolve_backend(),
        },
    }
