"""The benchmark's declared surface: workloads, rings and metric names.

``BENCHMARK.json`` repeats the names, units, directions and bounds written
here (the smoke test asserts the two agree); later issues cite these names, so
they are fixed.  Stdlib only: the repeat runner and the smoke test import this
module without touching ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds measured per run (``BENCHMARK.json`` ``run_seconds``).  At ~123 ms a
#: circuit, ``eval_n4096`` needs 13 s for the 100 samples that leave ten
#: beyond its p90; the driver's whole-suite budget leaves no room for more.
RUN_SECONDS = 13
#: Payloads encrypted per workload during set-up and reused round-robin.
PAYLOADS = 16
#: The tenant every workload serves.
TENANT = "bench"

#: ``CkksParameters.create`` arguments per ring.  n4096 is the HE-Mult ring of
#: ``bench_keyswitch_fused.py`` at ``scale_bits=28`` (at 26 the canonical
#: circuit decodes with 4e-2 error, at 28 with 2e-4); n64 is the serving ring
#: of ``repro.testing.chaos.build_tenants``.
RINGS = {
    "n4096": dict(degree=4096, limbs=8, log_q=28, dnum=3, scale_bits=28),
    "n64": dict(degree=64, limbs=4, log_q=28, dnum=2, scale_bits=26),
}


@dataclass(frozen=True)
class Workload:
    """One fixed request shape on one execution tier."""

    name: str
    ring: str
    circuit: str  # matvec_square | square_rescale | linear_square
    tier: str  # eval (bare evaluator) | thread | process
    clients: int  # closed-loop client threads; 0 = open loop at ``rate_rps``
    why: str
    rate_rps: float = 0.0
    max_batch_size: int = 1
    max_batch_wait_s: float = 0.0


WORKLOADS = (
    Workload(
        "eval_n4096", "n4096", "matvec_square", "eval", 1,
        "bare evaluator, closed loop x1: kernels (NTT, BConv, key switch) do "
        "all the work and serving none, so a kernel change shows only here",
    ),
    Workload(
        "serve_thread_n64", "n64", "linear_square", "thread", 2,
        "default thread-mode server on a 2 ms ring, closed loop x2: queue, "
        "ticket, validate and GIL hand-offs are the largest share they get",
    ),
    Workload(
        "serve_process_n64", "n64", "linear_square", "process", 1,
        "serve_thread_n64's request stream through the process shards, one "
        "caller at a time: dispatch and framing are everything, nothing contends",
    ),
    Workload(
        "serve_process_n4096", "n4096", "square_rescale", "process", 2,
        "production ring through the isolation tier: one HE-Mult per ~1 MB "
        "of pickled frames, so shard framing is as large a share as it gets",
    ),
    Workload(
        "serve_batch_n64", "n64", "linear_square", "thread", 0,
        "open loop, seeded Poisson arrivals at 600 req/s (~1.6x the solo "
        "path): only dynamic batching keeps the backlog flat",
        rate_rps=600.0, max_batch_size=8, max_batch_wait_s=0.002,
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

#: Open-loop latency limit (from due time) behind ``slo_miss_share``.
SLO_MS = 25.0

#: (name, unit, better, bound).  ``failed_share`` is not here: the driver's
#: contract wants metrics that are never 0, so failures travel in the result
#: line's ``attempted`` / ``failed`` / ``correct`` and as a per-layer ratio.
#: One bound per metric covers all five workloads; each is at least three
#: times the widest run-to-run spread (IQR / median over ten seeds) measured
#: on any workload at this commit -- see the README's bound rule.
END_TO_END = (
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

_MS = ("ms", "lower")
_COUNT = ("count", "lower")
_SHARE = ("ratio", "lower")


def _layer(prefix: str, unit_better: tuple, *names: str) -> tuple:
    return tuple((f"{prefix}.{name}", *unit_better) for name in names)


#: (name, unit, better); a layer is a module name.  A value of 0 on a workload
#: means the layer is not on that workload's path (no server, no shards, no
#: rotation key, no linear transform).
PER_LAYER = (
    *_layer("ckks.evaluator", _MS, "multiply_ms", "square_ms", "rotate_ms",
            "rescale_ms", "multiply_plain_ms", "add_ms"),
    *_layer("ckks.evaluator", _COUNT, "ops.he_mult", "ops.rotate",
            "ops.rescale", "ops.he_add"),
    *_layer("ckks.linear_transform", _MS, "matvec_ms", "transform_build_ms"),
    *_layer("ckks.keyswitch", _MS, "switch_key_ms", "decompose_and_extend_ms",
            "switch_extended_eval_ms", "mod_down_stacked_ms", "self_ms"),
    *_layer("poly.ntt_engine", _MS, "forward_ms", "inverse_ms",
            "forward_ext_ms", "inverse_ext_ms"),
    *_layer("poly.ntt_engine", _COUNT, "forward_calls", "inverse_calls",
            "forward_limbs", "inverse_limbs"),
    *_layer("poly.basis_conversion", _MS, "stacked_convert_ms",
            "convert_residues_ms"),
    *_layer("poly.rns_poly", _MS, "multiply_ms", "add_ms", "automorphism_ms"),
    *_layer("ckks.encoding", _MS, "encode_ms", "decode_ms"),
    *_layer("ckks.encryptor", _MS, "encrypt_ms", "decrypt_ms"),
    *_layer("ckks.batch", _MS, "stack_ms", "unstack_ms"),
    *_layer("serving.runtime", _MS, "queue_wait_p50_ms", "service_p50_ms",
            "submit_ms", "overhead_ms", "latency_p99_ms"),
    ("serving.runtime.attempts_mean", "count", "lower"),
    ("serving.runtime.slo_miss_share", *_SHARE),
    ("serving.runtime.failed_share", *_SHARE),
    ("serving.queue.high_water", *_COUNT),
    ("serving.queue.backlog_end", *_COUNT),
    ("serving.batch.mean_size", "count", "higher"),
    ("serving.batch.batches_served", "count", "higher"),
    ("serving.batch.batched_share", "ratio", "higher"),
    *_layer("serving.shard", _MS, "frame_roundtrip_ms", "pickle_dumps_ms",
            "pickle_loads_ms"),
    *_layer("serving.shard", ("bytes", "lower"), "frame_request_bytes",
            "frame_reply_bytes"),
    ("serving.supervisor.isolation_overhead_ms", *_MS),
    ("serving.supervisor.shard_boot_s", "s", "lower"),
    ("serving.supervisor.shard_rss_mb", "MiB", "lower"),
    *_layer("serving.supervisor", _COUNT, "spawns", "crashes", "redispatches"),
    ("serving.supervisor.contended_p50_ms", *_MS),
    ("serving.supervisor.contended_rps", "1/s", "higher"),
    ("sim.he_mult_us", "us", "lower"),
    ("sim.rotate_us", "us", "lower"),
    ("sim.compile_ms", *_MS),
    *_layer("sim_share", _SHARE, "ntt_matmul", "intt_matmul", "bconv_matmul",
            "vec_mod_ops", "other"),
    *_layer("attributed_share", _SHARE, "ntt_matmul", "intt_matmul",
            "bconv_matmul", "vec_mod_ops", "automorphism", "unattributed"),
    ("host.gemm_gflops", "GFLOP/s", "higher"),
    ("host.memcpy_gbps", "GB/s", "higher"),
    ("host.generator_lag_p99_ms", *_MS),
    ("host.segment_spread", *_SHARE),
    ("host.trace_overhead_share", *_SHARE),
)
