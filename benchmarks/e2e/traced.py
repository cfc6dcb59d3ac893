"""The traced pass (``--trace 1``): where one request's time goes.

Four steps on one built, warmed workload (``cli.run`` does the set-up): (1) a
short untraced load window, for the serving-side numbers only load produces
(queue wait, batch sizes, backlog); (2) a sequential replay of the 16 payloads, once with a disabled tracer and
once recording -- same code, so the difference is the tracing overhead and the
recorded result must be bit-identical; (3) per-layer micro-timings
(``layers.py``); (4) the computed attribution beside the simulated-TPU shares.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.e2e import layers, loadgen, spec, workloads
from benchmarks.e2e.circuits import MatvecSquareCircuit
from benchmarks.e2e.spans import Tracer
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.keyswitch import (
    decompose_and_extend,
    mod_down_stacked,
    switch_extended_eval_lazy,
)
from repro.poly.rns_poly import (
    COEFF_DOMAIN,
    RnsPolynomial,
    stacked_ntt_forward,
    stacked_ntt_inverse,
)


def staged_matvec_square(kit, tracer: Tracer, payload) -> Ciphertext:
    """``matvec_square`` operator by operator, its key switch stage by stage.

    The relinearising key switch of the square is replayed through the public
    stage functions ``switch_key`` itself composes, so the result stays
    bit-identical to the one-call circuit (the replay asserts it).
    """
    session = kit.session
    evaluator, params = session.evaluator, session.params
    transform = kit.circuit.transform(session.encoder)
    with tracer.span("ckks.evaluator.matvec"):
        product = evaluator.matvec(payload, transform)
    with tracer.span("ckks.evaluator.rescale"):
        product = evaluator.rescale(product)
    with tracer.span("ckks.evaluator.square"):
        with tracer.span("ckks.evaluator.tensor_product"):
            tensor = evaluator.multiply(product, product, relinearize=False)
        level = tensor.level
        basis = params.basis_at_level(level)
        extended = params.extended_basis(level)
        with tracer.span("ckks.keyswitch.switch_key"):
            with tracer.span("ckks.keyswitch.decompose_and_extend"):
                digits = decompose_and_extend(tensor.c2, params, level)
            with tracer.span("poly.rns_poly.stacked_ntt_forward"):
                digits_eval = stacked_ntt_forward(extended, digits)
            # Self time of this span is the digit x key inner product.
            with tracer.span("ckks.keyswitch.switch_extended_eval"):
                accumulators = switch_extended_eval_lazy(
                    digits_eval, evaluator.relin_key, params, level
                )
                with tracer.span("poly.rns_poly.stacked_ntt_inverse"):
                    stacked = stacked_ntt_inverse(
                        extended, np.stack(accumulators, axis=-3)
                    )
                with tracer.span("ckks.keyswitch.mod_down_stacked"):
                    down = mod_down_stacked(stacked, params, level)
        noise = tensor.noise_bits
        squared = Ciphertext(
            c0=tensor.c0.add(RnsPolynomial(basis, down[0], COEFF_DOMAIN)),
            c1=tensor.c1.add(RnsPolynomial(basis, down[1], COEFF_DOMAIN)),
            scale=tensor.scale,
            level=level,
            noise_bits=None if noise is None else evaluator.noise.keyswitch_bits(noise),
        )
    with tracer.span("ckks.evaluator.rescale"):
        return evaluator.rescale(squared)


def replay(kit, tracer: Tracer, problems: list) -> list:
    """One sequential pass over the payloads; seconds of each serving call.

    ``client.encode`` / ``client.encrypt`` time a fresh encoding of the same
    features (fresh randomness, discarded); the stored payload is what is
    served, so the result can be compared with the oracle bit for bit.
    """
    encoder = kit.session.encoder
    staged = kit.server is None and isinstance(kit.circuit, MatvecSquareCircuit)
    serving_s = []
    for index in range(spec.PAYLOADS):
        with tracer.span("request", request_id=index):
            with tracer.span("client.encode"):
                plaintext = encoder.encode(kit.features[index])
            with tracer.span("client.encrypt"):
                kit.encryptor.encrypt(plaintext)
            started = time.perf_counter()
            with tracer.span("serving.submit_to_result"):
                if staged and tracer.enabled:
                    result = staged_matvec_square(kit, tracer, kit.payloads[index])
                elif kit.server is None:
                    result = kit.circuit(kit.session, kit.payloads[index])
                else:
                    with tracer.span("serving.submit"):
                        ticket = kit.server.submit(kit.request(index))
                    result = ticket.result(timeout=60.0)
                    # Children from the ticket's public diagnostics, laid out
                    # from the submit stamp: queue wait, then service.
                    queued = ticket.diagnostics["queue_wait_s"]
                    served = ticket.diagnostics["service_s"]
                    tracer.child("serving.queue_wait", started, started + queued)
                    tracer.child(
                        "serving.service", started + queued, started + queued + served
                    )
            serving_s.append(time.perf_counter() - started)
            with tracer.span("client.decrypt"):
                decrypted = kit.decryptor.decrypt(result)
            with tracer.span("client.decode"):
                decoded = encoder.decode(decrypted).real
        error = float(np.abs(decoded - kit.circuit.expected(kit.features[index])).max())
        if error > workloads.DECODE_TOLERANCE:
            problems.append(f"replay {index}: decode error {error:.3g}")
        if not workloads.bit_identical(result, kit.oracles[index]):
            problems.append(f"replay {index}: not bit-identical to the inline oracle")
    return serving_s


def _serving_layer(kit, summary: dict, window, span_ms: dict, contended) -> dict:
    """``serving.*`` from the load window, ``health()`` and ticket diagnostics."""
    names = [name for name, *_ in spec.PER_LAYER if name.startswith("serving.")]
    metrics = dict.fromkeys(names, 0.0)
    metrics["serving.runtime.failed_share"] = summary["failed"] / summary["attempted"]
    if kit.server is None:
        return metrics
    diagnostics = [s.diagnostics for s in window.samples if s.ok]
    inline_ms = kit.phases["inline_p50_ms"]
    health = kit.server.health()
    batching = health["batching"]
    metrics.update(
        {
            "serving.runtime.queue_wait_p50_ms": float(
                np.median([d["queue_wait_s"] for d in diagnostics]) * 1e3
            ),
            "serving.runtime.service_p50_ms": float(
                np.median([d["service_s"] for d in diagnostics]) * 1e3
            ),
            "serving.runtime.submit_ms": span_ms["serving.submit"]["median_ms"],
            "serving.runtime.overhead_ms": summary["latency_p50_ms"] - inline_ms,
            "serving.runtime.latency_p99_ms": summary["latency_p99_ms"],
            "serving.runtime.attempts_mean": float(
                np.mean([d["attempts"] for d in diagnostics])
            ),
            "serving.runtime.slo_miss_share": summary.get("slo_miss_share", 0.0),
            "serving.queue.high_water": health["queue"]["high_water"],
            "serving.queue.backlog_end": summary.get("backlog_end", 0),
            "serving.batch.batches_served": batching["batches_served"],
        }
    )
    if batching["batches_served"]:
        metrics["serving.batch.mean_size"] = (
            batching["batched_requests"] / batching["batches_served"]
        )
        metrics["serving.batch.batched_share"] = (
            batching["batched_requests"] / health["served"]
        )
    if health["shards"] is not None:
        counters = health["shards"]["counters"]
        metrics.update(
            {
                "serving.supervisor.isolation_overhead_ms": (
                    summary["latency_p50_ms"] - inline_ms
                ),
                "serving.supervisor.shard_boot_s": kit.phases["server_boot_s"],
                "serving.supervisor.shard_rss_mb": max(
                    info["rss_mb"] for info in health["shards"]["shards"].values()
                ),
                "serving.supervisor.spawns": counters["spawns"],
                "serving.supervisor.crashes": counters["crashes"],
                "serving.supervisor.redispatches": counters["redispatches"],
                "serving.supervisor.contended_p50_ms": contended["latency_p50_ms"],
                "serving.supervisor.contended_rps": contended["throughput_rps"],
            }
        )
    return metrics


def measure(kit, seconds: float, spans_path, problems: list) -> tuple:
    """The traced pass on a built, warmed workload.

    Returns ``(window summary, per-layer metrics, span summary)``.  Stops the
    server once the serving-side steps are done, so the micro-timings run on a
    quiet machine.
    """
    workload = kit.workload
    tracer = Tracer()
    window = loadgen.run_window(kit, seconds / 3.0)
    summary = contended = loadgen.summarise(kit, window)
    if workload.tier == "process" and workload.clients < workloads.WORKERS:
        # Every shard busy at once: what the one-caller window leaves out
        # (BLAS threads of two shards and the parent on two cores).
        contended = loadgen.summarise(
            kit, loadgen.closed_loop(kit, seconds / 3.0, clients=workloads.WORKERS)
        )
    untraced_s = replay(kit, Tracer(enabled=False), problems)
    traced_s = replay(kit, tracer, problems)
    span_ms = tracer.summary_ms()
    metrics = _serving_layer(kit, summary, window, span_ms, contended)
    workloads.stop_server(kit)
    for layer in (layers.evaluator_layer, layers.kernel_layers,
                  layers.batch_layer, layers.shard_layer):
        metrics.update(layer(kit))
    metrics.update(layers.simulated())
    # The share's base: the inline circuit on the same payloads, same run.
    metrics.update(layers.attribution(kit, metrics, kit.phases["inline_p50_ms"]))
    for layer, client in (("ckks.encoding", "encode"), ("ckks.encoding", "decode"),
                          ("ckks.encryptor", "encrypt"), ("ckks.encryptor", "decrypt")):
        metrics[f"{layer}.{client}_ms"] = span_ms[f"client.{client}"]["median_ms"]
    untraced_ms = float(np.median(untraced_s)) * 1e3
    metrics.update(
        {
            "host.generator_lag_p99_ms": summary.get("generator_lag_p99_ms", 0.0),
            "host.segment_spread": summary["segment_spread"],
            "host.trace_overhead_share": (
                float(np.median(traced_s)) * 1e3 - untraced_ms
            ) / untraced_ms,
        }
    )
    if spans_path:
        tracer.write(spans_path)
    return summary, metrics, span_ms
