"""Per-layer timings, measured from outside by calling public functions.

Each timing is the median of ``CALLS`` calls (after one warm call) on operands
of the shape the workload's circuit uses: ``(L, N)`` for the base ring,
``(dnum, L + alpha, N)`` / ``(2, L + alpha, N)`` inside a key switch, B = 8 for
the batch layer, the workload's real request and reply for the shard frames.
Counts are the program's own counters and repeat exactly.  The attribution at
the end is *computed* (exact calls per circuit x per-call median), not traced.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time

import numpy as np

from benchmarks.e2e.workloads import Kit
from repro.ckks.batch import stack_ciphertexts, unstack_ciphertext
from repro.ckks.keys import digit_partition
from repro.ckks.keyswitch import (
    decompose_and_extend,
    mod_down_stacked,
    switch_extended_eval,
    switch_extended_eval_lazy,
    switch_key,
)
from repro.ckks.linear_transform import DiagonalLinearTransform
from repro.poly.basis_conversion import conversion_for, stacked_conversion_for
from repro.poly.rns_poly import stacked_ntt_forward, stacked_ntt_inverse
from repro.serving.shard import recv_frame, send_frame

CALLS = 15
BATCH = 8


def median_ms(call, calls: int = CALLS) -> float:
    """Median wall time of ``call()`` in ms, after one untimed warm call."""
    call()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def evaluator_layer(kit: Kit) -> dict:
    """``ckks.evaluator`` operators and ``ckks.linear_transform``."""
    evaluator, encoder = kit.session.evaluator, kit.session.encoder
    ciphertext = kit.payloads[0]
    squared = evaluator.square(ciphertext)
    plaintext = encoder.encode(kit.features[0], level=ciphertext.level)
    metrics = {
        "ckks.evaluator.multiply_ms": median_ms(
            lambda: evaluator.multiply(ciphertext, ciphertext)
        ),
        "ckks.evaluator.square_ms": median_ms(lambda: evaluator.square(ciphertext)),
        "ckks.evaluator.rescale_ms": median_ms(lambda: evaluator.rescale(squared)),
        "ckks.evaluator.multiply_plain_ms": median_ms(
            lambda: evaluator.multiply_plain(ciphertext, plaintext)
        ),
        "ckks.evaluator.add_ms": median_ms(
            lambda: evaluator.add(ciphertext, ciphertext)
        ),
        "ckks.evaluator.rotate_ms": 0.0,
        "ckks.linear_transform.matvec_ms": 0.0,
        "ckks.linear_transform.transform_build_ms": 0.0,
    }
    steps = kit.circuit.galois_steps()
    if steps:
        metrics["ckks.evaluator.rotate_ms"] = median_ms(
            lambda: evaluator.rotate(ciphertext, steps[0])
        )
        transform = kit.circuit.transform(encoder)
        matvec_ms = median_ms(lambda: evaluator.matvec(ciphertext, transform))
        metrics["ckks.linear_transform.matvec_ms"] = matvec_ms
        # Build cost = first apply of a fresh, uncached transform minus a
        # steady apply (the plaintext diagonals are encoded lazily).  One
        # call, not fifteen: it is seconds long and paid once per process.
        encoder.clear_encode_cache()
        fresh = DiagonalLinearTransform.from_diagonals(
            encoder, kit.circuit.diagonals, n1=transform.n1
        )
        start = time.perf_counter()
        evaluator.matvec(ciphertext, fresh)
        first_ms = (time.perf_counter() - start) * 1e3
        metrics["ckks.linear_transform.transform_build_ms"] = first_ms - matvec_ms
    for operator in ("he_mult", "rotate", "rescale", "he_add"):
        metrics[f"ckks.evaluator.ops.{operator}"] = kit.counts["ops"].get(operator, 0)
    return metrics


def kernel_layers(kit: Kit) -> dict:
    """``ckks.keyswitch``, ``poly.ntt_engine``, ``poly.basis_conversion``,
    ``poly.rns_poly`` at the shapes one key switch at the top level uses."""
    params, evaluator = kit.params, kit.session.evaluator
    ciphertext = kit.payloads[0]
    level = ciphertext.level
    basis = params.basis_at_level(level)
    extended = params.extended_basis(level)
    key = evaluator.relin_key
    poly = evaluator.multiply(ciphertext, ciphertext, relinearize=False).c2
    digits = decompose_and_extend(poly, params, level)
    digits_eval = stacked_ntt_forward(extended, digits)
    accumulators = np.stack(
        switch_extended_eval_lazy(digits_eval, key, params, level), axis=-3
    )
    stacked = stacked_ntt_inverse(extended, accumulators)
    c0_eval = ciphertext.c0.to_eval()
    bconv = stacked_conversion_for(
        basis, extended, tuple(digit_partition(level, params.dnum))
    )
    moddown_bconv = conversion_for(params.special_basis, basis)
    timings = {
        "ckks.keyswitch.switch_key_ms": lambda: switch_key(poly, key, params, level),
        "ckks.keyswitch.decompose_and_extend_ms": lambda: decompose_and_extend(
            poly, params, level
        ),
        "ckks.keyswitch.switch_extended_eval_ms": lambda: switch_extended_eval(
            digits_eval, key, params, level
        ),
        "ckks.keyswitch.mod_down_stacked_ms": lambda: mod_down_stacked(
            stacked, params, level
        ),
        "poly.ntt_engine.forward_ms": lambda: stacked_ntt_forward(
            basis, ciphertext.c0.residues
        ),
        "poly.ntt_engine.inverse_ms": lambda: stacked_ntt_inverse(
            basis, c0_eval.residues
        ),
        "poly.ntt_engine.forward_ext_ms": lambda: stacked_ntt_forward(extended, digits),
        "poly.ntt_engine.inverse_ext_ms": lambda: stacked_ntt_inverse(
            extended, accumulators
        ),
        "poly.basis_conversion.stacked_convert_ms": lambda: bconv.convert_stacked(
            poly.residues
        ),
        "poly.basis_conversion.convert_residues_ms": lambda: (
            moddown_bconv.convert_residues(stacked[..., level:, :])
        ),
        "poly.rns_poly.multiply_ms": lambda: c0_eval.multiply(c0_eval),
        "poly.rns_poly.add_ms": lambda: ciphertext.c0.add(ciphertext.c1),
        "poly.rns_poly.automorphism_ms": lambda: ciphertext.c0.automorphism(5),
    }
    metrics = {name: median_ms(call) for name, call in timings.items()}
    # What switch_key does itself once its timed children are taken out: the
    # digit x key inner product (plus the Python between the stages).
    metrics["ckks.keyswitch.self_ms"] = metrics["ckks.keyswitch.switch_key_ms"] - sum(
        metrics[name]
        for name in (
            "ckks.keyswitch.decompose_and_extend_ms",
            "poly.ntt_engine.forward_ext_ms",
            "poly.ntt_engine.inverse_ext_ms",
            "ckks.keyswitch.mod_down_stacked_ms",
        )
    )
    transforms = kit.counts["transforms"]
    for counter in ("forward", "inverse"):
        metrics[f"poly.ntt_engine.{counter}_calls"] = transforms[counter]
        metrics[f"poly.ntt_engine.{counter}_limbs"] = transforms[f"{counter}_limbs"]
    return metrics


def batch_layer(kit: Kit) -> dict:
    """``ckks.batch`` at B = 8."""
    members = kit.payloads[:BATCH]
    stacked = stack_ciphertexts(members)
    return {
        "ckks.batch.stack_ms": median_ms(lambda: stack_ciphertexts(members)),
        "ckks.batch.unstack_ms": median_ms(lambda: unstack_ciphertext(stacked)),
    }


def shard_layer(kit: Kit) -> dict:
    """``serving.shard`` framing of the workload's real request and reply.

    The round trip is ``send_frame`` + ``recv_frame`` of the request and of
    the reply over a local duplex ``Pipe``, with an echo thread standing in
    for the worker -- a frame larger than the pipe buffer needs a concurrent
    reader.  Both ends pickle and unpickle, exactly as parent and shard do.
    """
    request = {
        "request_id": "req-000000",
        "tenant_id": kit.request(0).tenant_id,
        "circuit": kit.circuit,
        "payload": kit.payloads[0],
        "timeout_s": 60.0,
    }
    reply = {
        "ok": True,
        "result": kit.oracles[0],
        "meta": {"shard": "shard-0", "pid": 0, "noise_headroom_bits": 0.0},
        "events": [],
    }
    near, far = multiprocessing.Pipe(duplex=True)

    def echo() -> None:
        while recv_frame(far)[0] == "request":
            send_frame(far, "result", reply)

    worker = threading.Thread(target=echo, name="e2e-frame-echo")
    worker.start()

    def round_trip() -> None:
        send_frame(near, "request", request)
        recv_frame(near)

    try:
        roundtrip_ms = median_ms(round_trip)
    finally:
        send_frame(near, "shutdown", None)
        worker.join()
        near.close()
        far.close()
    request_body = pickle.dumps(("request", request), protocol=pickle.HIGHEST_PROTOCOL)
    reply_body = pickle.dumps(("result", reply), protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "serving.shard.frame_roundtrip_ms": roundtrip_ms,
        "serving.shard.frame_request_bytes": len(request_body),
        "serving.shard.frame_reply_bytes": len(reply_body),
        "serving.shard.pickle_dumps_ms": median_ms(
            lambda: pickle.dumps(
                ("request", request), protocol=pickle.HIGHEST_PROTOCOL
            )
        ),
        "serving.shard.pickle_loads_ms": median_ms(lambda: pickle.loads(request_body)),
    }


def simulated() -> dict:
    """``core.compiler`` + ``tpu.device``: simulated TPUv6e time at Set D.

    Deterministic; printed beside the measured shares so that model and
    measurement can disagree in public.  Only ``compile_ms`` is host time.
    """
    from repro.core.compiler import CompilerOptions, CrossCompiler
    from repro.core.config import PARAMETER_SETS
    from repro.core.kernel_ir import Category
    from repro.tpu import TensorCoreDevice

    compiler = CrossCompiler(PARAMETER_SETS["D"], CompilerOptions.cross_default())
    device = TensorCoreDevice.for_generation("TPUv6e")
    he_mult = device.run(compiler.operator("he_mult"))
    rotate = device.run(compiler.operator("rotate"))
    shares = he_mult.category_fractions()
    named = {
        "ntt_matmul": Category.NTT_MATMUL,
        "intt_matmul": Category.INTT_MATMUL,
        "bconv_matmul": Category.BCONV_MATMUL,
        "vec_mod_ops": Category.VEC_MOD_OPS,
    }
    metrics = {
        "sim.he_mult_us": he_mult.total_latency * 1e6,
        "sim.rotate_us": rotate.total_latency * 1e6,
        "sim.compile_ms": median_ms(lambda: compiler.operator("he_mult")),
    }
    for name, category in named.items():
        metrics[f"sim_share.{name}"] = shares.get(category, 0.0)
    metrics["sim_share.other"] = 1.0 - sum(
        shares.get(category, 0.0) for category in named.values()
    )
    return metrics


def attribution(kit: Kit, metrics: dict, circuit_p50_ms: float) -> dict:
    """Computed shares of one circuit's p50, keyed by ``kernel_ir.Category``.

    Every key switch (one per HE-Mult and per rotation, exact from the
    evaluator's counters) pays one extended forward pass, one extended
    inverse pass, the digit BConv, the ModDown BConv and the inner product +
    ModDown arithmetic; the transform limb rows the counters saw beyond those
    are base-ring passes, priced per ``(L, N)`` call.
    """
    params = kit.params
    level = kit.payloads[0].level
    extended_limbs = level + params.special_limbs
    digit_count = len(digit_partition(level, params.dnum))
    ops, transforms = kit.counts["ops"], kit.counts["transforms"]
    switches = ops.get("he_mult", 0) + ops.get("rotate", 0)

    def base_passes(direction: str, stacked_operands: int) -> float:
        rows = transforms[f"{direction}_limbs"] - switches * stacked_operands * extended_limbs
        return max(rows, 0) / level

    spent = {
        "ntt_matmul": switches * metrics["poly.ntt_engine.forward_ext_ms"]
        + base_passes("forward", digit_count) * metrics["poly.ntt_engine.forward_ms"],
        "intt_matmul": switches * metrics["poly.ntt_engine.inverse_ext_ms"]
        + base_passes("inverse", 2) * metrics["poly.ntt_engine.inverse_ms"],
        "bconv_matmul": switches
        * (
            metrics["poly.basis_conversion.stacked_convert_ms"]
            + metrics["poly.basis_conversion.convert_residues_ms"]
        ),
        "vec_mod_ops": switches
        * (
            metrics["ckks.keyswitch.self_ms"]
            + metrics["ckks.keyswitch.mod_down_stacked_ms"]
            - metrics["poly.basis_conversion.convert_residues_ms"]
        )
        + ops.get("rescale", 0) * metrics["ckks.evaluator.rescale_ms"],
        "automorphism": ops.get("rotate", 0) * metrics["poly.rns_poly.automorphism_ms"],
    }
    shares = {
        f"attributed_share.{name}": value / circuit_p50_ms
        for name, value in spent.items()
    }
    shares["attributed_share.unattributed"] = 1.0 - sum(shares.values())
    return shares
