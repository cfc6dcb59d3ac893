"""Multi-tenant encrypted-inference serving runtime.

The service-grade resilience layer over the library's in-process guardrails:
per-tenant sessions with warmed NTT plans (:mod:`repro.serving.session`), a
bounded admission-controlled queue (:mod:`repro.serving.queue`),
per-request deadlines with cooperative cancellation
(:mod:`repro.cancellation`), a taxonomy-driven retry policy
(:mod:`repro.serving.retry`), the worker-pool server with health probes and
graceful drain (:mod:`repro.serving.runtime`), and supervised shard
processes (:mod:`repro.serving.supervisor`).  Backend quarantines and their
recovery belong to the NTT engine (:mod:`repro.poly.ntt_engine`), in
whichever process runs the transforms.

Quick start::

    registry = TenantRegistry()
    registry.register("alice", params, relin_key=keygen.relinearization_key())
    with InferenceServer(registry, workers=4, queue_capacity=64) as server:
        ticket = server.submit(InferenceRequest("alice", circuit, payload=ct))
        encrypted_result = ticket.result(timeout=30.0)

The resilience contract, drilled by :mod:`repro.testing.chaos` and gated in
CI: under concurrent load with injected faults, every admitted well-formed
request either completes correctly (after retry/reroute) or fails with a
typed :class:`~repro.errors.ReproError` -- never silently wrong, never hung.
"""

from repro.cancellation import CancelScope, checkpoint
from repro.errors import PoisonRequest, WorkerCrashed, WorkerUnresponsive
from repro.serving.queue import BoundedRequestQueue
from repro.serving.retry import RetryPolicy, is_retryable
from repro.serving.runtime import InferenceRequest, InferenceServer, RequestTicket
from repro.serving.session import TenantRegistry, TenantSession
from repro.serving.shard import TenantSpec
from repro.serving.supervisor import ShardHandle, ShardSupervisor

__all__ = [
    "BoundedRequestQueue",
    "CancelScope",
    "InferenceRequest",
    "InferenceServer",
    "PoisonRequest",
    "RequestTicket",
    "RetryPolicy",
    "ShardHandle",
    "ShardSupervisor",
    "TenantRegistry",
    "TenantSession",
    "TenantSpec",
    "WorkerCrashed",
    "WorkerUnresponsive",
    "checkpoint",
    "is_retryable",
]
