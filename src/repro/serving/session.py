"""Per-tenant serving contexts: parameter sets, key material, warmed plans.

A *session* is everything the server needs to evaluate circuits for one
tenant: the CKKS parameter set, an encoder, and an evaluator holding the
tenant's **evaluation** keys (relinearisation / Galois).  Secret keys never
enter a session -- encryption and decryption stay client-side, exactly as in
the paper's Fig. 1 threat model; the registry is the server-side key
registry the ROADMAP's serving item calls for.

Sessions are built once at registration and shared by every worker thread:
the evaluator is stateless apart from counters, the encoder's plaintext
cache is a bounded thread-safe LRU, every switching key is one read-only
evaluation-domain tensor that all levels view, and every level and
extended basis transforms on views of one NTT table set for the tenant's
chain ``Q_L·P``.  :meth:`TenantSession.warm` builds that set for the rung
dispatch selects and runs its sentinel, so the first request builds no
tables.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro import diagnostics
from repro.ckks.encoding import CkksEncoder
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import GaloisKeySet, RelinearizationKey
from repro.ckks.params import CkksParameters
from repro.errors import ParameterError, TenantNotFound

__all__ = ["TenantSession", "TenantRegistry"]


@dataclass
class TenantSession:
    """One tenant's server-side evaluation context (no secret material)."""

    tenant_id: str
    params: CkksParameters
    encoder: CkksEncoder
    evaluator: CkksEvaluator
    created_at: float = field(default_factory=time.time)
    warmed: bool = False

    def warm(self) -> None:
        """Build the tenant's NTT tables for the resolved rung, sentinel included.

        Every basis of the chain runs on views of its one table set, so no
        request pays table construction or a sentinel probe.  Idempotent.
        """
        backend = self.params.plan_stack().warm()
        self.warmed = True
        diagnostics.record_event(
            "session_warmed",
            tenant=self.tenant_id,
            degree=self.params.degree,
            limbs=self.params.limbs,
            backend=backend,
        )

    def backend(self) -> str:
        """The NTT rung the tenant's chain dispatches to now, in this process."""
        return self.params.plan_stack().resolve_backend()

    def noise_headroom_bits(self, ciphertext) -> float | None:
        """Remaining noise budget of a result ciphertext, for diagnostics."""
        if getattr(ciphertext, "noise_bits", None) is None:
            return None
        return self.evaluator.noise.budget_bits(
            ciphertext.level, ciphertext.noise_bits
        )


class TenantRegistry:
    """Thread-safe map of tenant id -> :class:`TenantSession`.

    Registration installs the tenant's evaluation keys and (by default)
    warms the NTT plans; lookup failures raise a typed
    :class:`~repro.errors.TenantNotFound` naming the remedy.
    """

    def __init__(self) -> None:
        self._sessions: dict[str, TenantSession] = {}
        #: tenant_id -> TenantSpec for tenants registered via register_spec;
        #: the shippable form a shard process rebuilds its registry from.
        self._specs: dict[str, object] = {}
        self._lock = threading.Lock()

    def register_spec(self, spec, *, warm: bool = True) -> TenantSession:
        """Register a tenant from a picklable :class:`TenantSpec`.

        Builds the parameter set and derives the evaluation keys from the
        spec's seed material (the canonical rng call order -- see
        :class:`repro.serving.shard.TenantSpec`), registers the session, and
        remembers the spec so :meth:`specs` can ship the registry's exact
        contents to shard worker processes.
        """
        params = spec.build_params()
        relin, galois = spec.build_keys(params)
        session = self.register(
            spec.tenant_id,
            params,
            relin_key=relin,
            galois_keys=galois,
            warm=warm,
        )
        with self._lock:
            self._specs[spec.tenant_id] = spec
        return session

    def specs(self) -> list:
        """The :class:`TenantSpec` for every spec-registered tenant.

        Tenants registered directly through :meth:`register` (live key
        objects, no seed material) have no spec and cannot be shipped to
        shard processes; ``workers_mode="process"`` requires every tenant to
        come through :meth:`register_spec`.
        """
        with self._lock:
            return [self._specs[t] for t in sorted(self._specs)]

    def register(
        self,
        tenant_id: str,
        params: CkksParameters,
        *,
        relin_key: RelinearizationKey | None = None,
        galois_keys: GaloisKeySet | None = None,
        warm: bool = True,
    ) -> TenantSession:
        """Create (or replace) the session for ``tenant_id``."""
        if not tenant_id:
            raise ParameterError("tenant_id must be a non-empty string")
        session = TenantSession(
            tenant_id=tenant_id,
            params=params,
            encoder=CkksEncoder(params),
            evaluator=CkksEvaluator(
                params, relin_key=relin_key, galois_keys=galois_keys
            ),
        )
        if warm:
            session.warm()
        with self._lock:
            self._sessions[tenant_id] = session
        diagnostics.record_event(
            "tenant_registered", tenant=tenant_id, warm=warm
        )
        return session

    def session(self, tenant_id: str) -> TenantSession:
        """The session for ``tenant_id``; typed error when absent."""
        with self._lock:
            session = self._sessions.get(tenant_id)
        if session is None:
            raise TenantNotFound(
                f"no session registered for tenant {tenant_id!r}; register "
                "its parameter set and evaluation keys with "
                "TenantRegistry.register(tenant_id, params, relin_key=..., "
                "galois_keys=...) before submitting requests"
            )
        return session

    def remove(self, tenant_id: str) -> bool:
        """Drop a tenant's session (and spec); returns whether one existed."""
        with self._lock:
            self._specs.pop(tenant_id, None)
            return self._sessions.pop(tenant_id, None) is not None

    def tenants(self) -> list[str]:
        """Registered tenant ids (sorted snapshot)."""
        with self._lock:
            return sorted(self._sessions)

    def sessions(self) -> Iterable[TenantSession]:
        """Snapshot of the registered sessions."""
        with self._lock:
            return list(self._sessions.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._sessions
