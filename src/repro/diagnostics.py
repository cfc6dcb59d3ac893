"""Runtime diagnostics: guardrail event log and the bounded-cache registry.

Two concerns the serving layer needs in one place:

* **Events** -- every guardrail action that changes behaviour without raising
  (a backend quarantined after a failed sentinel, a degradation-ladder
  fallback, a noise-budget warning) is recorded here so operators can see
  *that* the stack healed itself and *why*, instead of the event vanishing
  into a log nobody reads.  :func:`report` returns a structured snapshot.

* **Caches** -- every process-wide memoisation cache registers a
  :class:`BoundedLruCache` here.  ``cache_stats()`` exposes size / capacity /
  hit / miss / eviction counters for all of them and ``clear_caches()`` empties
  them -- the "explicit caches with bounds, no hidden globals" contract from
  the ROADMAP.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator

__all__ = [
    "BoundedLruCache",
    "WeakCacheGroup",
    "record_event",
    "events",
    "report",
    "as_dict",
    "clear_events",
    "register_cache",
    "register_cache_group",
    "register_stats_provider",
    "unregister_stats_provider",
    "provider_stats",
    "cache_stats",
    "clear_caches",
]

_MAX_EVENTS = 1024
_lock = threading.Lock()
_events: list[dict[str, Any]] = []
_sequence = 0


def record_event(kind: str, **details: Any) -> dict[str, Any]:
    """Append a guardrail event (quarantine, fallback, noise warning, ...).

    The log is bounded: once ``_MAX_EVENTS`` entries accumulate the oldest
    half is dropped, so a long-running process cannot leak memory through its
    own diagnostics.
    """
    global _sequence
    with _lock:
        _sequence += 1
        event = {"seq": _sequence, "kind": kind, **details}
        _events.append(event)
        if len(_events) > _MAX_EVENTS:
            del _events[: _MAX_EVENTS // 2]
    return event


def events(kind: str | None = None) -> list[dict[str, Any]]:
    """Snapshot of recorded events, optionally filtered by ``kind``."""
    with _lock:
        snapshot = list(_events)
    if kind is None:
        return snapshot
    return [e for e in snapshot if e["kind"] == kind]


def clear_events() -> None:
    """Drop all recorded events (tests and fresh serving epochs)."""
    with _lock:
        _events.clear()


def report() -> dict[str, Any]:
    """Structured diagnostics snapshot: events, caches, live stats providers."""
    snapshot = events()
    by_kind: dict[str, int] = {}
    for event in snapshot:
        by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
    return {
        "event_count": len(snapshot),
        "events_by_kind": by_kind,
        "events": snapshot,
        "caches": cache_stats(),
        "providers": provider_stats(),
    }


def _json_safe(value: Any) -> Any:
    """Recursively coerce ``value`` into something ``json.dumps`` accepts.

    Numpy scalars become Python numbers, tuples/sets become lists, mapping
    keys become strings, and anything else unrecognised falls back to
    ``str`` -- diagnostics must degrade to text, never raise, when an event
    carries an exotic payload.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and not isinstance(value, (list, tuple, dict)):
        try:
            return _json_safe(value.item())  # numpy scalar
        except Exception:
            return str(value)
    if isinstance(value, dict):
        return {str(key): _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(entry) for entry in value]
    return str(value)


def as_dict() -> dict[str, Any]:
    """:func:`report`, coerced JSON-safe for ``--json`` bench output.

    Same shape as :func:`report` (events by kind, the bounded event log,
    cache counters, live stats providers such as per-shard supervisor
    counters) but guaranteed serialisable: the bench harnesses and CI gates
    embed it verbatim in their JSON artefacts.
    """
    return _json_safe(report())


# --------------------------------------------------------------------- caches
@dataclass(eq=False)
class BoundedLruCache:
    """A dict-like, thread-safe LRU cache with a capacity bound and counters.

    ``get`` moves the entry to the most-recently-used end (true LRU, not FIFO)
    and ``put`` evicts the least-recently-used entry once ``capacity`` is
    reached.  Every process-wide memo (chain-less NTT plans, single-limb
    rings) is an instance registered with :func:`register_cache`, and the
    per-encoder ones sit in a :class:`WeakCacheGroup`.  What a modulus chain
    derives -- its tables, views, BConv and inverse constants -- lives on the
    chain (`repro.poly.ntt_engine.register_chain`) and dies with it.

    Every operation that touches the backing ``OrderedDict`` holds a
    per-cache re-entrant lock: these caches sit under every concurrently
    served request (NTT plans, rings, plaintext encodes), and an
    unlocked ``move_to_end``/``popitem`` pair racing across threads corrupts
    the dict.  :meth:`get_or_create` runs the factory *outside* the lock --
    a slow plan build must not serialise unrelated lookups, and entries are
    immutable, so the losing builder of a rare duplicate race simply adopts
    the winner's entry.
    """

    name: str
    capacity: int
    _data: OrderedDict = field(default_factory=OrderedDict, repr=False)
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False
    )

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value, building and inserting it on a miss.

        The factory runs without the lock held; when two threads race on the
        same missing key the first ``put`` wins and the loser returns the
        winner's (immutable) entry.
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        created = factory()
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
            self._data[key] = created
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
        return created

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __iter__(self) -> Iterator:
        with self._lock:
            return iter(list(self._data))

    def items(self) -> list[tuple[Hashable, Any]]:
        """Snapshot of ``(key, value)`` pairs, LRU first (no counter effects)."""
        with self._lock:
            return list(self._data.items())

    def pop(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class WeakCacheGroup:
    """Aggregated stats over per-instance caches, held by weak reference.

    Per-object caches (key-switch eval digits, encoder plaintext encodings)
    are owned by their objects but should still appear in the process-wide
    :func:`cache_stats` report.  Members join via :meth:`add`; the group never
    extends their lifetime.

    Membership changes and walks hold a group lock: a ``WeakSet`` mutated by
    a garbage-collection callback while another thread iterates it raises,
    so both :meth:`stats` and :meth:`clear` snapshot the membership under the
    lock and then talk to each (itself thread-safe) member outside it.
    """

    def __init__(self, name: str):
        self.name = name
        self._members: "weakref.WeakSet[BoundedLruCache]" = weakref.WeakSet()
        self._lock = threading.Lock()

    def add(self, cache: "BoundedLruCache") -> "BoundedLruCache":
        with self._lock:
            self._members.add(cache)
        return cache

    def _snapshot(self) -> list["BoundedLruCache"]:
        with self._lock:
            return list(self._members)

    def stats(self) -> dict[str, int]:
        totals = {"size": 0, "capacity": 0, "hits": 0, "misses": 0, "evictions": 0}
        count = 0
        for member in self._snapshot():
            count += 1
            for key, value in member.stats().items():
                totals[key] += value
        totals["instances"] = count
        return totals

    def clear(self) -> None:
        for member in self._snapshot():
            member.clear()


_caches: dict[str, Any] = {}
_registry_lock = threading.Lock()


def register_cache(cache: Any, name: str | None = None) -> Any:
    """Register a cache object exposing ``stats()`` and ``clear()``.

    Accepts :class:`BoundedLruCache` instances or any duck-typed equivalent
    (e.g. an encoder exposing aggregate stats for its per-instance caches).
    Returns the cache for fluent use at definition sites.
    """
    with _registry_lock:
        key = name or getattr(cache, "name", None) or f"cache_{len(_caches)}"
        _caches[key] = cache
    return cache


def register_cache_group(name: str) -> WeakCacheGroup:
    """Create (or fetch) a named weak group for per-instance caches."""
    with _registry_lock:
        group = _caches.get(name)
        if not isinstance(group, WeakCacheGroup):
            group = WeakCacheGroup(name)
            _caches[name] = group
        return group


def cache_stats() -> dict[str, dict[str, int]]:
    """Size / capacity / hit / miss / eviction counters for every registered cache."""
    with _registry_lock:
        registered = sorted(_caches.items())
    return {name: cache.stats() for name, cache in registered}


def clear_caches() -> None:
    """Empty every registered cache (bench isolation, fault-drill cleanup)."""
    with _registry_lock:
        registered = list(_caches.values())
    for cache in registered:
        cache.clear()


# ----------------------------------------------------------- stats providers
#: Live runtime components (e.g. a shard supervisor) register a zero-arg
#: callable returning a stats dict; :func:`report` polls them so one snapshot
#: carries events, cache counters AND per-shard supervision state.
_providers: dict[str, Callable[[], dict]] = {}
_provider_sequence = 0


def register_stats_provider(name: str, provider: Callable[[], dict]) -> str:
    """Register a live stats source; returns the (uniquified) registry key."""
    global _provider_sequence
    with _registry_lock:
        key = name
        if key in _providers:
            _provider_sequence += 1
            key = f"{name}-{_provider_sequence}"
        _providers[key] = provider
    return key


def unregister_stats_provider(name: str) -> None:
    """Drop a stats source (component shutdown); missing names are ignored."""
    with _registry_lock:
        _providers.pop(name, None)


def provider_stats() -> dict[str, dict]:
    """Poll every registered stats provider; a failing one reports its error."""
    with _registry_lock:
        registered = sorted(_providers.items())
    stats: dict[str, dict] = {}
    for name, provider in registered:
        try:
            stats[name] = provider()
        except Exception as exc:  # a dead provider must not break reporting
            stats[name] = {"error": f"{type(exc).__name__}: {exc}"}
    return stats
