"""In-memory spans recorded from the benchmark's own files.

A span is ``{id, name, start, end, parent, request_id}``: one call into a
layer, made by the replay in ``traced.py``.  Spans inside the program belong to
the telemetry issue; here every boundary is a public function the benchmark
calls.  Spans stay in memory until the run ends, then go out as JSON lines.
The replay is single-threaded, so "the current span" is one attribute.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span recorder; with ``enabled=False`` every call is a no-op.

    The untraced replay runs the same code with a disabled tracer, so the
    difference between the two passes is the cost of recording.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []
        self._current: int | None = None
        self._request_id = None

    @contextmanager
    def span(self, name: str, request_id=None):
        if not self.enabled:
            yield
            return
        if request_id is not None:
            self._request_id = request_id
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._current,
            "request_id": self._request_id,
        }
        self.spans.append(record)
        self._current = record["id"]
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._current = record["parent"]

    def child(self, name: str, start: float, end: float) -> None:
        """A finished span under the current one (times reported, not clocked)."""
        if not self.enabled:
            return
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": self._current,
                "request_id": self._request_id,
            }
        )

    def summary_ms(self) -> dict:
        """Per span name: count, median duration and median self time (ms).

        Self time is a span's duration minus the part its children cover.
        """
        covered = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        durations, selves = defaultdict(list), defaultdict(list)
        for span in self.spans:
            duration = span["end"] - span["start"]
            durations[span["name"]].append(duration)
            selves[span["name"]].append(duration - covered[span["id"]])
        return {
            name: {
                "count": len(values),
                "median_ms": float(np.median(values)) * 1e3,
                "self_median_ms": float(np.median(selves[name])) * 1e3,
            }
            for name, values in durations.items()
        }

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
