"""In-memory spans and counts, recorded around calls into ecac's layers.

A span has a name, a start, an end (CLOCK_MONOTONIC seconds), the id of
the span that was open when it began, and the id of its trace (one
replay). Spans live in memory until the benchmark writes them out at the
end of a traced run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": now(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = now()
            self._open.pop()

    def count(self, name: str, value: float = 1.0):
        self.counts[name] += value

    def peak(self, name: str, value: float):
        self.counts[name] = max(self.counts[name], value)

    def children_of(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, span: dict) -> float:
        """The span's duration minus the time its (sequential) children cover."""
        covered = sum(c["end"] - c["start"] for c in self.children_of(span["id"]))
        return (span["end"] - span["start"]) - covered
