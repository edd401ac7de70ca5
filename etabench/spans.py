"""In-memory spans and counters for the traced benchmark run, and their sums.

A span is one call into a layer: name (``<layer>.<stage>``), start and end
(monotonic seconds), the id of the enclosing span and a tag naming the sweep
cell or predicting route it belongs to.  Spans stay in memory and are written
out when the run ends.  Everything here is standard library only, so the
parent process can aggregate without importing numpy.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

HARNESS = "harness"


def now() -> float:
    """CLOCK_MONOTONIC is system-wide, so parent and child readings compare."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag=None):
        parent = self._stack[-1] if self._stack else None
        if tag is None and parent is not None:
            tag = self.spans[parent]["tag"]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "tag": tag,
               "start": now(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = now()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name].append(float(value))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict]) -> dict:
    """Seconds and call counts per span name, self seconds per layer."""
    stage_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self_s: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        stage_s[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        layer_self_s[s["name"].split(".")[0]] += own
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {"stage_s": dict(stage_s), "calls": dict(calls),
            "layer_self_s": dict(layer_self_s), "traced_total_s": total,
            "layer_spans_s": sum(v for k, v in layer_self_s.items() if k != HARNESS)}
