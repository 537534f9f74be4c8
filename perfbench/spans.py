"""In-memory span recorder for the traced run.

A span is one timed call the benchmark makes into a layer of the
program: its name, start, end, the span that caused it, and the id of
the request (or program version) it served.  Spans are kept in memory
and written out once, when the run ends.  Times are
``time.perf_counter`` values, which on Linux read the system-wide
monotonic clock, so spans recorded by a worker process line up with
the parent's.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class SpanRecorder:
    """Collects spans; the parent of a span is the innermost open span
    of the same thread."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(span_id, name, start, end, parent, rid)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            rid: Optional[str] = None) -> int:
        """Record a span measured elsewhere (a worker process, or the
        server's own ``seconds``)."""
        span_id = next(self._ids)
        self._record(span_id, name, start, end, parent, rid)
        return span_id

    def _record(self, span_id, name, start, end, parent, rid) -> None:
        with self._lock:
            self.spans.append({"id": span_id, "name": name,
                               "start": start, "end": end,
                               "parent": parent, "rid": rid})

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _covered(intervals: List[tuple], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"]) - _covered(
                children.get(span["id"], []), span["start"], span["end"])
            for span in spans}


def waterfall(spans: List[dict]) -> List[tuple]:
    """``(name, self_seconds, share)`` per span name, largest first;
    shares are of the summed self time, which equals the summed
    duration of the root spans."""
    own = self_times(spans)
    by_name: Dict[str, float] = {}
    for span in spans:
        by_name[span["name"]] = by_name.get(span["name"], 0.0) \
            + own[span["id"]]
    total = sum(by_name.values()) or 1.0
    return sorted(((name, seconds, seconds / total)
                   for name, seconds in by_name.items()),
                  key=lambda row: -row[1])


def unattributed_share(spans: List[dict], roots: str) -> float:
    """Self time of the ``roots``-named spans over their duration: the
    part of each root no named layer accounts for."""
    own = self_times(spans)
    chosen = [s for s in spans if s["name"] == roots]
    duration = sum(s["end"] - s["start"] for s in chosen)
    if not duration:
        return 0.0
    return sum(own[s["id"]] for s in chosen) / duration
