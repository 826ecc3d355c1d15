"""In-memory spans around the benchmark's calls into pica's public functions.

A span records its name (``<module>.<function>``, the module being the
layer), start, end, parent span and problem id.  Spans stay in a list
while the pass runs; the parent process writes them out as JSON lines
when the run ends.  Untraced passes use a ``NullTracer``, whose spans
cost one context-manager entry and record nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.problem: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "problem": self.problem,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class NullTracer:
    def __init__(self):
        self.problem: int | None = None

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - covered[s["id"]] for s in spans]
