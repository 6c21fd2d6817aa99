"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code around calls into the
fsgreens modules; nothing inside the library is instrumented.  Each span
keeps its name, start, end and the span that caused it, plus the tracer's
current tags (the batch it ran in, the solve it belongs to, whether it is
a probe).  When tracing is off, `span` hands back one shared no-op
context manager, so the untraced run pays only a call per boundary.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.record = {"id": len(tracer.spans), "name": self.name,
                       "parent": tracer.stack[-1] if tracer.stack else None,
                       **tracer.tags, "start": 0.0, "end": 0.0}
        tracer.spans.append(self.record)
        tracer.stack.append(self.record["id"])
        self.record["start"] = perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Collects spans while enabled; `tags` is copied into every new span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.tags: dict = {}

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def self_times(self) -> list[dict]:
        """Every span with `self` = its duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        return [dict(rec, self=rec["end"] - rec["start"] - child_time[rec["id"]])
                for rec in self.spans]
