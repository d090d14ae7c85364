"""In-memory span recorder for the traced run.

A span has a name, a start, an end, the span that caused it and the id of
its root (the job it belongs to). Spans stay in a list until the run ends
and are written out with the results.
"""

from __future__ import annotations

import time


class Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        tracer = self.tracer
        rec = self.record
        stack = tracer._stack
        if stack:
            parent = stack[-1]
            rec["parent"] = parent["id"]
            rec["root"] = parent["root"]
        else:
            rec["root"] = rec["id"]
        stack.append(rec)
        rec["start"] = time.perf_counter()
        return rec

    def __exit__(self, *exc) -> None:
        rec = self.record
        rec["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, **attrs) -> Span:
        """Context manager recording one span; extra keyword arguments
        (counts, the algorithm, the instance) are stored on the span."""
        rec = {"id": len(self.spans), "parent": None, "root": None,
               "name": name, "start": 0.0, "end": 0.0, **attrs}
        self.spans.append(rec)
        return Span(self, rec)
