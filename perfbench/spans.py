"""In-memory span recorder for the traced run.

A span covers one call from the benchmark into a public function of a layer
(or one benchmark operation, which is the parent of the calls it makes).
Spans live in a list until the run ends and are then written out in one go.
With tracing off, `call` forwards straight to the function, so the untraced
run pays for one attribute test per call and nothing else.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = "setup"
        self.last: dict | None = None
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the body; yields the span's attribute dict."""
        if not self.enabled:
            yield attrs
            return
        record = {
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter() - self._t0
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            self.last = record

    def note(self, **attrs) -> None:
        """Add attributes (byte counts, outcomes) to the span that closed last."""
        if self.enabled and self.last is not None:
            self.last["attrs"].update(attrs)

    def call(self, name: str, fn, *args, alloc: bool = False, attrs: dict | None = None, **kwargs):
        """Call fn(*args, **kwargs) inside a span named after the layer function.

        alloc=True also records the peak bytes numpy and Python allocated
        during the call (tracemalloc, traced run only).
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, **(attrs or {})) as span_attrs:
            if alloc:
                tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            else:
                result = fn(*args, **kwargs)
        return result

    def named(self, name: str, from_ops: bool | None = None) -> list[dict]:
        """Closed spans called `name`; from_ops selects operation or other spans."""
        out = []
        for s in self.spans:
            if s["name"] != name or "end" not in s:
                continue
            in_op = isinstance(s["op"], int)
            if from_ops is None or from_ops == in_op:
                out.append(s)
        return out

    def self_times_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time children cover.

        Children of one span run one after another on one thread, so the part
        of the parent they cover is the sum of their durations.
        """
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and "end" in s:
                child_ms[s["parent"]] += duration_ms(s)
        totals: dict[str, float] = {}
        for s, covered in zip(self.spans, child_ms):
            if "end" in s:
                totals[s["name"]] = totals.get(s["name"], 0.0) + duration_ms(s) - covered
        return totals

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra, self_ms=self.self_times_ms(), spans=self.spans)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def duration_ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3
