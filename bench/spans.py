"""In-memory spans around the benchmark's own calls into gpgraphs.

A span records its name, start and end (perf_counter seconds), the span
that encloses it, the op it belongs to, and any work counters the caller
attaches. A memory tracer also records the tracemalloc peak above the
memory live at the span's start; tracemalloc slows allocation-heavy code
several times over, so timing and memory come from separate passes.
Spans are kept in a list and written out as JSON lines once the run ends.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager

MB = float(1 << 20)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._base: dict[int, int] = {}   # span id -> traced bytes live at its start
        self._peaks: dict[int, int] = {}  # span id -> highest traced bytes seen so far
        self._op_id = None

    def start(self):
        if self.memory:
            tracemalloc.start()

    def stop(self):
        if self.memory:
            tracemalloc.stop()

    @contextmanager
    def op(self, op_id: int, **attrs):
        """Root span of one op; layer spans opened inside it are its children."""
        self._op_id = op_id
        try:
            with self.span("op", **attrs) as record:
                try:
                    yield record
                except Exception as exc:
                    record["error"] = type(exc).__name__
                    raise
        finally:
            self._op_id = None

    @contextmanager
    def span(self, name: str, **counts):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "op": self._op_id, **counts}
        self.spans.append(record)
        if self.memory:
            self._enter_memory(record["id"])
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                record["peak_mb"] = self._exit_memory(record["id"])

    def _enter_memory(self, span_id: int):
        # the peak since the last reset belongs to the enclosing span
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]["id"]
            self._peaks[parent] = max(self._peaks[parent], peak)
        self._base[span_id] = self._peaks[span_id] = current
        tracemalloc.reset_peak()

    def _exit_memory(self, span_id: int) -> float:
        top = max(self._peaks.pop(span_id), tracemalloc.get_traced_memory()[1])
        if self._stack:
            parent = self._stack[-1]["id"]
            self._peaks[parent] = max(self._peaks[parent], top)
        return (top - self._base.pop(span_id)) / MB

    def overhead_s(self) -> float:
        """Time the spans themselves add: their count times the cost of an empty span."""
        probe, count = Tracer(self.memory), 10_000
        start = time.perf_counter()
        for _ in range(count):
            with probe.span("probe"):
                pass
        return len(self.spans) * (time.perf_counter() - start) / count

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its direct children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write_jsonl(self, path):
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
