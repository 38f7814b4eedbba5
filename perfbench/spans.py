"""In-memory spans and counts, recorded from the benchmark's own code.

A span is opened around a call into one of sumset-lab's modules: either
explicitly with :meth:`Tracer.span`, or by :meth:`Tracer.patch`, which
replaces a module attribute with a recording wrapper for the length of a
``with`` block, so calls the module makes to its own names are seen too.
Spans of one benchmark operation share a trace id.  Every span feeds the
per-name summary; the first ``MAX_SPANS`` are also kept whole.  Nothing
is written until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.summary: dict[str, list] = {}  # name -> [calls, total ns, self ns]
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._trace = 0
        self._next_id = 0

    def new_trace(self) -> None:
        """Start a new operation: later spans share a fresh trace id."""
        self._trace += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            duration = t1 - t0
            if self._stack:
                self._stack[-1][1] += duration
            row = self.summary.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[1]
            if len(self.spans) < MAX_SPANS:
                self.spans.append((self._trace, span_id, parent, name, t0, t1))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patch(self, module, names, prefix: str):
        """Record a span for every call of ``module.<name>`` inside the block."""
        saved = {n: getattr(module, n) for n in names}
        try:
            for n, fn in saved.items():
                setattr(module, n, self.wrap(f"{prefix}.{n}", fn))
            yield
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)

    def write(self, path: str, extra: dict) -> None:
        """Write the summary (calls, total and self time in microseconds;
        self time excludes child spans), the counts and the kept spans."""
        doc = dict(extra)
        doc["summary"] = {
            name: {"calls": calls, "total_us": total / 1e3, "self_us": own / 1e3}
            for name, (calls, total, own) in sorted(self.summary.items())
        }
        doc["counts"] = self.counts
        doc["spans_recorded"] = self._next_id
        doc["span_fields"] = ["trace", "id", "parent", "name", "start_ns", "end_ns"]
        doc["spans"] = self.spans
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
