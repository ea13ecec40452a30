"""In-memory spans around the benchmark's calls into each layer.

A span is (id, name, start_ns, end_ns, parent id, operation id). Spans stay
in a list until the run ends; then they are written as JSON lines and
reduced to per-name self time. A span's self time is its duration minus the
part of it that its children cover.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []

    def record(self, name: str, start: int, end: int,
               parent: int | None = None, op: int | None = None) -> int:
        """Store a finished span and return its id."""
        sid = len(self.spans)
        self.spans.append((sid, name, start, end, parent, op))
        return sid

    def call(self, name: str, op: int | None, fn, *args):
        """Run fn(*args) under a span and return its result."""
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.record(name, t0, perf_counter_ns(), None, op)

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent, "op": op}))
                fh.write("\n")

    def self_times(self) -> dict[str, list[int]]:
        """Self time in ns of every span, grouped by span name."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out: dict[str, list[int]] = {}
        for sid, name, t0, t1, _, _ in self.spans:
            covered, edge = 0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, edge, t0), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    edge = c1
            out.setdefault(name, []).append(t1 - t0 - covered)
        return out
