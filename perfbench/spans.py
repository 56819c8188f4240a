"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent, run)``: host wall-clock start and
end in seconds (``time.perf_counter``, which is system-wide monotonic on
Linux, so spans reported by campaign worker processes line up with the
parent's), the id of the enclosing span, and one run id per workload run.
Spans are kept in a list and written out once, when the run ends.

The recorder lives entirely in the benchmark: it wraps the public calls
into each layer from outside and never reaches into the simulator.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans for one workload run; ``enabled=False`` records nothing."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Record a span measured elsewhere (a campaign point in a worker)."""
        if self.enabled:
            self.spans.append(Span(len(self.spans), name, start, end, parent, self.run_id))

    # ------------------------------------------------------------------ #
    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the intervals its children cover.

        Children of one parent can overlap (campaign points run two at a
        time), so the covered part is merged before subtracting.
        """
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)
            handle.write("\n")
