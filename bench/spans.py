"""In-memory spans, self-time arithmetic, and the tail-percentile rule.

A span is (name, start, end, parent). The tracer keeps every span in a
list and writes them out once, when the run ends. A span's self time is
its duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, **s.attrs}) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children, clipped to the span."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ())]
        out.append((s.end - s.start) - covered([k for k in kids if k[1] > k[0]]))
    return out


def tail_percentile(samples, beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value): the value is the sorted sample at index
    n - beyond - 1, and the percentile is the share of samples at or below
    it. None when there are not more than `beyond` samples.
    """
    ordered = sorted(samples)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]

