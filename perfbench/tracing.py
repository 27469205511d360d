"""Driver-side spans around the engine's public calls.

Spans are recorded from the benchmark's own files: ``Tracer.patch``
wraps a method or module function of the engine for the duration of a
traced run and ``Tracer.restore`` puts the original back. Each span
keeps its name, start, end, parent span and the id of the root call it
belongs to; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []
        self._root_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if not self._open:
            self._root_id += 1
        span = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "root": self._root_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def patch(self, owner: Any, attr: str, name: str, observe: Callable | None = None) -> None:
        """Wrap ``owner.attr`` so every call records a span; ``observe``
        sees (args, kwargs, result) of each call."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            out = self.call(name, orig, *args, **kwargs)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _covered(self) -> list[float]:
        """Per span: the seconds of it that its child spans cover."""
        kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append((s["start"], s["end"]))
        return [_union_length(kids[i]) for i in range(len(self.spans))]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the part of it its child spans cover)."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for s, covered in zip(self.spans, self._covered()):
            dur = s["end"] - s["start"]
            agg = out[s["name"]]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - covered
        return dict(out)

    def coverage(self, root_name: str) -> float:
        """Share of the ``root_name`` spans' time covered by their children."""
        total = covered = 0.0
        for s, c in zip(self.spans, self._covered()):
            if s["name"] == root_name:
                total += s["end"] - s["start"]
                covered += c
        return covered / total if total else 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    length = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        length += b - max(a, end)
        end = b
    return length
