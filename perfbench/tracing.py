"""In-memory spans recorded by the benchmark around calls into each layer.

A span is (name, start, end, parent). Spans are kept in a list while
the traced pass runs and written out as JSON when the run ends. A
layer's self time is its spans' durations minus the time their child
spans cover; top-level coverage is how much of a root span its direct
children account for.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _duration(self, record: dict) -> float:
        return record["end"] - record["start"]

    def inclusive(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record["name"]] += self._duration(record)
        return dict(totals)

    def self_times(self) -> Dict[str, float]:
        """name -> summed (duration - direct children's durations)."""
        child_time: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += self._duration(record)
        totals: Dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            totals[record["name"]] += self._duration(record) - child_time[index]
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        return [self._duration(r) for r in self.spans if r["name"] == name]

    def coverage(self, *names: str) -> float:
        """Share of the named root spans' time their children cover."""
        roots = {i for i, r in enumerate(self.spans) if r["name"] in names}
        total = sum(self._duration(self.spans[i]) for i in roots)
        covered = sum(
            self._duration(r) for r in self.spans if r["parent"] in roots
        )
        return covered / total if total > 0 else 0.0

    def dump(self, path: str) -> None:
        origin = min((r["start"] for r in self.spans), default=0.0)
        document = {
            "spans": [
                {
                    "name": r["name"],
                    "start_s": r["start"] - origin,
                    "end_s": r["end"] - origin,
                    "parent": r["parent"],
                }
                for r in self.spans
            ],
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
