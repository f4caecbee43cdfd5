"""Harness-side spans: recorded around calls into each layer, kept in
memory, written out once at exit.

Spans inside the program are a later change; everything here is recorded
from the benchmark's own files around public functions.  A span carries
its name, start, end, the span that caused it and the run id they all
share, plus the counts observed at that boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class Recorder:
    """Collects spans while ``enabled``; a no-op otherwise, so the same
    workload code serves the untraced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[dict[str, Any]]:
        """Record one span; the yielded dict takes counts known only at
        the end (rows returned, bytes written)."""
        if not self.enabled:
            yield {}
            return
        record: dict[str, Any] = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float, **counts: Any) -> None:
        """A span measured by the program itself (a crawler's reported
        seconds), placed so that it ends now."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self.spans.append({
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "start": now - seconds,
            "end": now,
            "counts": dict(counts),
        })

    # -- analysis -------------------------------------------------------

    def fastest(self, name: str, count: str | None = None) -> float:
        """Fastest-of-repeats, the rule every timing here follows: the
        shortest span of that name, or the smallest value of one of its
        counts (a time the span accumulated inside a layer)."""
        return min(
            (
                s["end"] - s["start"] if count is None else s["counts"][count]
                for s in self.spans if s["name"] == name
            ),
            default=0.0,
        )

    def self_times(self) -> dict[int, float]:
        """Per span: duration minus the part its child spans cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (
                    covered.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        return {
            span["id"]: span["end"] - span["start"] - covered.get(span["id"], 0.0)
            for span in self.spans
        }

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span_id, seconds in self.self_times().items():
            name = self.spans[span_id]["name"]
            totals[name] = totals.get(name, 0.0) + seconds
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def coverage(self, wall_seconds: float) -> float:
        """Sum of all self times / traced wall time: how much of the
        traced pass the spans account for (gate: within 5 % of 1)."""
        return sum(self.self_times().values()) / wall_seconds

    def write(self, path: Path, **header: Any) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            {**s, "start": round(s["start"] - origin, 6),
             "end": round(s["end"] - origin, 6)}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({**header, "run": self.run_id, "spans": spans}) + "\n",
            encoding="utf-8",
        )
