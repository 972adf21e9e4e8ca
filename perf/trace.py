"""The harness's own span recorder.

Spans are recorded from the benchmark's side of each call into a layer's
public functions; nothing under ``src/`` knows about them.  They are
kept in memory and written out once, when the traced run ends.  A span's
self time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Iterator

Span = dict[str, Any]


class Recorder:
    """In-memory span tree for one traced workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        record: Span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "workload": self.workload,
            "t0": time.perf_counter(),
            "t1": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["t1"] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per-span self time: duration minus the children's durations."""
    out = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["t1"] - s["t0"]
    return out


def by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name — the layer table."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"n": 0, "total_s": 0.0, "self_s": 0.0})
        row["n"] += 1
        row["total_s"] += s["t1"] - s["t0"]
        row["self_s"] += selfs[s["id"]]
    return table


def durations(spans: list[Span], name: str) -> list[float]:
    return [s["t1"] - s["t0"] for s in spans if s["name"] == name]


def validate(spans: list[Span]) -> list[str]:
    """Span-tree problems: unclosed spans, children that start before or
    end after their parent, negative self time."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["t1"] is None:
            problems.append(f"span {s['id']} ({s['name']}) never closed")
    if problems:
        return problems
    for s in spans:
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['id']} names a missing parent {s['parent']}")
        elif parent is not None and not (parent["t0"] <= s["t0"] <= s["t1"] <= parent["t1"]):
            problems.append(f"span {s['id']} ({s['name']}) is not nested in its parent")
    for sid, value in self_times(spans).items():
        # Sibling spans never overlap (one thread), so this only trips on
        # a broken tree; the slack absorbs float rounding in the sums.
        if value < -1e-6:
            problems.append(f"span {sid} has negative self time {value:.6f}s")
    return problems
