"""Live campaign progress telemetry.

A long campaign should be observable while it runs, not only after:
the supervisor loop feeds a :class:`ProgressTracker`, which rates-limits
per-unit completions into periodic :class:`ProgressSnapshot` records and
fans them out to any number of :class:`ProgressSink` consumers — a JSONL
stream for the CLI's ``--progress-jsonl``, the campaign database's
``progress`` table (rendered as the report's campaign timeline), or
anything else implementing the two-method protocol.

Snapshots carry throughput (tests/sec over the whole run), a running
outcome histogram, worker-health counters (live workers, deaths,
retries, quarantines), and a naive rate-based ETA.  They are derived
purely from completion events, so emitting them costs nothing on the
test hot path.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import IO, Protocol, runtime_checkable


@dataclass(frozen=True)
class ProgressSnapshot:
    """One point-in-time view of a running campaign."""

    seq: int
    ts: float
    elapsed_s: float
    done_tests: int
    total_tests: int
    done_units: int
    total_units: int
    tests_per_sec: float
    eta_s: float | None
    outcomes: dict[str, int] = field(default_factory=dict)
    workers: int = 1
    worker_deaths: int = 0
    retries: int = 0
    quarantined: int = 0
    #: Snapshot-and-fork engine telemetry (zero when --no-snapshot):
    #: fault-free runs restored from a cached snapshot (``hits``) and
    #: started from t=0 (``misses`` — one per executor per ``Campaign.run``
    #: when nothing restarts), retained snapshot bytes, restore time.
    snapshot_hits: int = 0
    snapshot_misses: int = 0
    snapshot_bytes: int = 0
    snapshot_fastforward_s: float = 0.0

    @property
    def fraction(self) -> float:
        return self.done_tests / self.total_tests if self.total_tests else 1.0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["outcomes"] = dict(sorted(self.outcomes.items()))
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@runtime_checkable
class ProgressSink(Protocol):
    """Anything that consumes progress snapshots."""

    def emit(self, snap: ProgressSnapshot) -> None: ...

    def close(self) -> None: ...


class JsonlProgressSink:
    """Writes one JSON object per snapshot to a file or stream.

    Lines are flushed per emit so ``tail -f`` (or a dashboard polling
    the file) sees snapshots as they happen.
    """

    def __init__(self, target: str | IO[str]):
        if hasattr(target, "write"):
            self._fh: IO[str] = target  # type: ignore[assignment]
            self._owned = False
        else:
            self._path = target
            self._fh = open(target, "a", encoding="utf-8")
            self._owned = True

    def emit(self, snap: ProgressSnapshot) -> None:
        if self._owned and self._fh.closed:
            # A batch driver runs one campaign per round, and every
            # campaign closes its sinks when it finishes.
            self._fh = open(self._path, "a", encoding="utf-8")
        self._fh.write(snap.to_json() + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owned and not self._fh.closed:
            self._fh.close()


class ProgressTracker:
    """Aggregates unit completions into rate-limited snapshots.

    The campaign engine calls :meth:`unit_done` /
    :meth:`unit_quarantined` per completed unit and :meth:`finish` at the
    end; a snapshot is emitted every ``every_units`` completions plus
    always at the end, so even a short campaign leaves a timeline.
    Resumed units are seeded through :meth:`seed` and counted as done
    without polluting throughput (elapsed time starts at tracker
    creation, after the resume load).
    """

    def __init__(
        self,
        total_tests: int,
        total_units: int,
        sinks: list[ProgressSink] | None = None,
        every_units: int = 1,
        workers: int = 1,
        metrics=None,
    ):
        if every_units < 1:
            raise ValueError(f"every_units must be >= 1, got {every_units}")
        self.total_tests = total_tests
        self.total_units = total_units
        self.sinks: list[ProgressSink] = list(sinks or [])
        self.every_units = every_units
        self.workers = workers
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` to read
        #: supervision counters (worker deaths, retries) from.
        self.metrics = metrics
        self._start = time.monotonic()
        self._seq = 0
        self._done_tests = 0
        self._done_units = 0
        self._fresh_tests = 0  # executed this run (excludes resumed)
        self._outcomes: dict[str, int] = {}
        self._quarantined = 0
        self._since_emit = 0

    # -- event intake ----------------------------------------------------

    def seed(self, tests) -> None:
        """Account for a unit restored from a checkpoint/database."""
        self._done_tests += len(tests)
        self._done_units += 1
        for t in tests:
            name = t.outcome.name
            self._outcomes[name] = self._outcomes.get(name, 0) + 1

    def unit_done(self, tests) -> None:
        """Account for a unit executed this run; maybe emit."""
        self._done_tests += len(tests)
        self._fresh_tests += len(tests)
        self._done_units += 1
        for t in tests:
            name = t.outcome.name
            self._outcomes[name] = self._outcomes.get(name, 0) + 1
        self._maybe_emit()

    def unit_quarantined(self, tests) -> None:
        """Account for a given-up unit (synthetic TOOL_ERROR results)."""
        self._quarantined += 1
        self.unit_done(tests)

    # -- snapshot assembly -------------------------------------------------

    def _counter(self, name: str) -> int:
        if self.metrics is None:
            return 0
        return self.metrics.counter(name).value

    def _gauge(self, name: str) -> int:
        if self.metrics is None:
            return 0
        return int(self.metrics.gauge(name).value)

    def _timer_total(self, name: str) -> float:
        if self.metrics is None:
            return 0.0
        return self.metrics.timer(name).total

    def snapshot(self) -> ProgressSnapshot:
        elapsed = time.monotonic() - self._start
        rate = self._fresh_tests / elapsed if elapsed > 0 else 0.0
        remaining = self.total_tests - self._done_tests
        eta = remaining / rate if rate > 0 and remaining > 0 else None
        self._seq += 1
        return ProgressSnapshot(
            seq=self._seq,
            ts=time.time(),
            elapsed_s=elapsed,
            done_tests=self._done_tests,
            total_tests=self.total_tests,
            done_units=self._done_units,
            total_units=self.total_units,
            tests_per_sec=rate,
            eta_s=eta,
            outcomes=dict(sorted(self._outcomes.items())),
            workers=self.workers,
            worker_deaths=self._counter("exec.worker_deaths"),
            retries=self._counter("exec.retries"),
            quarantined=self._quarantined,
            snapshot_hits=self._counter("snapshot.hits"),
            snapshot_misses=self._counter("snapshot.misses"),
            snapshot_bytes=self._gauge("snapshot.bytes"),
            snapshot_fastforward_s=self._timer_total("snapshot.fastforward_s"),
        )

    def _emit(self) -> None:
        """Hand one snapshot to every sink, then re-raise the first error
        a sink raised: a sink that raises (a kill switch, a full disk)
        does not keep the snapshot from the sinks after it."""
        snap = self.snapshot()
        self._since_emit = 0
        error: BaseException | None = None
        for sink in self.sinks:
            try:
                sink.emit(snap)
            except BaseException as exc:
                error = error or exc
        if error is not None:
            raise error

    def _maybe_emit(self) -> None:
        self._since_emit += 1
        if self.sinks and self._since_emit >= self.every_units:
            self._emit()

    def finish(self) -> None:
        """Emit the final snapshot (if anything happened since the last
        one) and close every sink, even when one raises."""
        try:
            if self.sinks and (self._since_emit or self._seq == 0):
                self._emit()
        finally:
            for sink in self.sinks:
                sink.close()
