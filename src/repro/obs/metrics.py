"""Campaign and phase metrics: counters, gauges, timers, histograms.

A :class:`MetricsRegistry` is the single sink the whole stack records
into — the injection runner counts outcomes, the campaign driver tracks
tests/sec, the pruners report their reductions, and the facade times
every phase.  Registries are cheap plain-Python objects; everything is
exportable as JSON next to the existing campaign export formats.

No global state: a registry is created per :class:`~repro.FastFIT`
instance (or explicitly) and threaded down, so concurrent studies never
share metric storage.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only increase; got {n}")
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge(self, other: "Gauge") -> None:
        """Last-value-wins: the merged-in gauge is the newer reading."""
        self.value = other.value


class Timer:
    """Accumulated durations — wall-clock seconds or abstract steps.

    ``unit`` is purely descriptive ("s" for wall-clock, "steps" for
    scheduler-event counts); :meth:`record` accepts any non-negative
    magnitude in that unit.
    """

    __slots__ = ("unit", "count", "total", "min", "max")

    def __init__(self, unit: str = "s") -> None:
        self.unit = unit
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, magnitude: float) -> None:
        magnitude = float(magnitude)
        if magnitude < 0:
            raise ValueError(f"negative duration {magnitude}")
        self.count += 1
        self.total += magnitude
        self.min = min(self.min, magnitude)
        self.max = max(self.max, magnitude)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Timer") -> None:
        """Fold another timer's durations into this one.

        Both timers must measure the same unit; count/total add, min/max
        widen, so the merge is exactly what sequential recording of both
        streams would have produced.
        """
        if other.unit != self.unit:
            raise ValueError(
                f"cannot merge timer in {other.unit!r} into timer in {self.unit!r}"
            )
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager recording wall-clock elapsed seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(time.perf_counter() - start)

    def to_dict(self) -> dict[str, Any]:
        return {
            "unit": self.unit,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }


#: Sample-reservoir size for histogram quantiles.
_HIST_SAMPLE = 1024


class Histogram:
    """Streaming summary of observed values.

    Tracks exact count/total/min/max and keeps the most recent
    ``_HIST_SAMPLE`` observations for quantile estimates — enough for
    per-point error-rate and duration distributions without unbounded
    memory.
    """

    __slots__ = ("count", "total", "min", "max", "_sample")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._sample: deque[float] = deque(maxlen=_HIST_SAMPLE)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self._sample.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Exact aggregates (count/total/min/max) merge losslessly; the
        quantile sample window is extended with the other histogram's
        retained sample, bounded by the usual reservoir size.
        """
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._sample.extend(other._sample)

    def quantile(self, q: float) -> float:
        """Approximate quantile over the retained sample window."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[idx]

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
        }


class MetricsRegistry:
    """Named metrics, created on first use.

    ``registry.counter("outcome.SEG_FAULT").inc()`` — the name is the
    identity; asking twice returns the same instrument.  Names use
    dotted paths by convention (``phase.profile``, ``campaign.tests``).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter()
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge()
            return g

    def timer(self, name: str, unit: str = "s") -> Timer:
        try:
            return self._timers[name]
        except KeyError:
            t = self._timers[name] = Timer(unit)
            return t

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram()
            return h

    def time(self, name: str) -> Any:
        """Shorthand for ``timer(name).time()``."""
        return self.timer(name).time()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one, by name.

        Used by the parallel campaign engine: each worker records into a
        private registry, and the parent merges the snapshots so the
        final registry matches what a serial run would have recorded.
        Counters add, timers and histograms fold their aggregates
        (min/max widen, samples concatenate under the reservoir bound),
        and gauges take the merged-in value (last write wins).
        """
        for name, c in other._counters.items():
            self.counter(name).merge(c)
        for name, g in other._gauges.items():
            self.gauge(name).merge(g)
        for name, t in other._timers.items():
            self.timer(name, unit=t.unit).merge(t)
        for name, h in other._histograms.items():
            self.histogram(name).merge(h)

    # -- export -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every metric, sorted by name."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "timers": {k: t.to_dict() for k, t in sorted(self._timers.items())},
            "histograms": {k: h.to_dict() for k, h in sorted(self._histograms.items())},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict`: counters, gauges and
        timers exactly.  A histogram's sample is not in the dict."""
        if data.get("histograms"):
            raise ValueError(f"histograms do not round-trip: {sorted(data['histograms'])}")
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).value = value
        for name, value in data.get("gauges", {}).items():
            registry.gauge(name).value = value
        for name, t in data.get("timers", {}).items():
            timer = registry.timer(name, unit=t["unit"])
            if t["count"]:
                timer.count, timer.total = t["count"], t["total"]
                timer.min, timer.max = t["min"], t["max"]
        return registry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._timers)} timers, "
            f"{len(self._histograms)} histograms)"
        )
