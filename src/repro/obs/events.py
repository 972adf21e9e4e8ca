"""Structured simulator tracing: typed events in a bounded ring buffer.

The tracer is the evidence layer behind every FastFIT verdict: a run
classified ``INF_LOOP`` or ``SEG_FAULT`` is only a label until the event
record shows *which* sends never matched or *which* corrupted parameter
walked off the arena.  Events are emitted from the scheduler (message
matching), the per-rank contexts (collective entry/exit), the memory
arenas (allocations), and the fault injector (arm/fire).

Design constraints:

* **bounded** — a ring buffer (``collections.deque`` with ``maxlen``)
  so a runaway INF_LOOP run cannot exhaust host memory; the *newest*
  events are kept, which is exactly the window that explains a hang;
* **cheap when off** — every emission site guards with a single
  ``tracer is not None`` check, so the untraced hot path pays one
  attribute load per event (see ``bench_simmpi_throughput``);
* **deterministic** — events carry a monotonic sequence number, never a
  wall-clock timestamp, preserving the simulator's reproducibility.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Every event kind the simulator stack emits, in no particular order.
EVENT_KINDS = (
    "send",          # scheduler: a message entered the match space
    "recv",          # scheduler: a fiber posted a receive
    "match",         # scheduler: a send/recv pair matched
    "rank_blocked",  # scheduler: a fiber blocked on an unmatched receive
    "coll_enter",    # context: a rank entered a collective
    "coll_exit",     # context: a rank's collective completed
    "alloc",         # memory: a buffer was allocated in a rank arena
    "fault_armed",   # injector: a fault spec is armed for this run
    "fault_fired",   # injector: the bit flip actually happened
    "unit_retry",    # supervisor: a work unit is being re-dispatched
    "unit_quarantined",  # supervisor: a unit gave up and was quarantined
    "sanitize_violation",  # sanitizer: a semantic tripwire fired
)

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 65_536


@dataclass(frozen=True)
class TraceEvent:
    """One typed simulator event.

    ``data`` holds the kind-specific payload (match keys, call sites,
    byte counts, ...) with JSON-safe scalar values only.
    """

    seq: int
    kind: str
    rank: int
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Flat, JSON-ready representation (one JSONL record)."""
        return {"seq": self.seq, "kind": self.kind, "rank": self.rank, **self.data}


class Tracer:
    """A bounded ring buffer of :class:`TraceEvent` records.

    Parameters
    ----------
    capacity:
        Maximum number of events retained; older events are dropped
        (and counted in :attr:`dropped`) once the buffer is full.
    enabled:
        When False, :meth:`emit` is a no-op — useful for toggling
        tracing without unthreading the tracer from the runtime.
    """

    __slots__ = ("capacity", "enabled", "_events", "_seq")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0

    def emit(self, kind: str, rank: int, **data: Any) -> None:
        """Record one event (dropped silently when disabled)."""
        if not self.enabled:
            return
        self._events.append(TraceEvent(self._seq, kind, rank, data))
        self._seq += 1

    # -- inspection ---------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events emitted over the tracer's lifetime."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self._seq - len(self._events)

    def events(self, *kinds: str) -> list[TraceEvent]:
        """Retained events in emission order, optionally filtered by kind."""
        if not kinds:
            return list(self._events)
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def clear(self) -> None:
        """Drop all retained events and reset the counters."""
        self._events.clear()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer({len(self)}/{self.capacity} events, "
            f"{self.dropped} dropped, {'on' if self.enabled else 'off'})"
        )


def format_event(event: TraceEvent) -> str:
    """One human-readable line per event (the ``fastfit trace`` view)."""
    d = event.data
    if event.kind in ("send", "recv", "match", "rank_blocked"):
        body = f"ctx={d.get('ctx')} src={d.get('src')} dst={d.get('dst')} tag={d.get('tag', 0):#x}"
        if "nbytes" in d:
            body += f" nbytes={d['nbytes']}"
    elif event.kind in ("coll_enter", "coll_exit"):
        body = f"{d.get('name')}@{d.get('site')}#inv{d.get('invocation')}"
        if "phase" in d:
            body += f" phase={d['phase']}"
    elif event.kind == "alloc":
        body = f"addr={d.get('addr', 0):#x} nbytes={d.get('nbytes')} label={d.get('label') or '-'}"
    elif event.kind in ("fault_armed", "fault_fired"):
        body = f"{d.get('collective')}@{d.get('site')}#inv{d.get('invocation')} param={d.get('param')} bit={d.get('bit')}"
        if d.get("before"):
            body += f" {d['before']} -> {d['after']}"
        if d.get("skipped"):
            body += " skipped"
    elif event.kind in ("unit_retry", "unit_quarantined"):
        body = f"unit={d.get('unit')} attempt={d.get('attempt')} reason={d.get('reason')}"
    elif event.kind == "sanitize_violation":
        extras = " ".join(f"{k}={v}" for k, v in sorted(d.items()) if k != "kind")
        body = f"{d.get('kind')} {extras}".rstrip()
    else:  # pragma: no cover - future kinds
        body = " ".join(f"{k}={v}" for k, v in d.items())
    return f"{event.seq:>7}  {event.kind:<12} rank {event.rank:<3} {body}"
