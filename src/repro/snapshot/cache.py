"""Byte-bounded LRU cache of prefix snapshots, keyed by injection point.

The budget bounds retained :attr:`SimSnapshot.nbytes` (dominated by the
per-rank arena copies, trimmed to each rank's allocator break), not
entry count: snapshots of big jobs still add up over a long campaign,
and an unbounded cache would also inflate every subsequent
``os.fork`` — the parent's resident set is what the kernel clones.
Insertion and lookup refresh recency; the least-recently-used snapshots
are evicted first.
"""

from __future__ import annotations

from collections import OrderedDict

from ..injection.space import InjectionPoint
from .snapshot import SimSnapshot

#: Default retained-bytes budget: a handful of 8-rank snapshots.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


class SnapshotCache:
    """LRU mapping of :class:`InjectionPoint` -> :class:`SimSnapshot`."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[InjectionPoint, SimSnapshot] = OrderedDict()
        self.nbytes = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, point: InjectionPoint) -> bool:
        return point in self._entries

    def get(self, point: InjectionPoint) -> SimSnapshot | None:
        """Return the cached snapshot (refreshing recency), or None."""
        snapshot = self._entries.get(point)
        if snapshot is not None:
            self._entries.move_to_end(point)
        return snapshot

    def put(self, point: InjectionPoint, snapshot: SimSnapshot) -> None:
        """Insert (or refresh) a snapshot, evicting LRU entries to stay
        within the byte budget.  A snapshot larger than the whole budget
        is not retained at all."""
        old = self._entries.pop(point, None)
        if old is not None:
            self.nbytes -= old.nbytes
        if snapshot.nbytes > self.max_bytes:
            return
        self._entries[point] = snapshot
        self.nbytes += snapshot.nbytes
        while self.nbytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self.nbytes -= evicted.nbytes
            self.evictions += 1

    def pop(self, point: InjectionPoint) -> None:
        """Drop a snapshot (e.g. after a fast-forward divergence)."""
        snapshot = self._entries.pop(point, None)
        if snapshot is not None:
            self.nbytes -= snapshot.nbytes
