"""Snapshot-and-fork injection serving (prefix amortization).

Every test of a campaign shares a bit-identical fault-free run up to
its injection point; this package makes that run once per executor,
parks the job at each target collective entry in turn, and serves each
test by forking the parked parent — the ZOFI fork model applied to the
simulated-MPI campaign engine, with a :class:`SimSnapshot` +
deterministic fast-forward restore path (the DAVOS ``ColdRestore``
analogue) so a re-served point skips the scheduler entirely.

Entry point: :class:`SnapshotEngine` (used by ``Campaign`` and the
parallel workers whenever ``snapshot=True``, the default).
"""

from .cache import SnapshotCache
from .engine import SnapshotEngine, snapshot_supported
from .snapshot import FastForwardDiverged, SimSnapshot

__all__ = [
    "FastForwardDiverged",
    "SimSnapshot",
    "SnapshotCache",
    "SnapshotEngine",
    "snapshot_supported",
]
