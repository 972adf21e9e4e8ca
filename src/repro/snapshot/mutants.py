"""Seeded defects in the snapshot-and-fork engine (self-test).

Mirrors :mod:`repro.verify.mutants`: each mutant plants a realistic bug
in the serving path that the fork-equivalence oracle (forked and
from-scratch per-test streams must fingerprint identically) is
*required* to catch.  The defects deliberately bypass the engine's own
internal divergence checks — a bug those checks catch is silently
repaired by the full-replay fallback and proves nothing about the
oracle.

Activation is a module-level flag consulted by the engine at the seven
places a real implementation bug would live: the per-test RNG handoff,
the parked prefix state, the park-site match, the walk from one
unit's park to the next, the in-park replay of a test, the order in
which overlapped children are reaped, and the horizon up to which a
stopper-driven unit hands out tests (in ``WorkerState._unit``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class SnapshotMutant:
    """A seeded snapshot-engine defect and the check that must catch it."""

    name: str
    description: str
    detected_by: str


SNAPSHOT_MUTANTS: dict[str, SnapshotMutant] = {
    m.name: m
    for m in (
        SnapshotMutant(
            name="snapshot_rng_desync",
            description=(
                "the engine burns one extra RNG draw before handing the "
                "per-test generator to the forked child, desynchronising "
                "fault-bit selection from the from-scratch stream"
            ),
            detected_by="fork-equivalence fingerprint (verify phase 5)",
        ),
        SnapshotMutant(
            name="snapshot_stale_prefix",
            description=(
                "one byte of every heap allocation on every rank is corrupted "
                "in the parked parent after capture — every forked test "
                "inherits a prefix that never existed in the from-scratch run"
            ),
            detected_by="fork-equivalence fingerprint (verify phase 5)",
        ),
        SnapshotMutant(
            name="snapshot_wrong_invocation",
            description=(
                "the engine parks one invocation early at the target site, "
                "so forked faults fire at the wrong dynamic call"
            ),
            detected_by="fork-equivalence fingerprint (verify phase 5)",
        ),
        SnapshotMutant(
            name="snapshot_walk_stale_target",
            description=(
                "walking on to the next unit, the park is re-armed but not "
                "re-pointed, so that unit's tests fork at the previous site"
            ),
            detected_by="fork-equivalence fingerprint (verify phase 5)",
        ),
        SnapshotMutant(
            name="snapshot_replay_wrong_slot",
            description=(
                "a test the engine chose to replay in the park is not run: "
                "the previous test's result is delivered into its slot"
            ),
            detected_by="fork-equivalence fingerprint (verify phase 5)",
        ),
        SnapshotMutant(
            name="snapshot_pipeline_reorder",
            description=(
                "with more than one forked child in flight, the newest is "
                "reaped and delivered first, so results leave task order"
            ),
            detected_by="fork-equivalence fingerprint (verify phase 5)",
        ),
        SnapshotMutant(
            name="snapshot_horizon_overreach",
            description=(
                "a stopper-driven unit hands out one test past the ones the "
                "stopper is certain to run, so a test past the serial cut is "
                "forked and delivered"
            ),
            detected_by="fork-equivalence fingerprint (verify phase 5)",
        ),
    )
}

_active: str | None = None


def active_mutant() -> str | None:
    """Name of the armed snapshot mutant, or None."""
    return _active


@contextmanager
def seeded_snapshot_mutant(name: str) -> Iterator[SnapshotMutant]:
    """Arm one seeded engine defect for the duration of the context."""
    global _active
    if name not in SNAPSHOT_MUTANTS:
        raise KeyError(
            f"unknown snapshot mutant {name!r}; known: {sorted(SNAPSHOT_MUTANTS)}"
        )
    if _active is not None:  # pragma: no cover - defensive
        raise RuntimeError(f"snapshot mutant {_active!r} already armed")
    _active = name
    try:
        yield SNAPSHOT_MUTANTS[name]
    finally:
        _active = None
