"""Deterministic sharding of a campaign into work units.

A *work unit* is a contiguous slice of test indices at one injection
point: ``(point_index, test_start, test_stop)``.  The unit layout is a
pure function of ``(n_points, tests_per_point, unit_tests, layout)`` —
it never depends on the worker count — so a campaign stored by a
4-worker run resumes cleanly under 1 worker and vice versa, and unit ids
are stable keys for the campaign database (:mod:`repro.store`).

Two layouts exist, named by a version tag that participates in the
campaign digest (:func:`repro.exec.checkpoint.campaign_digest`):

* ``"p1"`` — classic point-major: each point is cut into
  ``UNITS_PER_POINT`` slices, enumerated in point order.  Best when
  tests are independent full replays (``--no-snapshot``).
* ``"s1"`` — whole-point units: one unit carries *all* tests of its
  point, which the snapshot-and-fork engine (:mod:`repro.snapshot`)
  serves from one park.  The canonical enumeration is site-major
  (``(site_key, point_index)``); it fixes the layout tag and the unit
  set, not the dispatch order — :func:`repro.exec.parallel.run_campaign`
  hands units out in execution order so one fault-free run walks
  through them.

Unit *ids* are layout-independent (``p<i>:t<a>-<b>``); only the slicing
and ordering differ, which is why the tag must be part of the digest —
resuming a ``p1`` campaign under ``s1`` would silently mix unit
geometries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

_UNIT_ID_RE = re.compile(r"p(\d+):t(\d+)-(\d+)\Z")


@dataclass(frozen=True, order=True)
class WorkUnit:
    """One schedulable slice of a campaign: tests
    ``[test_start, test_stop)`` of point ``point_index``."""

    point_index: int
    test_start: int
    test_stop: int

    @property
    def n_tests(self) -> int:
        return self.test_stop - self.test_start

    @property
    def unit_id(self) -> str:
        """Stable string key used by the campaign database."""
        return f"p{self.point_index}:t{self.test_start}-{self.test_stop}"

    @classmethod
    def from_unit_id(cls, unit_id: str) -> "WorkUnit":
        """Invert :attr:`unit_id` — the key format is bidirectional so
        stores can recover a unit's coordinates from its string key."""
        m = _UNIT_ID_RE.match(unit_id)
        if m is None:
            raise ValueError(f"not a work-unit id: {unit_id!r}")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.unit_id


#: Target number of units per point: fine enough that a pool stays busy
#: even when there are fewer points than workers, coarse enough that one
#: unit amortises the per-unit IPC round trip over several full
#: simulated jobs.
UNITS_PER_POINT = 4


def default_unit_tests(tests_per_point: int) -> int:
    """Default tests per unit — deliberately independent of the worker
    count so unit layout (and checkpoint keys) survive ``--jobs``
    changes."""
    return max(1, -(-tests_per_point // UNITS_PER_POINT))


#: Recognised unit-layout version tags (see module docstring).
LAYOUTS = ("p1", "s1")


def make_units(
    n_points: int,
    tests_per_point: int,
    unit_tests: int | None = None,
    *,
    points: Sequence | None = None,
    layout: str = "p1",
) -> list[WorkUnit]:
    """Enumerate the campaign's work units in canonical order.

    ``layout="s1"`` requires the point list itself: units are
    enumerated by each point's ``site_key`` and ``unit_tests`` defaults
    to ``tests_per_point`` (one park serves the whole point).  The
    engine dispatches in execution order, not in this one.
    """
    if n_points < 0:
        raise ValueError(f"n_points must be >= 0, got {n_points}")
    if tests_per_point < 0:
        raise ValueError(f"tests_per_point must be >= 0, got {tests_per_point}")
    if layout not in LAYOUTS:
        raise ValueError(f"unknown unit layout {layout!r}; known: {LAYOUTS}")
    if layout == "s1":
        if points is None:
            raise ValueError("layout='s1' requires the points sequence")
        if len(points) != n_points:
            raise ValueError(
                f"points sequence has {len(points)} entries, expected {n_points}"
            )
        if unit_tests is None:
            unit_tests = max(1, tests_per_point)
    if unit_tests is None:
        unit_tests = default_unit_tests(tests_per_point)
    if unit_tests < 1:
        raise ValueError(f"unit_tests must be >= 1, got {unit_tests}")
    order = range(n_points)
    if layout == "s1":
        order = sorted(order, key=lambda pi: (points[pi].site_key, pi))
    units: list[WorkUnit] = []
    for pi in order:
        for start in range(0, tests_per_point, unit_tests):
            units.append(WorkUnit(pi, start, min(start + unit_tests, tests_per_point)))
    return units


def units_of_point(units: list[WorkUnit]) -> dict[int, list[WorkUnit]]:
    """Group units by point index, each group in test order."""
    grouped: dict[int, list[WorkUnit]] = {}
    for u in units:
        grouped.setdefault(u.point_index, []).append(u)
    for group in grouped.values():
        group.sort(key=lambda u: u.test_start)
    return grouped
