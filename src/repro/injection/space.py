"""Fault-injection point enumeration.

Following § II of the paper, a fault injection *point* is one invocation
of one collective call site on one rank; a fault injection *test* is a
point plus a concrete fault (:class:`FaultSpec`).  The unpruned space is the
cross product over ranks × sites × invocations — 618,496 points for the
paper's small LAMMPS deployment, which is exactly why pruning matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiling.profiler import ApplicationProfile


@dataclass(frozen=True, order=True)
class InjectionPoint:
    """One (rank, call site, invocation) triple."""

    rank: int
    collective: str
    site: str
    invocation: int

    @property
    def site_key(self) -> tuple[str, str]:
        return (self.collective, self.site)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.collective}@{self.site}#inv{self.invocation}@rank{self.rank}"


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault: where (point), under which model, and what.

    ``model`` names an entry in :data:`repro.injection.models.MODELS`;
    the default is the paper's single bit flip.  The knobs after it
    keep their defaults when a model does not use them.

    ``param``
        the corrupted parameter (``"payload"`` for wire models,
        ``"rank"`` for rank models, ``""`` for scenarios);
    ``bit``
        the bit to flip, ``None`` to draw one from the test's RNG.  For
        buffer parameters it is a flat bit offset into the buffer
        contents; for scalars/handles a bit index of the value; for
        vector parameters the pair ``(element, bit)`` is packed as
        ``element * 32 + bit``.  A pinned bit outside the parameter
        lands as a skipped injection;
    ``width``
        adjacent bits for ``multibit``/``msg_corrupt`` bursts
        (0 = draw from the test's RNG);
    ``count``
        messages hit by a wire fault (default 1);
    ``weight``
        steps a ``rank_stall`` charges to the deadline budget
        (0 = unbounded, i.e. past the whole budget → ``INF_LOOP``);
    ``scenario``
        the timeline for ``model == "scenario"`` tests.
    """

    point: InjectionPoint
    param: str
    bit: int | None = None
    model: str = "bitflip"
    width: int = 0
    count: int = 1
    weight: int = 0
    scenario: "object | None" = None


def enumerate_points(profile: ApplicationProfile) -> list[InjectionPoint]:
    """The full, unpruned injection-point space of a profiled run."""
    points: list[InjectionPoint] = []
    for (rank, (name, site)), summary in sorted(profile.summaries.items()):
        for invocation in range(summary.n_invocations):
            points.append(InjectionPoint(rank, name, site, invocation))
    return points


def points_per_site(points: list[InjectionPoint]) -> dict[tuple[str, str], list[InjectionPoint]]:
    """Group points by static call site."""
    by_site: dict[tuple[str, str], list[InjectionPoint]] = {}
    for pt in points:
        by_site.setdefault(pt.site_key, []).append(pt)
    return by_site
