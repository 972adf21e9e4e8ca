"""Profiling-phase orchestration (FastFIT architecture, § IV-B).

``profile_application`` runs the workload once with the communication
profiler attached — using the *same problem* as the later fault
injection runs, as the paper requires — and assembles an
:class:`ApplicationProfile`: call records, per-rank call graphs,
communication traces, per-site summaries, and the job-end handle
tables the static analysis builds its skeleton from.  The profiling
cost is a one-time cost reused by every injection campaign and by the
static analysis: it is the only fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..apps.base import Application
from ..simmpi import SimMPI, SimMPIError
from ..simmpi.handles import HandleTable, snapshot_tables
from ..simmpi.memory import ARENA_BASE
from .callgraph import CallGraph, build_callgraph
from .callstack import average_depth, distinct_stacks, group_by_stack
from .comm_profile import CallInfo, CommProfile, CommProfiler


@dataclass
class SiteSummary:
    """Per-(rank, site) aggregate used for features and pruning."""

    rank: int
    name: str
    site: str
    n_invocations: int
    n_diff_stacks: int
    avg_stack_depth: float
    stack_groups: dict[tuple[str, ...], list[int]]
    phases: dict[int, str]  # invocation -> phase
    comm_group: tuple[int, ...]
    root_world: int | None

    @property
    def site_key(self) -> tuple[str, str]:
        return (self.name, self.site)


@dataclass
class ApplicationProfile:
    """The complete profiling-phase output."""

    app_name: str
    nranks: int
    comm: CommProfile
    #: The golden run's job-end handle tables (datatype / op / comm),
    #: arena layout and collective algorithms: with ``comm.calls``, the
    #: collective skeleton (:func:`repro.analyze.skeleton_from_profile`).
    datatypes: HandleTable
    reduce_ops: HandleTable
    comms: HandleTable
    arena_size: int
    algorithms: dict[str, str]
    callgraphs: dict[int, CallGraph] = field(default_factory=dict)
    summaries: dict[tuple[int, tuple[str, str]], SiteSummary] = field(default_factory=dict)
    golden_results: list[Any] = field(default_factory=list)
    golden_steps: int = 0
    arena_base: int = ARENA_BASE

    def summary(self, rank: int, site_key: tuple[str, str]) -> SiteSummary:
        return self.summaries[(rank, site_key)]

    def sites_of_rank(self, rank: int) -> list[SiteSummary]:
        return sorted(
            (s for (r, _), s in self.summaries.items() if r == rank),
            key=lambda s: s.site_key,
        )

    def total_injection_points(self) -> int:
        """The unpruned exploration-space size: every invocation of every
        call site on every rank (paper § II)."""
        return sum(s.n_invocations for s in self.summaries.values())


def _summarise(calls: list[CallInfo]) -> SiteSummary:
    stacks = [c.stack for c in calls]
    first = calls[0]
    return SiteSummary(
        rank=first.rank,
        name=first.name,
        site=first.site,
        n_invocations=len(calls),
        n_diff_stacks=distinct_stacks(stacks),
        avg_stack_depth=average_depth(stacks),
        stack_groups=group_by_stack((c.invocation, c.stack) for c in calls),
        phases={c.invocation: c.phase for c in calls},
        comm_group=first.comm_group,
        root_world=first.root_world,
    )


def golden_run(
    app: Application,
    step_budget: int | None = None,
    algorithms: dict[str, str] | None = None,
) -> tuple[ApplicationProfile, SimMPIError | None]:
    """Run ``app`` once under the profiler; return its profile and the
    error that aborted the run (``None`` for a clean run).

    A failed run's profile holds the calls recorded before the failure
    and the handle tables at that moment (no results, no step count).
    """
    profiler = CommProfiler()
    kwargs = {} if step_budget is None else {"step_budget": step_budget}
    runtime = SimMPI(app.nranks, algorithms=algorithms, **kwargs)
    error: SimMPIError | None = None
    try:
        result = runtime.run(app.main, instruments=[profiler])
    except SimMPIError as err:
        error, result = err, None
    datatypes, reduce_ops, comms = snapshot_tables(runtime)
    profile = ApplicationProfile(
        app_name=app.name,
        nranks=app.nranks,
        comm=profiler.profile,
        golden_results=result.results if result is not None else [],
        golden_steps=result.steps if result is not None else 0,
        datatypes=datatypes,
        reduce_ops=reduce_ops,
        comms=comms,
        arena_size=runtime.arena_size,
        algorithms=dict(runtime.algorithms),
    )

    by_rank_site: dict[tuple[int, tuple[str, str]], list[CallInfo]] = {}
    for call in profiler.profile.calls:
        by_rank_site.setdefault((call.rank, call.site_key), []).append(call)
    for key, calls in by_rank_site.items():
        calls.sort(key=lambda c: c.invocation)
        profile.summaries[key] = _summarise(calls)

    for rank in range(app.nranks):
        stacks = [c.stack for c in profiler.profile.calls_by_rank(rank)]
        profile.callgraphs[rank] = build_callgraph(stacks)

    return profile, error


def profile_application(
    app: Application,
    step_budget: int | None = None,
    algorithms: dict[str, str] | None = None,
) -> ApplicationProfile:
    """Run ``app`` once under the profiler and build its profile.

    The run doubles as the golden run: its per-rank results are the
    reference for ``WRONG_ANS`` classification, and its event count
    calibrates the injection runs' hang budget.  ``algorithms`` selects
    collective implementations (must match the later injection runs).
    A failed run raises its error.
    """
    profile, error = golden_run(app, step_budget, algorithms)
    if error is not None:
        raise error
    return profile
