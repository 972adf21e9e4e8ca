"""Error-propagation analysis: the blast radius of a faulty collective.

The paper's introduction motivates FastFIT with "how errors propagate
between the application processes is largely unexplored"; the tool's
outcome taxonomy answers *whether* the application failed, and this
module adds *how far* the corruption travelled.

For a run that exits cleanly, the per-rank results are compared to the
golden run rank by rank: the **blast radius** of a fault injected on one
rank is the number of ranks whose result signature diverged.  Because
collectives are global, a single corrupted contribution can taint every
rank (allreduce) or exactly one (the root of a gather) — the propagation
pattern mirrors the collective's semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..apps.base import Application, signatures_match
from ..profiling.profiler import ApplicationProfile
from ..simmpi import SimMPIError, run_app
from .injector import FaultInjector
from .outcome import Outcome, classify_exception
from .space import FaultSpec, InjectionPoint
from .targets import pick_target


@dataclass
class PropagationResult:
    """Blast-radius observations for one injection point."""

    point: InjectionPoint
    nranks: int
    #: Per test: set of ranks whose final signature diverged (empty for
    #: clean-and-correct runs); ``None`` when the run aborted (the fault
    #: killed the job before results existed).
    tainted: list[frozenset[int] | None] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def completed(self) -> list[frozenset[int]]:
        return [t for t in self.tainted if t is not None]

    @property
    def mean_blast_radius(self) -> float:
        """Average number of tainted ranks over completed runs."""
        done = self.completed
        if not done:
            return 0.0
        return float(np.mean([len(t) for t in done]))

    @property
    def global_taint_rate(self) -> float:
        """Fraction of completed runs where *every* rank diverged."""
        done = self.completed
        if not done:
            return 0.0
        return sum(1 for t in done if len(t) == self.nranks) / len(done)

    @property
    def containment_rate(self) -> float:
        """Fraction of completed runs with no divergence at all."""
        done = self.completed
        if not done:
            return 0.0
        return sum(1 for t in done if not t) / len(done)


def tainted_ranks(
    app: Application, golden: list[Any], observed: list[Any]
) -> frozenset[int]:
    """Ranks whose result signature differs from the golden run."""
    return frozenset(
        r
        for r, (g, o) in enumerate(zip(golden, observed))
        if not signatures_match(g, o, app.rtol)
    )


def propagation_study(
    app: Application,
    profile: ApplicationProfile,
    point: InjectionPoint,
    tests: int = 20,
    param_policy: str = "sendbuf",
    seed: int = 0,
    budget_factor: int = 8,
) -> PropagationResult:
    """Measure how far faults injected at ``point`` propagate."""
    golden = profile.golden_results
    budget = max(profile.golden_steps * budget_factor, 50_000)
    result = PropagationResult(point, app.nranks)
    for t in range(tests):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        param = pick_target(rng, point.collective, param_policy)
        injector = FaultInjector(FaultSpec(point, param, None), rng)
        try:
            with np.errstate(all="ignore"):
                run = run_app(
                    app.main, app.nranks, instruments=[injector], step_budget=budget
                )
        except SimMPIError as exc:
            result.tainted.append(None)
            result.outcomes.append(classify_exception(exc))
            continue
        taint = tainted_ranks(app, golden, run.results)
        result.tainted.append(taint)
        result.outcomes.append(Outcome.SUCCESS if not taint else Outcome.WRONG_ANS)
    return result
