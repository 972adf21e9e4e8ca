"""Point-to-point fault injection — the paper's future-work extension.

The paper closes with: "Even though these techniques were tested only
on the collective operations …, it can be applied to other programming
elements of an HPC application, which is a part of our future work."
This module applies the same fault model (one bit flip in one input
parameter of one invocation) to ``MPI_Send``/``MPI_Recv``.

It mirrors the collective machinery: a profiler that records p2p call
sites/stacks, point enumeration, an injector instrument, and a campaign
runner — all reusing the Table I outcome classification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..apps.base import Application
from ..simmpi import Instrument, SimMPIError, run_app
from ..simmpi.calls import P2P_PARAMS, P2PCall
from ..simmpi.validation import resolve_datatype
from .bitflip import flip_int32, flip_int64
from .models import task_rng
from .outcome import OUTCOME_ORDER, Outcome, classify_exception

#: Parameter → machine representation for the p2p surface.
P2P_PARAM_KINDS: dict[str, str] = {
    "buf": "buffer",
    "count": "scalar",
    "datatype": "handle",
    "dest": "scalar",
    "source": "scalar",
    "tag": "scalar",
    "comm": "handle",
}


@dataclass(frozen=True, order=True)
class P2PInjectionPoint:
    """One (rank, p2p call site, invocation) triple."""

    rank: int
    kind: str  # "Send" | "Recv"
    site: str
    invocation: int

    @property
    def site_key(self) -> tuple[str, str]:
        return (self.kind, self.site)


@dataclass(frozen=True)
class P2PFaultSpec:
    point: P2PInjectionPoint
    param: str
    bit: int | None


class P2PProfiler(Instrument):
    """Records p2p call records (opts in to the mutable-record path)."""

    wants_p2p_calls = True

    def __init__(self):
        self.calls: list[P2PCall] = []

    def on_p2p_call(self, ctx, call: P2PCall) -> None:
        self.calls.append(
            P2PCall(
                rank=call.rank,
                kind=call.kind,
                site=call.site,
                stack=call.stack,
                invocation=call.invocation,
                seq=call.seq,
                phase=call.phase,
                args=dict(call.args),
            )
        )


def enumerate_p2p_points(calls: list[P2PCall]) -> list[P2PInjectionPoint]:
    """The p2p injection-point space of a profiled run."""
    return sorted(
        {P2PInjectionPoint(c.rank, c.kind, c.site, c.invocation) for c in calls}
    )


class P2PFaultInjector(Instrument):
    """Flips one bit in one p2p operation's parameters, once per run."""

    wants_p2p_calls = True

    def __init__(self, spec: P2PFaultSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self.fired = False
        self.bit: int | None = None

    def on_p2p_call(self, ctx, call: P2PCall) -> None:
        if self.fired:
            return
        p = self.spec.point
        if (
            call.rank != p.rank
            or call.kind != p.kind
            or call.site != p.site
            or call.invocation != p.invocation
        ):
            return
        param = self.spec.param
        kind = P2P_PARAM_KINDS[param]
        bit = self.spec.bit
        if kind == "scalar":
            if bit is None:
                bit = int(self.rng.integers(0, 32))
            call.args[param] = flip_int32(int(call.args[param]), bit)
        elif kind == "handle":
            if bit is None:
                bit = int(self.rng.integers(0, 64))
            call.args[param] = flip_int64(int(call.args[param]), bit)
        else:  # buffer contents
            dtype = resolve_datatype(ctx.runtime, call.args["datatype"], rank=ctx.rank)
            extent = int(call.args["count"]) * dtype.size
            if extent <= 0:
                self.fired = True
                return
            if bit is None:
                bit = int(self.rng.integers(0, extent * 8))
            ctx.memory.flip_bit(int(call.args["buf"]), bit)
        self.bit = bit
        self.fired = True


@dataclass
class P2PCampaignResult:
    """Aggregated p2p injection outcomes."""

    tests: list[tuple[P2PFaultSpec, Outcome]] = field(default_factory=list)

    def outcome_histogram(self) -> dict[Outcome, int]:
        counts = Counter(outcome for _, outcome in self.tests)
        return {o: counts.get(o, 0) for o in OUTCOME_ORDER}

    def by_param(self) -> dict[str, dict[Outcome, int]]:
        out: dict[str, Counter] = {}
        for spec, outcome in self.tests:
            out.setdefault(spec.param, Counter())[outcome] += 1
        return {
            param: {o: c.get(o, 0) for o in OUTCOME_ORDER}
            for param, c in sorted(out.items())
        }

    @property
    def error_rate(self) -> float:
        if not self.tests:
            return 0.0
        return sum(1 for _, o in self.tests if o.is_error) / len(self.tests)


def profile_p2p(app: Application) -> tuple[list[P2PCall], list, int]:
    """Profile an app's p2p surface; returns (calls, golden, steps)."""
    profiler = P2PProfiler()
    result = run_app(app.main, app.nranks, instruments=[profiler])
    return profiler.calls, result.results, result.steps


def p2p_campaign(
    app: Application,
    points: list[P2PInjectionPoint],
    tests_per_point: int = 20,
    seed: int = 0,
    golden: list | None = None,
    golden_steps: int | None = None,
    budget_factor: int = 8,
) -> P2PCampaignResult:
    """Bit-flip campaign over p2p injection points.

    Parameters are drawn uniformly from the operation's schema; outcome
    classification reuses Table I.
    """
    if golden is None or golden_steps is None:
        _, golden, golden_steps = profile_p2p(app)
    budget = max(golden_steps * budget_factor, 50_000)
    result = P2PCampaignResult()
    for i, point in enumerate(points):
        params = P2P_PARAMS[point.kind]
        for t in range(tests_per_point):
            rng = task_rng(seed, i, t)
            param = params[int(rng.integers(0, len(params)))]
            spec = P2PFaultSpec(point, param, None)
            injector = P2PFaultInjector(spec, rng)
            try:
                with np.errstate(all="ignore"):
                    run = run_app(
                        app.main, app.nranks, instruments=[injector], step_budget=budget
                    )
            except SimMPIError as exc:
                result.tests.append((spec, classify_exception(exc)))
                continue
            ok = app.compare(golden, run.results)
            result.tests.append((spec, Outcome.SUCCESS if ok else Outcome.WRONG_ANS))
    return result
