"""Fork-equivalence oracle for the snapshot-and-fork engine.

The snapshot engine (:mod:`repro.snapshot`) promises that a test served
by forking a parked fault-free prefix is indistinguishable from the same
test replayed from t=0.  This module reifies that promise: it runs the
same batch of tests both ways, reduces each stream to a content
fingerprint (every fault spec, outcome, injection record, and detail
string participates), and compares.

With a seeded ``snapshot`` mutant (:mod:`repro.verify.mutants`)
installed around the serving, the expectation inverts — the defect must
*change* the forked fingerprint of every pass it names, proving the
oracle can see a broken engine.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..apps.base import Application
from ..exec.sharding import WorkUnit
from ..exec.supervisor import WorkerState
from ..injection.models import draw_task
from ..injection.runner import InjectionRunner, TestResult
from ..injection.space import FaultSpec, InjectionPoint, enumerate_points
from ..profiling.profiler import ApplicationProfile, profile_application
from ..snapshot import SnapshotCache, SnapshotEngine
from ..snapshot.engine import task_slots
from ..steer.stopping import SequentialStopper
from .replay import fingerprint


class _Forking(SnapshotEngine):
    """The engine with its park-or-replay decision pinned to "fork":
    what the oracle checks is the fork path, on however shallow a point."""

    def fork_pays(self, prefix_s: float) -> bool:
        return True


class _Alternating(SnapshotEngine):
    """Fork, replay, fork, ... test by test, whatever the prefix cost."""

    forked = False

    def fork_pays(self, prefix_s: float) -> bool:
        self.forked = not self.forked
        return self.forked


class _ThreeForksThenReplay(SnapshotEngine):
    """Fork, fork, fork, replay, ... test by test over the engine's life,
    so a replay lands after forks still in flight."""

    decisions = 0

    def fork_pays(self, prefix_s: float) -> bool:
        self.decisions += 1
        return self.decisions % 4 != 0


#: The eight ways every point is served: ``cold`` — a list on an empty
#: cache (park + capture); ``fast-forward`` — the same list again (cache
#: hit; under a mutant nothing is cached, so a second cold park: a
#: snapshot captured before a defect struck would hide it);
#: ``lazy`` — a generator on a fresh engine that yields test *k+1* only
#: once result *k* was delivered, so an engine that pulls ahead of its
#: deliveries redraws a test; ``walk`` — all points as one unit stream,
#: which is how a campaign is served: in execution order (one fault-free
#: run walks from park to park) and reversed (every unit restarts).
#: Those four fork every test (:class:`_Forking`); ``mixed`` is the lazy
#: pass on an engine that alternates fork and in-park replay test by test
#: (:class:`_Alternating`), as a park whose prefix costs about one fork does.
#: All five run one child at a time (``width=1``) on any core count, so
#: each checks one thing.  ``pipelined`` serves the lists on one engine
#: with three children in flight that forks three tests and replays the
#: fourth (:class:`_ThreeForksThenReplay`): a replay waits for the
#: children before it.  ``stopped`` serves each point as a work unit with
#: a sequential stopper (:data:`STOPPER`) through
#: :meth:`~repro.exec.supervisor.WorkerState.execute` on a forking engine
#: with three children in flight, and is compared with scratch cut where
#: a serial loop consulting the stopper stops.  ``decided`` serves each
#: point's list drawn under :data:`DECIDED_POLICY` on a forking engine,
#: so handle, count and root strikes that the collective's entry checks
#: reject are decided in the park; it is compared with scratch under that
#: policy.  The other passes, :data:`FORK_PASSES`, draw under the
#: oracle's ``param_policy`` (default ``buffer``: every strike forks or
#: replays).
FORK_PASSES = ("cold", "fast-forward", "lazy", "walk", "mixed", "pipelined", "stopped")
PASSES = FORK_PASSES + ("decided",)

#: The ``decided`` pass's policy: every parameter of the collective.
DECIDED_POLICY = "all"

#: The ``stopped`` pass's stopper: it stops a point whose first two
#: responses agree, so an oracle point is cut before its last test
#: whenever there are three or more per point, and it is certain of two
#: tests from the start, so their forks overlap.
STOPPER = SequentialStopper(ci_width=0.7, min_tests=2)


def _test_signature(t: TestResult) -> tuple:
    rec = t.record
    record = (
        None
        if rec is None
        else (rec.param, rec.kind, rec.bit, rec.skipped, rec.before, rec.after)
    )
    return (repr(t.spec.point), t.spec.param, t.spec.bit, t.outcome.name,
            record, t.detail)


def _stream_signature(stream: list[list[TestResult]]) -> list[list[tuple]]:
    return [[_test_signature(t) for t in tests] for tests in stream]


@dataclass
class ForkEquivalenceReport:
    """Outcome of one fork-equivalence comparison."""

    app_name: str
    n_points: int
    n_tests: int
    scratch_fingerprint: str
    #: Forked-stream fingerprint of each pass served, by name (see
    #: :data:`PASSES`).
    forked_fingerprints: dict[str, str]
    #: Scratch cut where a serial loop consulting :data:`STOPPER`
    #: stops: what the ``stopped`` pass is compared with.
    stopped_fingerprint: str = ""
    #: Points that scratch cut is before their last test.
    n_cut: int = 0
    #: Scratch under :data:`DECIDED_POLICY`: what the ``decided`` pass
    #: is compared with.
    decided_fingerprint: str = ""
    #: Human-readable divergences (first few points that differ).
    mismatches: list[str] = field(default_factory=list)

    def reference(self, name: str) -> str:
        """The scratch fingerprint pass ``name`` must equal."""
        return {"stopped": self.stopped_fingerprint, "decided": self.decided_fingerprint}.get(
            name, self.scratch_fingerprint
        )

    @property
    def diverged(self) -> list[str]:
        """The passes whose forked stream differs from scratch."""
        return [
            name for name, fp in self.forked_fingerprints.items()
            if fp != self.reference(name)
        ]

    @property
    def identical(self) -> bool:
        return not self.diverged

    def describe(self) -> str:
        base = (
            f"fork-equivalence: {self.app_name}, {self.n_points} points × "
            f"{self.n_tests} tests"
        )
        verdict = (
            f"forked == scratch (bit-identical; {', '.join(self.forked_fingerprints)})"
            if self.identical
            else "DIVERGED"
        )
        lines = [f"{base}: {verdict}"]
        lines.extend(f"  {m}" for m in self.mismatches[:10])
        return "\n".join(lines)


def fork_equivalence(
    app: Application,
    *,
    seed: int = 0,
    tests_per_point: int = 4,
    max_points: int = 4,
    param_policy: str = "buffer",
    passes: Sequence[str] = PASSES,
    mutant: str | None = None,
    profile: ApplicationProfile | None = None,
) -> ForkEquivalenceReport:
    """Compare forked and from-scratch test streams over one workload.

    Points are a deterministic spread over the enumerated space (first,
    last, and evenly between — early and late invocations both
    represented).  Every point is served by each of ``passes`` (default
    all of :data:`PASSES`) and each pass is compared with scratch on its
    own.  ``mutant`` names a seeded defect installed while the passes are
    served (scratch runs without it), on engines that cache no snapshot.
    """
    from .mutants import installed_mutant  # local: the registry imports PASSES

    unknown = sorted(set(passes) - set(PASSES))
    if unknown:
        raise ValueError(f"unknown passes {unknown}; choices: {', '.join(PASSES)}")
    if profile is None:
        profile = profile_application(app)
    runner = InjectionRunner(app, profile)
    space = enumerate_points(profile)
    if not space:
        raise ValueError(f"no injection points for {app.name}")
    n = min(max_points, len(space))
    idx = sorted({round(i * (len(space) - 1) / max(1, n - 1)) for i in range(n)})
    points: list[InjectionPoint] = [space[i] for i in idx]

    def tasks_for(pi: int, policy: str = param_policy) -> list[tuple[FaultSpec, np.random.Generator]]:
        return [
            draw_task(points[pi], seed, pi, t, policy=policy)
            for t in range(tests_per_point)
        ]

    def scratch_for(policy: str) -> list[list[TestResult]]:
        return [
            [runner.run_one(spec, rng) for spec, rng in tasks_for(pi, policy)]
            for pi in range(len(points))
        ]

    scratch = scratch_for(param_policy)
    decided = scratch_for(DECIDED_POLICY) if "decided" in passes else []

    def lazily(pi: int, delivered: list[TestResult]):
        # The next test is drawn when pulled, from what has been delivered
        # by then — an engine pulling ahead of its deliveries redraws a
        # test and diverges.
        for _ in range(tests_per_point):
            yield draw_task(points[pi], seed, pi, len(delivered), policy=param_policy)

    def cut(tests: list[TestResult]) -> list[TestResult]:
        """``tests`` up to where a serial loop consulting STOPPER stops."""
        return next(
            (tests[:n] for n in range(len(tests)) if STOPPER.should_stop(tests[:n])), tests
        )

    def new_engine(kind, runner, width: int) -> SnapshotEngine:
        return kind(runner, cache=SnapshotCache(0) if mutant else None, width=width)

    def serve_all() -> dict[str, list[list[TestResult]]]:
        batch, lazy = new_engine(_Forking, runner, 1), new_engine(_Forking, runner, 1)
        mixed = new_engine(_Alternating, runner, 1)
        pipelined = new_engine(_ThreeForksThenReplay, runner, 3)
        deciding = new_engine(_Forking, runner, 1)
        stopped = WorkerState(app, profile, param_policy, seed, None, stopper=STOPPER)
        stopped.engine = new_engine(_Forking, stopped.runner, 3)
        out: dict[str, list[list[TestResult]]] = {name: [] for name in passes}
        for pi, point in enumerate(points):
            if "cold" in out:
                out["cold"].append(batch.serve_point(point, tasks_for(pi)))
            if "fast-forward" in out:
                out["fast-forward"].append(batch.serve_point(point, tasks_for(pi)))
            for name, engine in (("lazy", lazy), ("mixed", mixed)):
                if name in out:
                    delivered: list[TestResult] = []
                    engine.serve_point(point, lazily(pi, delivered), on_result=delivered.append)
                    out[name].append(delivered)
            if "pipelined" in out:
                out["pipelined"].append(pipelined.serve_point(point, tasks_for(pi)))
            if "stopped" in out:
                out["stopped"].append(
                    stopped.execute(WorkUnit(pi, 0, tests_per_point), point)[1]
                )
            if "decided" in out:
                out["decided"].append(deciding.serve_point(point, tasks_for(pi, DECIDED_POLICY)))
        if "walk" in out:
            # A point's walk stream is what the execution-order stream
            # served there, followed by the reversed stream's results if
            # they differ.
            reached = profile.comm.execution_key()
            walk = sorted(range(len(points)), key=lambda pi: reached(points[pi]))
            for sequence in (walk, walk[::-1]):
                served: list[list[TestResult]] = [[] for _ in points]
                new_engine(_Forking, runner, 1).serve(
                    (points[pi], task_slots(tasks_for(pi), served[pi]), served[pi].append,
                     lambda: None, None)
                    for pi in sequence
                )
                out["walk"] = [
                    kept if _stream_signature([kept]) == _stream_signature([tests])
                    else kept + tests
                    for kept, tests in zip(out["walk"] or served, served)
                ]
        return out

    with installed_mutant(mutant) if mutant else nullcontext():
        forked = serve_all()

    stopped = [cut(tests) for tests in scratch]
    stopped_sig = _stream_signature(stopped)
    scratch_sig = _stream_signature(scratch)
    decided_sig = _stream_signature(decided)
    references = {"stopped": stopped_sig, "decided": decided_sig}
    forked_sigs = {name: _stream_signature(stream) for name, stream in forked.items()}
    mismatches = [
        f"{points[pi]}: {name} forked stream differs from scratch"
        for name, sig in forked_sigs.items()
        for pi in range(len(points))
        if references.get(name, scratch_sig)[pi] != sig[pi]
    ]
    return ForkEquivalenceReport(
        app_name=app.name,
        n_points=len(points),
        n_tests=tests_per_point,
        scratch_fingerprint=fingerprint(scratch_sig),
        forked_fingerprints={name: fingerprint(sig) for name, sig in forked_sigs.items()},
        stopped_fingerprint=fingerprint(stopped_sig),
        decided_fingerprint=fingerprint(decided_sig),
        n_cut=sum(len(kept) < len(tests) for kept, tests in zip(stopped, scratch)),
        mismatches=mismatches,
    )
