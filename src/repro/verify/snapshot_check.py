"""Fork-equivalence oracle for the snapshot-and-fork engine.

The snapshot engine (:mod:`repro.snapshot`) promises that a test served
by forking a parked fault-free prefix is indistinguishable from the same
test replayed from t=0.  This module reifies that promise: it runs the
same batch of tests both ways, reduces each stream to a content
fingerprint (every fault spec, outcome, injection record, and detail
string participates), and compares.

With a seeded snapshot mutant armed (:mod:`repro.snapshot.mutants`) the
expectation inverts — the defect must *change* the forked fingerprint,
proving the oracle can see a broken engine.  A mutant the comparison
cannot detect is itself a verification failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..apps.base import Application
from ..injection.models import draw_task
from ..injection.runner import InjectionRunner, TestResult
from ..injection.space import FaultSpec, InjectionPoint, enumerate_points
from ..profiling.profiler import ApplicationProfile, profile_application
from ..snapshot import SnapshotEngine, seeded_snapshot_mutant
from .replay import fingerprint


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
    forked_fingerprint: str
    #: Armed engine defect, or None for the plain equivalence check.
    mutant: str | None = None
    #: Human-readable divergences (first few points that differ).
    mismatches: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.scratch_fingerprint == self.forked_fingerprint

    @property
    def ok(self) -> bool:
        """Clean run ⇒ streams must match; mutant run ⇒ must differ."""
        return self.identical if self.mutant is None else not self.identical

    def describe(self) -> str:
        base = (
            f"fork-equivalence: {self.app_name}, {self.n_points} points × "
            f"{self.n_tests} tests"
        )
        if self.mutant is not None:
            verdict = (
                "DETECTED (oracle has teeth)"
                if not self.identical
                else "NOT DETECTED — oracle failure"
            )
            return f"{base}, mutant {self.mutant!r}: {verdict}"
        verdict = "forked == scratch (bit-identical)" if self.identical else "DIVERGED"
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
    mutant: str | None = None,
    profile: ApplicationProfile | None = None,
) -> ForkEquivalenceReport:
    """Compare forked and from-scratch test streams over one workload.

    Points are a deterministic spread over the enumerated space (first,
    last, and evenly between — early and late invocations both
    represented).  Every point is served through the engine **twice**,
    so both the cold path (park + capture) and the snapshot fast-forward
    path are covered by the comparison.
    """
    if profile is None:
        profile = profile_application(app)
    runner = InjectionRunner(app, profile)
    space = enumerate_points(profile)
    if not space:
        raise ValueError(f"no injection points for {app.name}")
    n = min(max_points, len(space))
    idx = sorted({round(i * (len(space) - 1) / max(1, n - 1)) for i in range(n)})
    points: list[InjectionPoint] = [space[i] for i in idx]

    def tasks_for(pi: int) -> list[tuple[FaultSpec, np.random.Generator]]:
        return [
            draw_task(points[pi], seed, pi, t, policy=param_policy)
            for t in range(tests_per_point)
        ]

    scratch = [
        [runner.run_one(spec, rng) for spec, rng in tasks_for(pi)]
        for pi in range(len(points))
    ]

    engine = SnapshotEngine(runner)

    def serve_all() -> list[list[TestResult]]:
        out = []
        for _pass in range(2):  # cold park, then snapshot fast-forward
            out = [
                engine.serve_point(points[pi], tasks_for(pi))
                for pi in range(len(points))
            ]
        return out

    if mutant is not None:
        with seeded_snapshot_mutant(mutant):
            forked = serve_all()
    else:
        forked = serve_all()

    scratch_sig = _stream_signature(scratch)
    forked_sig = _stream_signature(forked)
    mismatches = [
        f"{points[pi]}: forked stream differs from scratch"
        for pi in range(len(points))
        if scratch_sig[pi] != forked_sig[pi]
    ]
    return ForkEquivalenceReport(
        app_name=app.name,
        n_points=len(points),
        n_tests=tests_per_point,
        scratch_fingerprint=fingerprint(scratch_sig),
        forked_fingerprint=fingerprint(forked_sig),
        mutant=mutant,
        mismatches=mismatches,
    )
