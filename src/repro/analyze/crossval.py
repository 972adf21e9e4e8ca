"""Static-vs-dynamic cross-validation of the pre-classifier.

Every :class:`~repro.analyze.preclassify.Prediction` claims a test's
outcome is provable without running it.  This module is the referee: it
replays the exact campaign randomness for a sampled subset of predicted
tests, runs them for real through :class:`repro.injection.runner.
InjectionRunner` (the same harness the campaign uses), and reports any
disagreement.  The analyze CI job fails on a single mismatch — an
unsound rule in :mod:`repro.analyze.preclassify` is a correctness bug,
not a tolerable approximation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..apps.base import Application
from ..injection.models import draw_task
from ..injection.outcome import Outcome
from ..injection.runner import InjectionRunner
from ..injection.space import InjectionPoint, enumerate_points
from ..profiling.profiler import profile_application
from .matching import MatchReport, check_skeleton
from .preclassify import PreClassifier, predict_tests
from .skeleton import Skeleton, extract_skeleton


@dataclass(frozen=True, slots=True)
class Mismatch:
    """A prediction the live simulator contradicted."""

    point: InjectionPoint
    test_index: int
    param: str
    rule: str
    predicted: Outcome
    actual: Outcome
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.point.collective}@{self.point.site} rank {self.point.rank} "
            f"inv {self.point.invocation} test {self.test_index} ({self.param}): "
            f"predicted {self.predicted.value} [{self.rule}], got {self.actual.value}"
        )


@dataclass
class CrossValidation:
    """Result of one cross-validation sweep over an app's fault space."""

    app_name: str
    tests_per_point: int
    param_policy: str
    seed: int
    sample: float
    n_points: int = 0
    n_tests: int = 0
    n_predicted: int = 0
    n_checked: int = 0
    rules: Counter = field(default_factory=Counter)
    mismatches: list[Mismatch] = field(default_factory=list)
    match_report: MatchReport | None = None

    @property
    def coverage(self) -> float:
        """Fraction of the fault space resolved without execution."""
        return self.n_predicted / self.n_tests if self.n_tests else 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        lines = [
            f"cross-validation: {self.app_name} "
            f"({self.n_points} points × {self.tests_per_point} tests, "
            f"policy={self.param_policy!r}, seed={self.seed})",
            f"  statically resolved: {self.n_predicted}/{self.n_tests} "
            f"tests ({self.coverage:.1%})",
            f"  dynamically checked: {self.n_checked} "
            f"(sample={self.sample:g})",
        ]
        for rule, n in self.rules.most_common():
            lines.append(f"    {rule}: {n}")
        if self.mismatches:
            lines.append(f"  MISMATCHES: {len(self.mismatches)}")
            lines.extend(f"    {m}" for m in self.mismatches)
        else:
            lines.append("  mismatches: 0")
        return "\n".join(lines)


def cross_validate(
    app: Application,
    *,
    seed: int = 0,
    tests_per_point: int = 25,
    param_policy: str = "all",
    sample: float = 1.0,
    algorithms: dict[str, str] | None = None,
    skeleton: Skeleton | None = None,
) -> CrossValidation:
    """Classify the app's whole fault space and verify a sampled subset.

    ``sample`` is the fraction of *predicted* tests to re-run
    dynamically (1.0 = every one); sampling is a deterministic stride,
    so two runs with the same arguments check the same tests.
    """
    if not 0.0 < sample <= 1.0:
        raise ValueError(f"sample must be in (0, 1], got {sample}")
    if skeleton is None:
        skeleton = extract_skeleton(app, algorithms=algorithms)
    report = check_skeleton(skeleton)
    cv = CrossValidation(
        app.name, tests_per_point, param_policy, seed, sample,
        match_report=report,
    )
    if not report.ok:
        # The pre-classifier's truncate rules assume cross-rank count
        # equalities that only hold for a checker-clean skeleton.
        raise ValueError(
            f"skeleton of {app.name!r} fails the matching checker; "
            f"refusing to pre-classify:\n{report.describe()}"
        )
    profile = profile_application(app, algorithms=algorithms)
    points = enumerate_points(profile)
    cv.n_points = len(points)
    runner = InjectionRunner(app, profile, algorithms=algorithms)
    pre = PreClassifier(skeleton, seed=seed, param_policy=param_policy)

    stride = max(1, round(1.0 / sample))
    for i, t, point, prediction in predict_tests(pre, points, tests_per_point):
        cv.n_tests += 1
        if prediction is None:
            continue
        cv.n_predicted += 1
        cv.rules[prediction.rule] += 1
        if (cv.n_predicted - 1) % stride:
            continue
        # Rebuild the campaign's rng stream from scratch so the dynamic
        # run consumes draws exactly like the unit executor does.
        spec, rng = draw_task(point, seed, i, t, policy=param_policy)
        param = spec.param
        assert param == prediction.param, "draw replay diverged"
        result = runner.run_one(spec, rng)
        cv.n_checked += 1
        if result.outcome is not prediction.outcome:
            cv.mismatches.append(
                Mismatch(
                    point, t, param, prediction.rule,
                    prediction.outcome, result.outcome, result.detail,
                )
            )
    return cv
