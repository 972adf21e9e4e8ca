"""The FastFIT facade — profiling, pruning, injection, learning.

Mirrors the tool architecture of the paper's Fig. 5: a profiling phase
(communication profile, call graphs, call stacks), a pruning stage
(semantic + application context), and the coupled injection/learning
loop, with a Table III-style summary at the end.

Typical use::

    from repro import FastFIT
    ff = FastFIT.for_app("lammps", "T", tests_per_point=30)
    report = ff.run(threshold=0.65)
    print(report.describe())
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .analysis.reports import render_table
from .apps.base import Application
from .apps.registry import make_app
from .injection.campaign import Campaign, CampaignConfig, CampaignResult
from .injection.space import InjectionPoint, enumerate_points
from .obs.metrics import MetricsRegistry
from .profiling.profiler import ApplicationProfile, profile_application
from .pruning.context import ContextSelection, select_context
from .pruning.mldriven import Labeler
from .pruning.semantic import SemanticSelection, select_semantic

if TYPE_CHECKING:
    from .steer import SteeringResult

logger = logging.getLogger("repro.fastfit")


@dataclass
class PruningReport:
    """Exploration-space reduction from the two static techniques."""

    total_points: int
    semantic: SemanticSelection
    context: ContextSelection

    @property
    def representative_points(self) -> list[InjectionPoint]:
        return self.context.selected_points_list

    @property
    def semantic_reduction(self) -> float:
        """The "MPI" column of Table III."""
        return self.semantic.reduction

    @property
    def context_reduction(self) -> float:
        """The "App" column: further reduction over the semantic
        survivors."""
        return self.context.reduction

    @property
    def combined_reduction(self) -> float:
        if self.total_points == 0:
            return 0.0
        return 1.0 - len(self.representative_points) / self.total_points


@dataclass
class FastFITReport:
    """End-to-end result of one FastFIT study."""

    app_name: str
    pruning: PruningReport
    ml: SteeringResult | None = None
    campaign: CampaignResult | None = None

    @property
    def ml_reduction(self) -> float | None:
        """The "ML" column of Table III (``None`` = not applied)."""
        return self.ml.test_reduction if self.ml is not None else None

    @property
    def total_reduction(self) -> float:
        """The "Total" column: fraction of the unpruned point space whose
        tests never ran."""
        total = self.pruning.total_points
        if total == 0:
            return 0.0
        if self.ml is not None:
            tested = len(self.ml.tested)
        else:
            tested = len(self.pruning.representative_points)
        return 1.0 - tested / total

    def table3_row(self) -> dict[str, float | None]:
        return {
            "MPI": self.pruning.semantic_reduction,
            "App": self.pruning.context_reduction,
            "ML": self.ml_reduction,
            "Total": self.total_reduction,
        }

    def describe(self) -> str:
        row = self.table3_row()
        cells = [
            self.app_name,
            f"{row['MPI'] * 100:.2f}%",
            f"{row['App'] * 100:.2f}%",
            "NA" if row["ML"] is None else f"{row['ML'] * 100:.2f}%",
            f"{row['Total'] * 100:.2f}%",
        ]
        return render_table(["App", "MPI", "App-ctx", "ML", "Total"], [cells])


class FastFIT:
    """Fast Fault Injection and Sensitivity Analysis Tool."""

    def __init__(
        self,
        app: Application,
        config: CampaignConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        progress_sinks=None,
        **fields,
    ):
        self.app = app
        #: Every campaign option (:class:`CampaignConfig`): ``config``
        #: with ``fields`` replaced, validated once here.
        self.config = replace(config or CampaignConfig(), **fields)
        #: Every phase records into this registry (``phase.*`` timers,
        #: ``prune.*``/``campaign.*``/``steer.*`` from the stages, plus the
        #: supervision counters ``exec.retries``/``exec.worker_deaths``/
        #: ``exec.quarantined``).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional :class:`~repro.obs.events.Tracer` for supervision events.
        self.tracer = tracer
        #: :class:`~repro.obs.progress.ProgressSink` consumers fed live
        #: campaign telemetry.
        self.progress_sinks = list(progress_sinks or [])
        self._profile: ApplicationProfile | None = None
        self._pruning: PruningReport | None = None
        self._preclassifier = None

    def __getattr__(self, name: str):
        # Campaign options read through the config: ``ff.seed``,
        # ``ff.tests_per_point``, ``ff.jobs`` …
        config = self.__dict__.get("config")
        if config is not None and name in CampaignConfig.__dataclass_fields__:
            return getattr(config, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @classmethod
    def for_app(cls, name: str, problem_class: str = "T", **kwargs) -> "FastFIT":
        return cls(make_app(name, problem_class), **kwargs)

    # -- phases -----------------------------------------------------------

    def profile(self) -> ApplicationProfile:
        """Profiling phase (one-time cost, cached)."""
        if self._profile is None:
            logger.info("profiling %s (%d ranks)", self.app.name, self.app.nranks)
            with self.metrics.time("phase.profile_s"):
                self._profile = profile_application(self.app)
            logger.info("profile done: %d golden steps", self._profile.golden_steps)
        return self._profile

    def prune(self) -> PruningReport:
        """Semantic + application-context pruning (cached)."""
        if self._pruning is None:
            profile = self.profile()
            with self.metrics.time("phase.prune_s"):
                semantic = select_semantic(profile, metrics=self.metrics)
                context = select_context(
                    profile, semantic.selected_points_list, metrics=self.metrics
                )
                self._pruning = PruningReport(
                    total_points=len(enumerate_points(profile)),
                    semantic=semantic,
                    context=context,
                )
            logger.info(
                "pruning: %d points -> %d semantic -> %d representatives",
                self._pruning.total_points,
                semantic.selected_points,
                context.selected_points,
            )
        return self._pruning

    def preclassifier(self):
        """The static fault-outcome pre-classifier (cached).

        Extracts the collective skeleton and verifies it with the
        matching checker first: the pre-classifier's truncate/volume
        proofs are only sound over a checker-clean skeleton, so a dirty
        one raises :class:`repro.analyze.StaticPruneError` instead of
        silently mispredicting."""
        if self._preclassifier is None:
            from .analyze import PreClassifier, StaticPruneError, check_skeleton, extract_skeleton

            with self.metrics.time("phase.analyze_s"):
                skeleton = extract_skeleton(self.app)
                report = check_skeleton(skeleton)
                if not report.ok:
                    raise StaticPruneError(
                        f"cannot statically prune {self.app.name}: "
                        f"matching checker found "
                        f"{len(report.errors)} error(s); run 'fastfit "
                        f"analyze' for the full report"
                    )
                self._preclassifier = PreClassifier(
                    skeleton, seed=self.config.seed, param_policy=self.config.param_policy
                )
        return self._preclassifier

    def _runtime(self) -> dict:
        """The runtime objects every campaign of this facade carries
        (its options travel as :attr:`config`)."""
        return dict(
            metrics=self.metrics,
            tracer=self.tracer,
            progress_sinks=self.progress_sinks,
            preclassifier=self.preclassifier() if self.config.static_prune else None,
        )

    def campaign(
        self, points: Sequence[InjectionPoint] | None = None, tests_per_point: int | None = None
    ) -> CampaignResult:
        """A traditional campaign over ``points`` (default: the pruned
        representatives)."""
        config = self.config
        if points is None:
            if config.scenario is not None:
                points = [config.scenario.anchor_point()]
            else:
                points = self.prune().representative_points
        if tests_per_point:
            config = replace(config, tests_per_point=tests_per_point)
        runner = Campaign(self.app, self.profile(), config, **self._runtime())
        logger.info(
            "campaign: %d points x %d tests (%d jobs)",
            len(list(points)),
            config.tests_per_point,
            config.jobs,
        )
        with self.metrics.time("phase.campaign_s"):
            return runner.run(points)

    def learn(
        self,
        threshold: float = 0.65,
        labeler: Labeler | None = None,
        label_names: tuple[str, ...] | None = None,
        batch_size: int | None = None,
        points: Sequence[InjectionPoint] | None = None,
    ) -> SteeringResult:
        """ML-driven injection over the pruned representatives (paper
        § III-C): the learning loop walking the seeded permutation with
        every test stream in full, until the model verifies at
        ``threshold``."""
        logger.info("ML-driven campaign: threshold %.2f", threshold)
        return self._loop(
            "phase.learn_s", points,
            accuracy_target=threshold, ci_width=None, sampler_mode="order",
            labeler=labeler, label_names=label_names, batch_size=batch_size,
        )

    def steer(
        self,
        accuracy_target: float = 0.65,
        ci_width: float = 0.25,
        budget: int | None = None,
        labeler: Labeler | None = None,
        label_names: tuple[str, ...] | None = None,
        batch_size: int | None = None,
        min_tests: int = 6,
        points: Sequence[InjectionPoint] | None = None,
    ) -> SteeringResult:
        """Adaptive steering over the pruned representatives: uncertainty
        sampling plus per-point sequential stopping."""
        logger.info(
            "adaptive campaign: target %.2f, ci width %.2f, budget %s",
            accuracy_target, ci_width, budget,
        )
        return self._loop(
            "phase.steer_s", points,
            accuracy_target=accuracy_target, ci_width=ci_width, budget=budget,
            labeler=labeler, label_names=label_names, batch_size=batch_size,
            min_tests=min_tests,
        )

    def _loop(self, timer: str, points, **options) -> SteeringResult:
        """One run of :func:`repro.steer.adaptive_campaign` over
        ``points`` (default: the pruned representatives), timed as
        ``timer``."""
        from .steer import adaptive_campaign

        if points is None:
            points = self.prune().representative_points
        with self.metrics.time(timer):
            return adaptive_campaign(
                self.app, self.profile(), points, config=self.config,
                **options, **self._runtime(),
            )

    # -- one-shot studies ----------------------------------------------------

    def run(
        self,
        threshold: float | None = 0.65,
        points: Sequence[InjectionPoint] | None = None,
        **learn_kwargs,
    ) -> FastFITReport:
        """Full study: profile → prune → (ML-driven or plain) campaign
        over ``points`` (default: the pruned representatives).

        ``threshold=None`` disables the ML stage (the paper's NPB rows).
        """
        pruning = self.prune()
        report = FastFITReport(self.app.name, pruning)
        if threshold is None:
            report.campaign = self.campaign(points=points)
        else:
            report.ml = self.learn(threshold=threshold, points=points, **learn_kwargs)
        return report
