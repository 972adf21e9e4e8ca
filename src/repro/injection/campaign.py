"""Fault-injection campaigns: many tests per point, aggregated.

Implements the paper's § II methodology: at every selected injection
point, run ``tests_per_point`` randomised single-bit-flip tests (100 in
the paper) and tally the six response types.  Everything is driven by a
single campaign seed — each test's RNG is rebuilt from
``SeedSequence(seed, spawn_key=(point_index, test_index))`` — so a
campaign is a pure function of ``(app, points, config)`` no matter how
its tests are scheduled.

There is one execution path.  :meth:`Campaign.run` cuts the points into
work units (:meth:`Campaign.plan`) and hands them to the engine in
:mod:`repro.exec.parallel`, which feeds them to an executor — this
process's :class:`~repro.exec.supervisor.WorkerState` when ``jobs ==
1``, a supervised worker pool otherwise — and assembles the results in
point order, persisting completed units when a store is configured.
The per-test recipe itself lives in
:func:`repro.injection.models.draw_task`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..apps.base import Application
from ..profiling.profiler import ApplicationProfile
from .outcome import OUTCOME_ORDER, Outcome
from .models import MODELS
from .runner import InjectionRunner, TestResult
from .scenario import Scenario
from .space import InjectionPoint


@dataclass
class PointResult:
    """Aggregated responses at one injection point.

    Outcome tallies are maintained incrementally as tests are added via
    :meth:`add`, so ``outcomes``/``error_rate`` are O(1) on the hot path
    instead of rescanning the test list on every property access.  Code
    that appends to ``tests`` directly still gets correct answers: a
    cheap length check detects the stale tally and rebuilds it.
    """

    point: InjectionPoint
    tests: list[TestResult] = field(default_factory=list)
    _counts: Counter = field(default_factory=Counter, init=False, repr=False, compare=False)
    _n_errors: int = field(default=0, init=False, repr=False, compare=False)
    _n_excluded: int = field(default=0, init=False, repr=False, compare=False)
    _tallied: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for t in self.tests:
            self._tally(t)

    def add(self, test: TestResult) -> None:
        """Append one test and update the running tallies."""
        self.tests.append(test)
        self._tally(test)

    def _tally(self, test: TestResult) -> None:
        self._counts[test.outcome] += 1
        if test.outcome.is_error:
            self._n_errors += 1
        if not test.outcome.is_application_response:
            self._n_excluded += 1
        self._tallied += 1

    def _synced_counts(self) -> Counter:
        if self._tallied != len(self.tests):
            self._counts = Counter(t.outcome for t in self.tests)
            self._n_errors = sum(1 for t in self.tests if t.outcome.is_error)
            self._n_excluded = sum(
                1 for t in self.tests if not t.outcome.is_application_response
            )
            self._tallied = len(self.tests)
        return self._counts

    @property
    def outcomes(self) -> Counter:
        return Counter(self._synced_counts())

    @property
    def n_tests(self) -> int:
        return len(self.tests)

    @property
    def n_tool_errors(self) -> int:
        """Tests with a harness-level ``TOOL_ERROR`` verdict (excluded
        from every paper-facing rate)."""
        self._synced_counts()
        return self._n_excluded

    @property
    def error_rate(self) -> float:
        """Fraction of tests with a non-SUCCESS response (§ II).

        Harness-level ``TOOL_ERROR`` verdicts are excluded from both the
        numerator and the denominator — they say nothing about the
        application's sensitivity.
        """
        self._synced_counts()
        responses = len(self.tests) - self._n_excluded
        if responses <= 0:
            return 0.0
        return self._n_errors / responses

    def majority_outcome(self) -> Outcome:
        """The most frequent *application* response (ties break in
        Table I order).  TOOL_ERROR verdicts never win; a degenerate
        point whose every test failed at the harness level reports
        SUCCESS-by-absence and should be judged via
        :attr:`n_tool_errors` instead."""
        counts = self._synced_counts()
        best = max(
            (counts[o] for o in OUTCOME_ORDER if o in counts), default=0
        )
        if best:
            for outcome in OUTCOME_ORDER:
                if counts.get(outcome) == best:
                    return outcome
        return Outcome.SUCCESS

    def detail_samples(self) -> dict[Outcome, str]:
        """One representative ``detail`` string per observed outcome.

        The first non-empty detail wins; outcomes whose tests carry no
        detail (``SUCCESS``) are omitted.
        """
        samples: dict[Outcome, str] = {}
        for t in self.tests:
            if t.detail and t.outcome not in samples:
                samples[t.outcome] = t.detail
        return samples


@dataclass
class CampaignResult:
    """All point results of one campaign."""

    app_name: str
    tests_per_point: int
    param_policy: str
    points: dict[InjectionPoint, PointResult] = field(default_factory=dict)

    # -- aggregate views ------------------------------------------------

    def all_tests(self) -> list[TestResult]:
        return [t for pr in self.points.values() for t in pr.tests]

    def n_tests(self) -> int:
        """Total test count without materialising the flat list."""
        return sum(len(pr.tests) for pr in self.points.values())

    def outcome_histogram(self) -> dict[Outcome, int]:
        # Sums the per-point incremental tallies: O(points), not O(tests).
        # Covers OUTCOME_ORDER only, so TOOL_ERROR verdicts never leak
        # into paper-metric outcome rates (see tool_error_count()).
        counts: Counter = Counter()
        for pr in self.points.values():
            counts.update(pr._synced_counts())
        return {o: counts.get(o, 0) for o in OUTCOME_ORDER}

    def tool_error_count(self) -> int:
        """Campaign-wide count of harness-level ``TOOL_ERROR`` verdicts
        (quarantined units, contained simulator crashes)."""
        return sum(pr.n_tool_errors for pr in self.points.values())

    def predicted_count(self) -> int:
        """Tests resolved statically (``--static-prune``) instead of run."""
        return sum(
            1 for pr in self.points.values() for t in pr.tests if t.predicted
        )

    def outcome_fractions(self) -> dict[Outcome, float]:
        hist = self.outcome_histogram()
        total = sum(hist.values()) or 1
        return {o: c / total for o, c in hist.items()}

    def by_collective(self) -> dict[str, "CampaignResult"]:
        """Split the campaign per collective type."""
        out: dict[str, CampaignResult] = {}
        for point, pr in self.points.items():
            sub = out.setdefault(
                point.collective,
                CampaignResult(self.app_name, self.tests_per_point, self.param_policy),
            )
            sub.points[point] = pr
        return out

    def by_param(self) -> dict[str, dict[Outcome, int]]:
        """Outcome histogram per injected parameter (Fig. 9 view)."""
        out: dict[str, Counter] = {}
        for pr in self.points.values():
            for t in pr.tests:
                out.setdefault(t.spec.param, Counter())[t.outcome] += 1
        return {
            param: {o: c.get(o, 0) for o in OUTCOME_ORDER}
            for param, c in sorted(out.items())
        }

    def error_rates(self) -> list[float]:
        return [pr.error_rate for pr in self.points.values()]

    def detail_samples(self) -> dict[Outcome, str]:
        """Campaign-wide representative failure details, one per outcome."""
        samples: dict[Outcome, str] = {}
        for pr in self.points.values():
            for outcome, detail in pr.detail_samples().items():
                samples.setdefault(outcome, detail)
        return samples


class Campaign:
    """Drives injection tests over a set of points.

    Parameters
    ----------
    jobs:
        Worker processes for the campaign.  ``1`` (the default) executes
        the work units in this process; anything else shards them across
        a supervised pool (:mod:`repro.exec`) with bit-identical results.
    progress:
        ``progress(done_tests, total_tests)`` callback, for every
        ``jobs``.
    progress_every:
        Emit the ``progress`` callback (and telemetry snapshots) at most
        every N completed work units; the final update always fires.
    checkpoint_dir:
        Shorthand for ``db_path=checkpoint_dir / "campaign.db"`` (the
        directory is created if missing); mutually exclusive with
        ``db_path``.
    db_path:
        SQLite campaign database: completed units are committed through
        :class:`repro.store.DBCheckpointStore`, with queryable per-test
        rows and progress telemetry; with ``resume=True`` an interrupted
        campaign with the same digest restarts where it left off.
    progress_sinks:
        :class:`~repro.obs.progress.ProgressSink` consumers receiving
        periodic :class:`~repro.obs.progress.ProgressSnapshot` telemetry
        (tests/sec, outcome histogram, worker health, ETA).
    unit_timeout:
        Wall-clock seconds a parallel work unit may run per dispatch
        attempt before its worker is declared wedged and killed
        (``None`` = no deadline; ignored when ``jobs == 1``).
    max_retries:
        Re-dispatches granted to a unit whose worker died, wedged, or
        crashed before it is given up on.
    quarantine:
        When a unit exhausts its retries: ``True`` records synthetic
        ``TOOL_ERROR`` results and the campaign continues; ``False``
        aborts with :class:`~repro.exec.supervisor.UnitFailedError`.
    """

    def __init__(
        self,
        app: Application,
        profile: ApplicationProfile,
        tests_per_point: int = 100,
        param_policy: str = "buffer",
        seed: int = 0,
        progress: Callable[[int, int], None] | None = None,
        algorithms: dict[str, str] | None = None,
        metrics=None,
        jobs: int = 1,
        progress_every: int = 1,
        checkpoint_dir=None,
        db_path=None,
        resume: bool = False,
        unit_timeout: float | None = None,
        max_retries: int = 2,
        quarantine: bool = True,
        tracer=None,
        progress_sinks=None,
        preclassifier=None,
        snapshot: bool = True,
        fault_model: str = "bitflip",
        scenario: Scenario | None = None,
        stopper=None,
    ):
        self.app = app
        self.profile = profile
        self.tests_per_point = tests_per_point
        self.param_policy = param_policy
        self.seed = seed
        self.progress = progress
        self.algorithms = algorithms
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set
        #: the campaign records test/outcome tallies and per-point timing
        #: under ``campaign.*``.
        self.metrics = metrics
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if progress_every < 1:
            raise ValueError(f"progress_every must be >= 1, got {progress_every}")
        if unit_timeout is not None and unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be > 0 seconds, got {unit_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if checkpoint_dir is not None and db_path is not None:
            raise ValueError("checkpoint_dir and db_path are mutually exclusive")
        if fault_model not in MODELS or fault_model == "scenario":
            raise ValueError(
                f"unknown fault model {fault_model!r}; "
                f"choices: {', '.join(n for n in MODELS if n != 'scenario')}"
            )
        if scenario is not None and fault_model != "bitflip":
            raise ValueError("scenario and fault_model are mutually exclusive")
        if preclassifier is not None and (
            scenario is not None or not MODELS[fault_model].preclassifiable
        ):
            # The static rules reason about single-bit parameter
            # corruption only; declining richer models keeps predictions
            # honest (see repro.analyze).
            raise ValueError(
                "static pruning (preclassifier) only understands the "
                "single-bit 'bitflip' fault model"
            )
        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            db_path = checkpoint_dir / "campaign.db"
            if resume and not db_path.exists():
                from ..store.migrate import refuse_legacy_checkpoint

                refuse_legacy_checkpoint(checkpoint_dir, db_path)
        if preclassifier is not None and (jobs != 1 or db_path is not None):
            # The pool payload does not carry the preclassifier and the
            # store schema has no predicted rows yet: static pruning runs
            # on the in-process executor only, and silently dropping it
            # would change which tests execute.
            raise ValueError(
                "static pruning (preclassifier) is incompatible with "
                "jobs>1, checkpoint_dir, and db_path"
            )
        if stopper is not None and preclassifier is not None:
            # Statically resolved slots never execute, so the stopper's
            # ordered-prefix contract (test 0, 1, 2, … of *executed*
            # results) would depend on which slots the preclassifier
            # proved — a different rule set would silently change where
            # every point stops.
            raise ValueError(
                "sequential stopping (stopper) is incompatible with "
                "static pruning (preclassifier)"
            )
        self.jobs = jobs
        self.progress_every = progress_every
        self.db_path = db_path
        self.resume = resume
        #: Extra :class:`~repro.obs.progress.ProgressSink` consumers
        #: receiving periodic telemetry snapshots.
        self.progress_sinks = list(progress_sinks or [])
        self.unit_timeout = unit_timeout
        self.max_retries = max_retries
        self.quarantine = quarantine
        #: Optional :class:`~repro.obs.events.Tracer` receiving
        #: supervision events (``unit_retry``/``unit_quarantined``).
        self.tracer = tracer
        #: Optional :class:`repro.analyze.PreClassifier`; tests it
        #: proves are recorded as ``predicted`` results without running.
        self.preclassifier = preclassifier
        #: Snapshot-and-fork serving (:mod:`repro.snapshot`): one
        #: fault-free run per executor parks at each point in turn and
        #: every test is forked from the parked state.  Results are bit-identical either way; ``False``
        #: forces classic full replays (also selects the point-major unit
        #: layout when parallel).
        self.snapshot = snapshot
        #: Fault-model name from :data:`repro.injection.models.MODELS`
        #: applied to every test ("bitflip" = the paper's model).
        self.fault_model = fault_model
        #: Optional :class:`~repro.injection.scenario.Scenario`; when
        #: set, every test replays the timeline (under its synthetic
        #: anchor point) instead of drawing single faults.
        self.scenario = scenario
        #: Optional :class:`~repro.steer.SequentialStopper`: end each
        #: point's test stream early once its Wilson interval closes.
        #: The decision is a pure function of the ordered test prefix,
        #: so stopped campaigns stay bit-identical across schedulings.
        self.stopper = stopper
        #: Unit ids given up on during the last :meth:`run` (their tests
        #: carry synthetic ``TOOL_ERROR`` verdicts).
        self.quarantined: list[str] = []
        self._state = None

    def worker_args(self) -> tuple:
        """The executor configuration: the positional arguments of
        :class:`~repro.exec.supervisor.WorkerState`, and (pickled) the
        payload every pool worker is initialised with."""
        return (
            self.app, self.profile, self.param_policy, self.seed,
            self.algorithms, self.snapshot,
            self.fault_model, self.scenario, self.stopper, self.jobs,
        )

    def worker_state(self):
        """The in-process executor (runner + snapshot engine and its
        cache), built on first use and kept for the campaign's lifetime
        so per-batch drivers do not rebuild it every :meth:`run`."""
        if self._state is None:
            from ..exec.supervisor import WorkerState

            self._state = WorkerState(*self.worker_args(), preclassifier=self.preclassifier)
        return self._state

    @property
    def runner(self) -> InjectionRunner:
        """The in-process :class:`InjectionRunner` (``fastfit trace``)."""
        return self.worker_state().runner

    def plan(self) -> tuple[str, int]:
        """The unit plan ``(layout, unit_tests)``: whole-point units
        (``"s1"``) under snapshot serving — one park serves the whole
        point, and one fault-free run per executor walks from park to
        park — and point-major slices (``"p1"``) without.  A stopper
        forces whole-point units under either layout: its decision
        consumes the ordered per-point test prefix, which only one owner
        can observe."""
        from ..exec.sharding import default_unit_tests

        layout = "s1" if self.snapshot else "p1"
        if layout == "s1" or self.stopper is not None:
            return layout, max(1, self.tests_per_point)
        return layout, default_unit_tests(self.tests_per_point)

    def digest(self, points: Sequence[InjectionPoint], extra: dict | None = None) -> str:
        """The store identity of this campaign over ``points``.

        ``extra`` carries what a batch driver's results depend on beyond
        the campaign axes (``{"ml": …}`` / ``{"steer": …}``)."""
        from ..exec.checkpoint import campaign_digest

        layout, unit_tests = self.plan()
        return campaign_digest(
            self.app,
            self.seed,
            self.tests_per_point,
            self.param_policy,
            unit_tests,
            list(points),
            algorithms=self.algorithms,
            layout=layout,
            fault_model=self.fault_model,
            scenario_fp=None if self.scenario is None else self.scenario.fingerprint(),
            extra=extra,
        )

    def run(
        self,
        points: Sequence[InjectionPoint] | Iterable[InjectionPoint],
        point_indices: Sequence[int] | None = None,
        digest: str | None = None,
    ) -> CampaignResult:
        """Run the campaign over ``points`` (kept in the given order).

        ``point_indices`` optionally names each point's *global* index —
        the coordinate fed into the ``SeedSequence`` spawn key and the
        work-unit ids — so a driver running a subset batch (ML-driven or
        adaptive steering) reproduces exactly the tests a full campaign
        would have run at those points.  Default: ``0..len(points)-1``.

        ``digest`` overrides the store identity for database runs;
        batch drivers pass one :meth:`digest` computed over the *full*
        candidate list so every batch lands in the same campaign row.
        """
        from ..exec.parallel import run_campaign

        return run_campaign(self, points, point_indices=point_indices, digest=digest)
