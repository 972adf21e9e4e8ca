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

import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..apps.base import Application
from ..profiling.profiler import ApplicationProfile
from .outcome import OUTCOME_ORDER, Outcome
from .config import ConfigError
from .models import MODELS, SELECTABLE_MODELS
from .runner import TestResult
from .scenario import Scenario
from .space import InjectionPoint
from .targets import is_policy


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


def _option(default, flag: str, help: str | None = None, check=None, **argparse_kwargs):
    """A :class:`CampaignConfig` field carrying its CLI spelling and its
    check: the ``fastfit`` flag, its help text (``{default}`` reads the
    default), ``check`` — a ``(rule, ok)`` pair: a value other than
    ``None`` must pass ``ok`` or :class:`ConfigError` says the option
    "must be <rule>" — and any further ``add_argument`` keywords
    (``type``, ``metavar``)."""
    return field(
        default=default,
        metadata={
            "flag": flag,
            "help": help and help.format(default=default),
            "check": check,
            "argparse": argparse_kwargs,
        },
    )


def _at_least(least: int, unit: str = "") -> tuple:
    return f">= {least}{unit}", lambda value: value >= least


_FRACTION = ("in (0, 1]", lambda value: 0.0 < value <= 1.0)


@dataclass(frozen=True)
class CampaignConfig:
    """Every campaign option, declared, defaulted and validated once.

    :class:`Campaign`, the :class:`~repro.FastFIT` facade, the learning
    loop (:func:`repro.steer.adaptive_campaign`) and the ``fastfit`` CLI
    (whose option flags are generated from the field metadata) all take
    their options from one instance, so they cannot drift apart.  Each
    field's metadata carries its flag, help text and check.  Runtime
    objects — metrics registry, tracer, progress sinks and callback,
    algorithm table, stopper, preclassifier — are constructor arguments
    of :class:`Campaign` instead: they are not options a user sets, and
    none of them is part of the store digest.
    """

    # A field's help text documents it; ``#:`` comments add API detail.
    tests_per_point: int = _option(
        20, "--tests", "tests per injection point", _at_least(0), type=int, metavar="TESTS",
    )
    #: See :mod:`repro.injection.targets`.
    param_policy: str = _option(
        "buffer", "--policy", 'fault target policy: "buffer", "all", or a parameter name',
        metavar="POLICY",
    )
    #: Every test's RNG derives from it (:func:`repro.injection.models.task_rng`).
    seed: int = _option(0, "--seed", None, _at_least(0), type=int)
    jobs: int = _option(
        1, "--jobs",
        "worker processes for the campaign (results are bit-identical "
        "to --jobs 1; default 1)",
        _at_least(1), type=int,
    )
    #: The campaign creates the directory (see :attr:`store_path`).
    checkpoint_dir: str | os.PathLike | None = _option(
        None, "--checkpoint-dir", "same as --db DIR/campaign.db", metavar="DIR",
    )
    db_path: str | os.PathLike | None = _option(
        None, "--db",
        "SQLite campaign database: persists completed units (so an "
        "interrupted campaign can be resumed), queryable per-test rows, "
        "and progress telemetry; feeds 'fastfit report' and "
        "'fastfit stats --db'",
        metavar="PATH",
    )
    resume: bool = _option(
        False, "--resume",
        "resume a matching interrupted campaign from --checkpoint-dir or --db",
    )
    #: ``None`` = no deadline; ignored when ``jobs == 1``.
    unit_timeout: float | None = _option(
        None, "--unit-timeout",
        "wall-clock deadline per work-unit attempt; a worker that "
        "blows it is killed and the unit retried (parallel runs only)",
        ("> 0 seconds", lambda value: value > 0), type=float, metavar="SECONDS",
    )
    max_retries: int = _option(
        2, "--max-retries",
        "re-dispatches granted to a work unit whose worker died, "
        "wedged, or crashed (default {default})",
        _at_least(0), type=int, metavar="N",
    )
    #: ``False`` aborts with :class:`~repro.exec.supervisor.UnitFailedError`.
    quarantine: bool = _option(
        True, "--no-quarantine",
        "abort the campaign when a unit exhausts its retries instead "
        "of quarantining it with TOOL_ERROR verdicts",
    )
    progress_every: int = _option(
        1, "--progress-every",
        "emit progress (callbacks and telemetry snapshots) at most "
        "every N completed work units (default {default})",
        _at_least(1), type=int, metavar="N",
    )
    #: The facade builds the :class:`repro.analyze.PreClassifier`.
    static_prune: bool = _option(
        False, "--static-prune",
        "skip tests whose outcome the static pre-classifier proves "
        "(see 'fastfit analyze'); serial in-memory campaigns only — "
        "incompatible with --jobs > 1, --db, and --checkpoint-dir",
    )
    #: See :mod:`repro.snapshot`.
    snapshot: bool = _option(
        True, "--snapshot",
        "snapshot-and-fork serving: one fault-free run per worker "
        "parks at each injection point in turn and every test is forked "
        "from the parked state "
        "(bit-identical results, default on); --no-snapshot forces "
        "classic full replays and the point-major unit layout",
    )
    #: A name from :data:`repro.injection.models.MODELS`.
    fault_model: str = _option(
        "bitflip", "--fault-model",
        "fault model drawn at every test (default 'bitflip'; one of: "
        + ", ".join(SELECTABLE_MODELS) + ")",
        metavar="NAME",
    )
    #: A :class:`~repro.injection.scenario.Scenario`; the CLI loads it
    #: from the file its flag names.
    scenario: Scenario | None = _option(
        None, "--scenario",
        "timeline-driven multi-fault scenario file (JSON); replaces "
        "the per-point fault draw with the scenario's task list — "
        "incompatible with --fault-model and --static-prune",
        metavar="PATH",
    )
    #: Read by the CLI and ``fastfit verify``; ``None`` = every point.
    max_points: int | None = _option(
        None, "--max-points", "cap representative points", _at_least(1), type=int,
    )
    # The learning loop (repro.steer.adaptive_campaign).  None of these
    # enters the campaign digest; the loop keys its store row by them.
    #: ``None`` = ``len(points) // 8``, at least 4.
    batch_size: int | None = _option(
        None, "--batch-size",
        "points per batch for the ML-driven and adaptive loops "
        "(default: len(points) // 8, at least 4)",
        _at_least(1), type=int, metavar="N",
    )
    accuracy_target: float = _option(
        0.65, "--accuracy-target",
        "stop the learning loop once the model predicts a fresh batch "
        "of points this accurately (default {default}; must be in (0, 1])",
        _FRACTION, type=float, metavar="ACC",
    )
    #: ``None`` = no sequential stopper: every test stream runs in full.
    ci_width: float | None = _option(
        0.25, "--ci-width",
        "with --adaptive: stop a point's tests once the Wilson interval "
        "over its error rate is narrower than W (default {default}; "
        "must be in (0, 1])",
        _FRACTION, type=float, metavar="W",
    )
    #: ``None`` = unlimited.
    budget: int | None = _option(
        None, "--budget",
        "with --adaptive: hard cap on total injected tests "
        "(never exceeded; default unlimited)",
        _at_least(1, " test"), type=int, metavar="TESTS",
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            check, value = f.metadata["check"], getattr(self, f.name)
            if check is not None and value is not None and not check[1](value):
                raise ConfigError(
                    f.name, "{%s} must be %s, got {value}" % (f.name, check[0]), value=value,
                )
        if not is_policy(self.param_policy):
            raise ConfigError(
                "param_policy",
                "{param_policy} {value!r} is not 'buffer', 'all', or a "
                "parameter of any collective",
                value=self.param_policy,
            )
        if self.checkpoint_dir is not None and self.db_path is not None:
            raise ConfigError(
                "checkpoint_dir", "{checkpoint_dir} and {db_path} are mutually exclusive"
            )
        if self.fault_model not in SELECTABLE_MODELS:
            raise ConfigError(
                "fault_model", "unknown fault model {value!r}; choices: {choices}",
                value=self.fault_model, choices=", ".join(SELECTABLE_MODELS),
            )
        if self.scenario is not None and self.static_prune:
            raise ConfigError(
                "scenario",
                "{scenario} is incompatible with {static_prune}: the "
                "pre-classifier only understands single-bit parameter flips",
            )
        if self.scenario is not None and self.fault_model != "bitflip":
            raise ConfigError(
                "scenario",
                "{scenario} and {fault_model} are mutually exclusive "
                "(the scenario's tasks name their own models)",
            )
        if self.static_prune and not MODELS[self.fault_model].preclassifiable:
            # The static rules reason about single-bit parameter
            # corruption only; declining richer models keeps predictions
            # honest (see repro.analyze).
            raise ConfigError(
                "static_prune",
                "{static_prune} only understands the single-bit 'bitflip' "
                "fault model, not {value!r}",
                value=self.fault_model,
            )
        if self.static_prune and (
            self.jobs != 1 or self.db_path is not None or self.checkpoint_dir is not None
        ):
            # The pool payload does not carry the preclassifier and the
            # store schema has no predicted rows yet: static pruning runs
            # on the in-process executor only, and silently dropping it
            # would change which tests execute.
            raise ConfigError(
                "static_prune",
                "{static_prune} requires a serial in-memory campaign "
                "(incompatible with {jobs} > 1, {db_path}, and {checkpoint_dir})",
            )

    @property
    def store_path(self) -> Path | None:
        """The campaign database, with ``checkpoint_dir`` resolved to
        ``DIR/campaign.db`` (``None`` = in-memory campaign)."""
        if self.checkpoint_dir is not None:
            return Path(self.checkpoint_dir) / "campaign.db"
        return None if self.db_path is None else Path(self.db_path)


class Campaign:
    """Drives injection tests over a set of points.

    ``Campaign(app, profile, config, **fields)`` runs ``config`` (default
    :class:`CampaignConfig()`) with any ``fields`` replaced —
    ``Campaign(app, profile, tests_per_point=8, jobs=2)`` works too.
    The remaining keywords are the runtime objects the campaign carries:

    progress:
        ``progress(done_tests, total_tests)`` callback, for every
        ``jobs``.
    algorithms:
        Collective algorithm selection for the simulated job.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; the
        campaign records test/outcome tallies and per-unit timing under
        ``campaign.*`` / ``exec.*``.
    tracer:
        Optional :class:`~repro.obs.events.Tracer` receiving supervision
        events (``unit_retry``/``unit_quarantined``).
    progress_sinks:
        :class:`~repro.obs.progress.ProgressSink` consumers receiving
        periodic :class:`~repro.obs.progress.ProgressSnapshot` telemetry
        (tests/sec, outcome histogram, worker health, ETA).
    preclassifier:
        Optional :class:`repro.analyze.PreClassifier`; tests it proves
        are recorded as ``predicted`` results without running.  Passing
        one sets ``static_prune``, so its guards apply.
    stopper:
        Optional :class:`~repro.steer.SequentialStopper`: end each
        point's test stream early once its Wilson interval closes.  The
        decision is a pure function of the ordered test prefix, so
        stopped campaigns stay bit-identical across schedulings.
    """

    def __init__(
        self,
        app: Application,
        profile: ApplicationProfile,
        config: CampaignConfig | None = None,
        *,
        progress: Callable[[int, int], None] | None = None,
        algorithms: dict[str, str] | None = None,
        metrics=None,
        tracer=None,
        progress_sinks=None,
        preclassifier=None,
        stopper=None,
        **fields,
    ):
        if preclassifier is not None:
            fields["static_prune"] = True
        #: The campaign's options (:class:`CampaignConfig`).
        self.config = replace(config or CampaignConfig(), **fields)
        if stopper is not None and self.config.static_prune:
            # Statically resolved slots never execute, so the stopper's
            # ordered-prefix contract (test 0, 1, 2, … of *executed*
            # results) would depend on which slots the preclassifier
            # proved — a different rule set would silently change where
            # every point stops.
            raise ValueError(
                "sequential stopping (stopper) is incompatible with "
                "static pruning (preclassifier)"
            )
        if self.config.checkpoint_dir is not None:
            Path(self.config.checkpoint_dir).mkdir(parents=True, exist_ok=True)
        self.app = app
        self.profile = profile
        self.progress = progress
        self.algorithms = algorithms
        self.metrics = metrics
        self.tracer = tracer
        self.progress_sinks = list(progress_sinks or [])
        self.preclassifier = preclassifier
        self.stopper = stopper
        #: Unit ids given up on during the last :meth:`run` (their tests
        #: carry synthetic ``TOOL_ERROR`` verdicts).
        self.quarantined: list[str] = []
        self._state = None

    def worker_args(self) -> tuple:
        """The executor configuration: the positional arguments of
        :class:`~repro.exec.supervisor.WorkerState`, and (pickled) the
        payload every pool worker is initialised with."""
        cfg = self.config
        return (
            self.app, self.profile, cfg.param_policy, cfg.seed,
            self.algorithms, cfg.snapshot,
            cfg.fault_model, cfg.scenario, self.stopper, cfg.jobs,
        )

    def worker_state(self):
        """The in-process executor (runner + snapshot engine and its
        cache), built on first use and kept for the campaign's lifetime
        so per-batch drivers do not rebuild it every :meth:`run`."""
        if self._state is None:
            from ..exec.supervisor import WorkerState

            self._state = WorkerState(*self.worker_args(), preclassifier=self.preclassifier)
        return self._state

    def plan(self) -> tuple[str, int]:
        """The unit plan ``(layout, unit_tests)``: whole-point units
        (``"s1"``) under snapshot serving — one park serves the whole
        point, and one fault-free run per executor walks from park to
        park — and point-major slices (``"p1"``) without.  A stopper
        forces whole-point units under either layout: its decision
        consumes the ordered per-point test prefix, which only one owner
        can observe."""
        from ..exec.sharding import default_unit_tests

        tests = self.config.tests_per_point
        layout = "s1" if self.config.snapshot else "p1"
        if layout == "s1" or self.stopper is not None:
            return layout, max(1, tests)
        return layout, default_unit_tests(tests)

    def digest(self, points: Sequence[InjectionPoint], extra: dict | None = None) -> str:
        """The store identity of this campaign over ``points``.

        ``extra`` carries what a batch driver's results depend on beyond
        the campaign axes (``{"ml": …}`` / ``{"steer": …}``)."""
        from ..exec.checkpoint import campaign_digest

        cfg = self.config
        layout, unit_tests = self.plan()
        return campaign_digest(
            self.app,
            cfg.seed,
            cfg.tests_per_point,
            cfg.param_policy,
            unit_tests,
            list(points),
            algorithms=self.algorithms,
            layout=layout,
            fault_model=cfg.fault_model,
            scenario_fp=None if cfg.scenario is None else cfg.scenario.fingerprint(),
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
