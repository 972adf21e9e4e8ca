"""Single fault-injection test execution.

One test = one fresh simulated job with one armed fault injector,
classified against the golden run.  The hang budget is calibrated from
the golden run's event count — the deterministic analogue of the paper's
wall-clock timeout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.base import Application
from ..obs.forensics import describe_fault, failure_detail, harness_failure_detail
from ..profiling.profiler import ApplicationProfile, profile_application
from ..simmpi import SimMPIError, run_app
from ..simmpi.memory import DEFAULT_ARENA_SIZE
from .injector import FaultInjector, InjectionRecord
from .models import build_injector
from .outcome import Outcome, classify_exception
from .space import FaultSpec

#: The injected run may legitimately run somewhat longer than golden
#: (e.g. extra solver cycles); beyond this factor it is declared hung.
DEFAULT_BUDGET_FACTOR = 8
MIN_BUDGET = 50_000


@dataclass(frozen=True)
class TestResult:
    """Outcome of one fault-injection test."""

    spec: FaultSpec
    outcome: Outcome
    record: InjectionRecord | None
    detail: str = ""
    #: True when the outcome was statically proven by
    #: :class:`repro.analyze.PreClassifier` and the dynamic run skipped.
    predicted: bool = False

    @property
    def injected(self) -> bool:
        return self.record is not None and not self.record.skipped


class InjectionRunner:
    """Runs individual injection tests for one application instance."""

    def __init__(
        self,
        app: Application,
        profile: ApplicationProfile | None = None,
        budget_factor: int = DEFAULT_BUDGET_FACTOR,
        min_budget: int = MIN_BUDGET,
        algorithms: dict[str, str] | None = None,
        alloc_cap: int | None = DEFAULT_ARENA_SIZE,
    ):
        self.app = app
        self.algorithms = algorithms
        #: Per-rank single-allocation cap (bytes) for injected runs: a
        #: corrupted size reaching ``ctx.alloc`` raises the simulated
        #: segfault path instead of attempting a host-sized allocation.
        self.alloc_cap = alloc_cap
        self.profile = (
            profile
            if profile is not None
            else profile_application(app, algorithms=algorithms)
        )
        self.step_budget = max(self.profile.golden_steps * budget_factor, min_budget)
        #: The exception that aborted the most recent :meth:`run_one`
        #: (``None`` for clean completion).  Lets callers build richer
        #: forensics (full wait-for graphs) than the summary in
        #: ``TestResult.detail``.
        self.last_exception: SimMPIError | None = None

    @property
    def golden_results(self):
        return self.profile.golden_results

    def run_one(
        self, spec: FaultSpec, rng: np.random.Generator, tracer=None
    ) -> TestResult:
        """Execute one test and classify the application response.

        When a tracer is supplied the whole run is traced (scheduler,
        contexts, memories, injector) and the armed fault is announced
        with a ``fault_armed`` event before the job starts.
        """
        injector = build_injector(spec, rng, tracer=tracer)
        self.last_exception = None
        if tracer is not None:
            p = spec.point
            tracer.emit(
                "fault_armed", p.rank,
                param=spec.param, bit=-1 if spec.bit is None else spec.bit,
                collective=p.collective, site=p.site, invocation=p.invocation,
            )
        try:
            # Corrupted data legitimately overflows in application
            # arithmetic; silence numpy's warnings for the faulty run.
            with np.errstate(all="ignore"):
                result = run_app(
                    self.app.main,
                    self.app.nranks,
                    instruments=[injector],
                    step_budget=self.step_budget,
                    algorithms=self.algorithms,
                    alloc_cap=self.alloc_cap,
                    tracer=tracer,
                    tap=injector.tap,
                )
        except SimMPIError as exc:
            self.last_exception = exc
            return self.classify_error(spec, injector, exc)
        except Exception as exc:
            # Last-resort containment: the *harness* failed, not the
            # simulated application — a MemoryError, RecursionError, or
            # numpy crash provoked by a corrupted parameter must not
            # abort a million-test campaign.  Classify with forensics
            # instead of propagating; KeyboardInterrupt/SystemExit still
            # pass through so the campaign driver can shut down cleanly.
            self.last_exception = None
            return self.classify_harness_error(spec, injector, exc)

        return self.classify_completion(spec, injector, result.results)

    # -- classification -----------------------------------------------
    #
    # Shared between run_one and the snapshot-and-fork engine
    # (repro.snapshot): a forked child classifies its own continuation
    # with exactly these rules, so forked and from-scratch TestResults
    # are constructed from identical code paths.

    def classify_error(
        self, spec: FaultSpec, injector: FaultInjector, exc: SimMPIError
    ) -> TestResult:
        """Classify a run aborted by a simulated-MPI error."""
        return TestResult(
            spec,
            classify_exception(exc),
            injector.record,
            detail=failure_detail(exc, injector.record),
        )

    def classify_harness_error(
        self, spec: FaultSpec, injector: FaultInjector, exc: Exception
    ) -> TestResult:
        """Classify a harness failure (contained as ``TOOL_ERROR``)."""
        return TestResult(
            spec,
            Outcome.TOOL_ERROR,
            injector.record,
            detail=harness_failure_detail(exc, injector.record),
        )

    def classify_completion(
        self, spec: FaultSpec, injector: FaultInjector, results: list
    ) -> TestResult:
        """Classify a run that completed: golden comparison."""
        try:
            matches = self.app.compare(self.golden_results, results)
        except Exception as exc:
            # The golden comparison choked on corrupted results — still a
            # harness fault, contained the same way as a crashed run.
            return self.classify_harness_error(spec, injector, exc)
        if matches:
            return TestResult(spec, Outcome.SUCCESS, injector.record)
        detail = "wrong answer: result signature differs from golden run"
        fault = describe_fault(injector.record)
        if fault:
            detail += f"; fault: {fault}"
        return TestResult(spec, Outcome.WRONG_ANS, injector.record, detail=detail)
