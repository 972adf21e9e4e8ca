"""The six application responses to a faulty collective (Table I).

Classification precedence follows what a real job launcher observes:

1. the application's own error handler fired → ``APP_DETECTED``;
2. the MPI library reported an error → ``MPI_ERR``;
3. the process took a memory fault (including any unhandled language
   error, which on the C codes the paper studies manifests as a
   signal) → ``SEG_FAULT``;
4. the job never terminated (deadlock or runaway loop, killed by the
   harness budget, the paper's timeout) → ``INF_LOOP``;
5. the job exited cleanly: results match the golden run → ``SUCCESS``,
   otherwise → ``WRONG_ANS``.

One extra member sits outside the paper's taxonomy: ``TOOL_ERROR``
marks a test whose *harness* failed — the simulator crashed on an
unclassifiable Python error, or a worker process died repeatedly and
the unit was quarantined.  It is an infrastructure verdict, not an
application response, so it is excluded from every paper-facing
statistic: :data:`OUTCOME_ORDER` (rendering, histograms, ML labels)
does not contain it, :attr:`Outcome.is_error` is ``False`` for it, and
:func:`response_rate`, the one rate rule, skips it.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

from ..simmpi import (
    AppError,
    DeadlockError,
    FiberCrashed,
    MPIError,
    SegmentationFault,
    StepBudgetExceeded,
)


class Outcome(str, Enum):
    """Application response types (Table I), plus the harness verdict."""

    SUCCESS = "SUCCESS"
    APP_DETECTED = "APP_DETECTED"
    MPI_ERR = "MPI_ERR"
    SEG_FAULT = "SEG_FAULT"
    WRONG_ANS = "WRONG_ANS"
    INF_LOOP = "INF_LOOP"
    #: The harness itself failed (simulator crash, quarantined unit) —
    #: not one of the paper's six application responses.
    TOOL_ERROR = "TOOL_ERROR"

    @property
    def is_application_response(self) -> bool:
        """True for the paper's six Table I classes; False for
        harness-level ``TOOL_ERROR`` verdicts."""
        return self is not Outcome.TOOL_ERROR

    @property
    def is_error(self) -> bool:
        """Everything but SUCCESS counts toward the paper's error rate
        — except TOOL_ERROR, which is no application response at all."""
        return self is not Outcome.SUCCESS and self is not Outcome.TOOL_ERROR


#: Fixed rendering/iteration order matching the paper's figures.
#: Deliberately excludes TOOL_ERROR: sensitivity statistics, histograms,
#: and ML labels cover application responses only.
OUTCOME_ORDER: tuple[Outcome, ...] = (
    Outcome.SUCCESS,
    Outcome.APP_DETECTED,
    Outcome.MPI_ERR,
    Outcome.SEG_FAULT,
    Outcome.WRONG_ANS,
    Outcome.INF_LOOP,
)


def response_rate(counts: Mapping[Outcome, int], outcome: Outcome | None = None) -> float:
    """The share of the application responses in ``counts`` (outcome →
    tests) that are ``outcome``, or errors when it is ``None`` — the
    § II error rate.  TOOL_ERROR is no application response: it leaves
    both the numerator and the denominator."""
    responses = sum(n for o, n in counts.items() if o.is_application_response)
    hits = sum(
        n for o, n in counts.items() if (o.is_error if outcome is None else o is outcome)
    )
    return hits / responses if responses else 0.0


def classify_exception(exc: BaseException) -> Outcome:
    """Map a run-aborting exception to its Table I response type."""
    if isinstance(exc, AppError):
        return Outcome.APP_DETECTED
    if isinstance(exc, MPIError):
        return Outcome.MPI_ERR
    if isinstance(exc, SegmentationFault):
        return Outcome.SEG_FAULT
    if isinstance(exc, (DeadlockError, StepBudgetExceeded)):
        return Outcome.INF_LOOP
    if isinstance(exc, FiberCrashed):
        # An arbitrary language-level crash in application code: on the
        # paper's C workloads this is a signal, i.e. a segfault.
        return Outcome.SEG_FAULT
    raise TypeError(f"unclassifiable exception {type(exc).__name__}: {exc}")
