"""``repro.verify`` — the independent oracle for the simulator stack.

Every paper figure rests on :mod:`repro.simmpi` faithfully reproducing
MPI collective semantics, and every scaling PR rewrites some hot part
of it.  This package is the cross-check that keeps those two facts
compatible:

* :mod:`repro.verify.reference` — a pure-numpy, schedule-free model of
  each collective's mathematical semantics;
* :mod:`repro.verify.conformance` — a differential harness fuzzing
  every algorithm variant against the reference;
* :mod:`repro.verify.replay` — deterministic scheduler replay logs and
  a bit-identical replayer;
* :mod:`repro.verify.models` — model-conformance witnesses pinning every
  composable fault model to its expected Table-I response;
* :mod:`repro.verify.snapshot_check` — the fork-equivalence oracle for
  the snapshot-and-fork engine (forked test streams must fingerprint
  identically to from-scratch replays);
* :mod:`repro.verify.mutants` — the one registry of seeded defects
  proving each of those checks, and the skeleton checker, has teeth (a
  verifier that cannot fail a broken simulator verifies nothing);
* sanitizers live in :mod:`repro.simmpi.sanitize` (they are wired
  through the runtime) and are re-exported here.
"""

from ..simmpi.sanitize import Sanitizer, SanitizerViolation, Violation
from .conformance import (
    CaseFailure,
    CollectiveReport,
    ConformanceReport,
    FUZZED_COLLECTIVES,
    run_conformance,
)
from .models import (
    WITNESSES,
    ModelConformanceReport,
    ModelWitness,
    WitnessResult,
    model_conformance,
    run_witness,
)
from .mutants import MUTANTS, installed_mutant, run_mutant
from .replay import ReplayLog, ReplayReport, record_run, replay_run
from .sanitize_sweep import SweepResult, sanitize_sweep
from .snapshot_check import ForkEquivalenceReport, fork_equivalence

__all__ = [
    "ForkEquivalenceReport",
    "CaseFailure",
    "CollectiveReport",
    "ConformanceReport",
    "FUZZED_COLLECTIVES",
    "MUTANTS",
    "ModelConformanceReport",
    "ModelWitness",
    "ReplayLog",
    "ReplayReport",
    "Sanitizer",
    "SanitizerViolation",
    "SweepResult",
    "Violation",
    "WITNESSES",
    "WitnessResult",
    "fork_equivalence",
    "installed_mutant",
    "model_conformance",
    "record_run",
    "replay_run",
    "run_conformance",
    "run_mutant",
    "run_witness",
    "sanitize_sweep",
]
