"""``repro.simmpi`` — a deterministic, single-process MPI simulator.

Built as the substrate for FastFIT fault-injection studies: collectives
are expanded into per-rank point-to-point schedules computed from each
rank's *own* parameters, memory is a simulated arena with segfault and
heap-smash semantics, and MPI object handles are pointer-like — so
single-bit parameter corruption produces the same six application
responses the paper observes on real hardware (Table I).
"""

from .calls import (
    BUFFER_PARAMS,
    COLLECTIVE_PARAMS,
    COLLECTIVE_TYPE_IDS,
    HANDLE_PARAMS,
    HANDLE_VECTOR_PARAMS,
    ROOTED_COLLECTIVES,
    SCALAR_PARAMS,
    VECTOR_PARAMS,
    CollectiveCall,
    Instrument,
)
from .comm import CommFactory, Communicator
from .context import PHASES, Context
from .datatypes import Datatype, make_datatype_space
from .errors import (
    AppError,
    DeadlockError,
    FiberCrashed,
    MPIError,
    SegmentationFault,
    SimMPIError,
    StepBudgetExceeded,
)
from .memory import ArrayRef, Memory
from .ops import ReduceOp, make_op_space
from .request import Request
from .runtime import AppFn, RunResult, SimMPI, run_app
from .scheduler import DeliveryTap
from .sanitize import Sanitizer, SanitizerViolation, Violation

__all__ = [
    "AppError",
    "AppFn",
    "ArrayRef",
    "BUFFER_PARAMS",
    "COLLECTIVE_PARAMS",
    "COLLECTIVE_TYPE_IDS",
    "CollectiveCall",
    "CommFactory",
    "Communicator",
    "Context",
    "Datatype",
    "DeadlockError",
    "DeliveryTap",
    "FiberCrashed",
    "HANDLE_PARAMS",
    "HANDLE_VECTOR_PARAMS",
    "Instrument",
    "MPIError",
    "Memory",
    "PHASES",
    "ROOTED_COLLECTIVES",
    "ReduceOp",
    "Request",
    "RunResult",
    "SCALAR_PARAMS",
    "Sanitizer",
    "SanitizerViolation",
    "SegmentationFault",
    "SimMPI",
    "SimMPIError",
    "StepBudgetExceeded",
    "VECTOR_PARAMS",
    "Violation",
    "make_datatype_space",
    "make_op_space",
    "run_app",
]
