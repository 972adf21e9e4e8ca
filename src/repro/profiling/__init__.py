"""``repro.profiling`` — the profiling-phase substrate.

Stand-ins for the paper's profiling stack: mpiP (communication profile),
Callgrind/gprof (call graphs), and ``backtrace()`` (call stacks).
"""

from .callgraph import (
    CallGraph,
    build_callgraph,
    callgraph_signature,
    frame_function,
)
from .callstack import (
    average_depth,
    distinct_stacks,
    group_by_stack,
)
from .comm_profile import CallInfo, CommProfile, CommProfiler, P2PEvent
from .phases import PHASE_IDS, PHASE_ORDER, encode_phase, phase_indicator
from .profiler import ApplicationProfile, SiteSummary, profile_application

__all__ = [
    "ApplicationProfile",
    "CallGraph",
    "CallInfo",
    "CommProfile",
    "CommProfiler",
    "P2PEvent",
    "PHASE_IDS",
    "PHASE_ORDER",
    "SiteSummary",
    "average_depth",
    "build_callgraph",
    "callgraph_signature",
    "distinct_stacks",
    "encode_phase",
    "frame_function",
    "group_by_stack",
    "phase_indicator",
    "profile_application",
]
