"""Collective call records and parameter schemas.

A :class:`CollectiveCall` is built at every collective entry and handed
to the registered instruments *before* validation and execution.  The
fault injector mutates ``args`` in place (a transient fault in the call's
input parameters, exactly the paper's fault model); the profiler records
the clean call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Parameter schema per collective, in the MPI interface's order.
#: Keys name the entries of ``CollectiveCall.args``.
COLLECTIVE_PARAMS: dict[str, tuple[str, ...]] = {
    "Bcast": ("buffer", "count", "datatype", "root", "comm"),
    "Reduce": ("sendbuf", "recvbuf", "count", "datatype", "op", "root", "comm"),
    "Allreduce": ("sendbuf", "recvbuf", "count", "datatype", "op", "comm"),
    "Scatter": ("sendbuf", "sendcount", "recvbuf", "recvcount", "datatype", "root", "comm"),
    "Gather": ("sendbuf", "sendcount", "recvbuf", "recvcount", "datatype", "root", "comm"),
    "Allgather": ("sendbuf", "sendcount", "recvbuf", "recvcount", "datatype", "comm"),
    "Alltoall": ("sendbuf", "sendcount", "recvbuf", "recvcount", "datatype", "comm"),
    "Alltoallv": (
        "sendbuf",
        "sendcounts",
        "sdispls",
        "recvbuf",
        "recvcounts",
        "rdispls",
        "datatype",
        "comm",
    ),
    "Barrier": ("comm",),
    "Scan": ("sendbuf", "recvbuf", "count", "datatype", "op", "comm"),
    "Exscan": ("sendbuf", "recvbuf", "count", "datatype", "op", "comm"),
    "Reduce_scatter": ("sendbuf", "recvbuf", "recvcount", "datatype", "op", "comm"),
    "Gatherv": (
        "sendbuf",
        "sendcount",
        "recvbuf",
        "recvcounts",
        "displs",
        "datatype",
        "root",
        "comm",
    ),
    "Scatterv": (
        "sendbuf",
        "sendcounts",
        "displs",
        "recvbuf",
        "recvcount",
        "datatype",
        "root",
        "comm",
    ),
    "Allgatherv": (
        "sendbuf",
        "sendcount",
        "recvbuf",
        "recvcounts",
        "displs",
        "datatype",
        "comm",
    ),
    "Alltoallw": (
        "sendbuf",
        "sendcounts",
        "sdispls",
        "sendtypes",
        "recvbuf",
        "recvcounts",
        "rdispls",
        "recvtypes",
        "comm",
    ),
}

#: Rooted collectives (one process has a distinguished communication
#: pattern) — the basis of semantic-driven pruning (paper § III-A).
ROOTED_COLLECTIVES = frozenset(
    {"Bcast", "Reduce", "Scatter", "Gather", "Gatherv", "Scatterv"}
)

#: Parameters that denote message *payload* buffers (fault target = a bit
#: of the buffer contents, not of the pointer — the paper never flips
#: buffer addresses because the outcome is trivially catastrophic).
BUFFER_PARAMS = frozenset({"buffer", "sendbuf", "recvbuf"})

#: Parameters holding pointer-like MPI object handles.
HANDLE_PARAMS = frozenset({"datatype", "op", "comm"})

#: Parameters holding 32-bit integer values.
SCALAR_PARAMS = frozenset({"count", "sendcount", "recvcount", "root"})

#: Parameters holding per-peer integer arrays (alltoallv/w).
VECTOR_PARAMS = frozenset(
    {"sendcounts", "recvcounts", "sdispls", "rdispls", "displs"}
)

#: Parameters holding per-peer arrays of pointer-like handles
#: (alltoallw's datatype arrays).
HANDLE_VECTOR_PARAMS = frozenset({"sendtypes", "recvtypes"})

#: Stable small integer per collective name, used as the ``Type`` feature
#: of the ML model (paper § III-C, feature 1).
COLLECTIVE_TYPE_IDS: dict[str, int] = {
    name: i for i, name in enumerate(sorted(COLLECTIVE_PARAMS))
}


@dataclass
class CollectiveCall:
    """One rank's invocation of one collective operation.

    Attributes
    ----------
    rank:
        World rank making the call.
    name:
        Collective name, e.g. ``"Allreduce"``.
    site:
        Static call-site id (``file:lineno`` of the caller).
    stack:
        Canonicalised call stack (outermost first), the paper's
        ``backtrace()`` equivalent.
    invocation:
        0-based index of this call among this rank's calls at ``site``.
    seq:
        0-based index among all of this rank's collective calls.
    phase:
        Application phase (``init``/``input``/``compute``/``end``).
    args:
        Parameter name → value, following :data:`COLLECTIVE_PARAMS`.
        Mutated in place by the fault injector.
    """

    rank: int
    name: str
    site: str
    stack: tuple[str, ...]
    invocation: int
    seq: int
    phase: str
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def site_key(self) -> tuple[str, str]:
        """Identity of the static call site: (collective name, location)."""
        return (self.name, self.site)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CollectiveCall({self.name} @ {self.site}, rank={self.rank}, "
            f"inv={self.invocation}, phase={self.phase})"
        )


class Instrument:
    """Base class for simulator hooks (profiler, fault injectors, park).

    Collective entry is the one fault surface: ``on_collective`` gets
    the mutable :class:`CollectiveCall` before validation.  Point-to-point
    operations are only observed, through ``on_p2p``; no hook can
    change their arguments.
    """

    def on_collective(self, ctx, call: CollectiveCall) -> None:
        """Called at every collective entry, before validation."""

    def on_complete(self, ctx, call: CollectiveCall) -> None:
        """Called after the collective finished without raising."""

    def on_p2p(self, ctx, kind: str, src: int, dst: int, tag: int, nbytes: int) -> None:
        """Called at every point-to-point operation.

        Point-to-point is never a fault target (the paper's model covers
        collective parameters only), but the profiler records it: the
        communication *trace* feeds process-equivalence analysis
        (paper § III-A).
        """
