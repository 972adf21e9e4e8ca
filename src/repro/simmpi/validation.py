"""MPI argument validation — the ``MPI_ERR`` surface.

Validation mirrors what a real implementation checks on entry: handle
resolution (which, with pointer-like handles, may itself segfault — see
:mod:`repro.simmpi.handles`), count signs, root ranges, and membership.
Anything that passes validation but is still wrong (an oversized count, a
mismatched root) fails later, inside the algorithms, exactly as on a
real machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .comm import Communicator
from .datatypes import Datatype
from .errors import MPIError
from .ops import ReduceOp

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import SimMPI


def _as_int(value: Any) -> int:
    """Coerce counts/roots to Python ints (numpy scalars flow in from
    application code and from bit-flipped parameter values)."""
    return int(value)


def check_count(count: Any, *, rank: int | None = None, what: str = "count") -> int:
    count = _as_int(count)
    if count < 0:
        raise MPIError("MPI_ERR_COUNT", f"negative {what}: {count}", rank=rank)
    return count


def check_counts_array(values: Sequence[int], *, rank: int | None = None, what: str = "counts") -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if (arr < 0).any():
        bad = int(arr[arr < 0][0])
        raise MPIError("MPI_ERR_COUNT", f"negative entry in {what}: {bad}", rank=rank)
    return arr


def resolve_datatype(runtime: "SimMPI", handle: Any, *, rank: int | None = None) -> Datatype:
    return runtime.type_space.resolve(_as_int(handle), rank=rank)


def resolve_op(runtime: "SimMPI", handle: Any, *, rank: int | None = None) -> ReduceOp:
    return runtime.op_space.resolve(_as_int(handle), rank=rank)


def resolve_comm(runtime: "SimMPI", handle: Any, *, rank: int | None = None) -> Communicator:
    comm = runtime.comm_factory.space.resolve(_as_int(handle), rank=rank)
    if rank is not None and not comm.contains(rank):
        # A corrupted handle aliased a live communicator this rank is not
        # a member of; real MPI reports an invalid communicator.
        raise MPIError(
            "MPI_ERR_COMM",
            f"rank {rank} is not a member of {comm.name}",
            rank=rank,
        )
    return comm


def check_root(root: Any, comm: Communicator, *, rank: int | None = None) -> int:
    root = _as_int(root)
    if not 0 <= root < comm.size:
        raise MPIError(
            "MPI_ERR_ROOT", f"root {root} out of range for size {comm.size}", rank=rank
        )
    return root


def check_addr(addr: Any, *, rank: int | None = None, what: str = "buffer") -> int:
    addr = _as_int(addr)
    if addr < 0:
        raise MPIError("MPI_ERR_BUFFER", f"negative {what} address", rank=rank)
    return addr


# -- entry checks, one per collective -------------------------------------
#
# Each collective validates its (possibly corrupted) arguments in exactly
# one function, which returns the resolved values its algorithm runs on.
# The live call in :class:`~repro.simmpi.context.Context` calls it right
# after the instruments saw the call; the snapshot engine calls the same
# function on a struck copy of a parked call's arguments, through
# :data:`ENTRY_CHECKS`, to learn whether the strike ends the job at entry.


def bcast_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    count = check_count(a["count"], rank=rank)
    root = check_root(a["root"], comm, rank=rank)
    addr = check_addr(a["buffer"], rank=rank)
    return comm, dtype, count, root, addr


def reduce_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    op = resolve_op(runtime, a["op"], rank=rank)
    count = check_count(a["count"], rank=rank)
    root = check_root(a["root"], comm, rank=rank)
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, op, count, root, sendaddr, recvaddr


def allreduce_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    """Allreduce, Scan and Exscan."""
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    op = resolve_op(runtime, a["op"], rank=rank)
    count = check_count(a["count"], rank=rank)
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, op, count, sendaddr, recvaddr


def rooted_exchange_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    """Scatter and Gather."""
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    sendcount = check_count(a["sendcount"], rank=rank, what="sendcount")
    recvcount = check_count(a["recvcount"], rank=rank, what="recvcount")
    root = check_root(a["root"], comm, rank=rank)
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, sendcount, recvcount, root, sendaddr, recvaddr


def exchange_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    """Allgather and Alltoall."""
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    sendcount = check_count(a["sendcount"], rank=rank, what="sendcount")
    recvcount = check_count(a["recvcount"], rank=rank, what="recvcount")
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, sendcount, recvcount, sendaddr, recvaddr


def alltoallv_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    sendcounts = check_counts_array(a["sendcounts"], rank=rank, what="sendcounts")
    recvcounts = check_counts_array(a["recvcounts"], rank=rank, what="recvcounts")
    sdispls = [int(x) for x in a["sdispls"]]
    rdispls = [int(x) for x in a["rdispls"]]
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, sendcounts, sdispls, recvcounts, rdispls, sendaddr, recvaddr


def barrier_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    return (resolve_comm(runtime, a["comm"], rank=rank),)


def reduce_scatter_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    op = resolve_op(runtime, a["op"], rank=rank)
    recvcount = check_count(a["recvcount"], rank=rank, what="recvcount")
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, op, recvcount, sendaddr, recvaddr


def gatherv_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    sendcount = check_count(a["sendcount"], rank=rank, what="sendcount")
    recvcounts = check_counts_array(a["recvcounts"], rank=rank, what="recvcounts")
    displs = [int(x) for x in a["displs"]]
    root = check_root(a["root"], comm, rank=rank)
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, sendcount, recvcounts, displs, root, sendaddr, recvaddr


def scatterv_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    sendcounts = check_counts_array(a["sendcounts"], rank=rank, what="sendcounts")
    displs = [int(x) for x in a["displs"]]
    recvcount = check_count(a["recvcount"], rank=rank, what="recvcount")
    root = check_root(a["root"], comm, rank=rank)
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, sendcounts, displs, recvcount, root, sendaddr, recvaddr


def allgatherv_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    dtype = resolve_datatype(runtime, a["datatype"], rank=rank)
    sendcount = check_count(a["sendcount"], rank=rank, what="sendcount")
    recvcounts = check_counts_array(a["recvcounts"], rank=rank, what="recvcounts")
    displs = [int(x) for x in a["displs"]]
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, dtype, sendcount, recvcounts, displs, sendaddr, recvaddr


def alltoallw_entry(runtime: "SimMPI", rank: int, a: dict[str, Any]) -> tuple:
    comm = resolve_comm(runtime, a["comm"], rank=rank)
    sendcounts = check_counts_array(a["sendcounts"], rank=rank, what="sendcounts")
    recvcounts = check_counts_array(a["recvcounts"], rank=rank, what="recvcounts")
    sdispls = [int(x) for x in a["sdispls"]]
    rdispls = [int(x) for x in a["rdispls"]]
    stypes = [resolve_datatype(runtime, h, rank=rank) for h in a["sendtypes"]]
    rtypes = [resolve_datatype(runtime, h, rank=rank) for h in a["recvtypes"]]
    sendaddr = check_addr(a["sendbuf"], rank=rank)
    recvaddr = check_addr(a["recvbuf"], rank=rank)
    return comm, sendcounts, sdispls, stypes, recvcounts, rdispls, rtypes, sendaddr, recvaddr


#: Every collective's entry checks, by name (the keys of
#: :data:`~repro.simmpi.calls.COLLECTIVE_PARAMS`).
ENTRY_CHECKS: dict[str, Callable[["SimMPI", int, dict[str, Any]], tuple]] = {
    "Bcast": bcast_entry,
    "Reduce": reduce_entry,
    "Allreduce": allreduce_entry,
    "Scatter": rooted_exchange_entry,
    "Gather": rooted_exchange_entry,
    "Allgather": exchange_entry,
    "Alltoall": exchange_entry,
    "Alltoallv": alltoallv_entry,
    "Barrier": barrier_entry,
    "Scan": allreduce_entry,
    "Exscan": allreduce_entry,
    "Reduce_scatter": reduce_scatter_entry,
    "Gatherv": gatherv_entry,
    "Scatterv": scatterv_entry,
    "Allgatherv": allgatherv_entry,
    "Alltoallw": alltoallw_entry,
}
