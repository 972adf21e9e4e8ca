"""Per-rank MPI context — the API applications program against.

Application code is written as generator functions receiving a
:class:`Context` and calling collectives with ``yield from``::

    def main(ctx):
        buf = ctx.alloc(100, ctx.DOUBLE, "field")
        out = ctx.alloc(100, ctx.DOUBLE, "sums")
        buf.view[:] = ctx.rank
        yield from ctx.Allreduce(buf.addr, out.addr, 100, ctx.DOUBLE, ctx.SUM, ctx.WORLD)
        return float(out.view.sum())

Every collective entry builds a :class:`~repro.simmpi.calls.CollectiveCall`
record, hands it to the registered instruments (the profiler records it;
the fault injector may flip a bit in a parameter or in buffer memory),
validates the — possibly corrupted — parameters through the collective's
one entry-check function (:data:`~repro.simmpi.validation.ENTRY_CHECKS`),
and only then expands the operation into point-to-point traffic.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Any, Generator, Sequence

from . import collectives as coll
from .calls import CollectiveCall, Instrument
from .collectives.env import CollEnv
from .comm import Communicator
from .errors import AppError, MPIError
from .fiber import Progress, Recv, Send
from .memory import ArrayRef, Memory
from .request import Request
from .validation import (
    allgatherv_entry,
    allreduce_entry,
    alltoallv_entry,
    alltoallw_entry,
    barrier_entry,
    bcast_entry,
    check_addr,
    check_count,
    exchange_entry,
    gatherv_entry,
    reduce_entry,
    reduce_scatter_entry,
    resolve_comm,
    resolve_datatype,
    rooted_exchange_entry,
    scatterv_entry,
)

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import SimMPI

_PKG_DIR = os.path.dirname(os.path.abspath(__file__))
_FIBER_FILE = os.path.join(_PKG_DIR, "fiber.py")
_SCHEDULER_FILE = os.path.join(_PKG_DIR, "scheduler.py")

#: Application phases recognised by the ``Phase`` ML feature (§ III-C).
PHASES = ("init", "input", "compute", "end")

#: Reserved tag-step space for communicator construction traffic.
_COMM_CTRL_STEP = 255

#: Point-to-point traffic is matched in a context-id space disjoint from
#: collective traffic, as real MPI separates the two.
P2P_CONTEXT_OFFSET = 1 << 30

#: Shared weight-1 tick — scheduler treats syscalls as immutable.
_PROGRESS_ONE = Progress(1)


class Context:
    """One rank's view of the simulated MPI world."""

    def __init__(self, runtime: "SimMPI", rank: int, instruments: Sequence[Instrument] = ()):
        self.runtime = runtime
        self.rank = rank
        self.size = runtime.nranks
        self._tracer = getattr(runtime, "tracer", None)
        self.memory = Memory(
            rank,
            runtime.arena_size,
            tracer=self._tracer,
            alloc_cap=getattr(runtime, "alloc_cap", None),
            sanitizer=getattr(runtime, "sanitizer", None),
        )
        self.instruments = list(instruments)
        #: Nonblocking requests handed out by this rank; the sanitizer's
        #: teardown sweep flags any still incomplete (request leaks).
        self._live_requests: list[Request] = []
        self.phase = "init"
        self._site_counters: dict[tuple[str, str], int] = {}
        self._coll_seq = 0
        self._comm_seq: dict[int, int] = {}

        # Named handles, mirroring the MPI predefined objects.
        for name, handle in runtime.type_handles.items():
            setattr(self, name.removeprefix("MPI_"), handle)
        for name, handle in runtime.op_handles.items():
            setattr(self, name.removeprefix("MPI_"), handle)
        self.WORLD = runtime.world_handle

    # -- application-facing helpers -----------------------------------

    def alloc(self, count: int, datatype_handle: int, label: str = "") -> ArrayRef:
        """Allocate a typed buffer of ``count`` elements in rank memory."""
        dtype = self.runtime.type_space.resolve(int(datatype_handle), rank=self.rank)
        return self.memory.alloc_array(count, dtype, label=label)

    def set_phase(self, phase: str) -> None:
        """Mark the current application phase (``Phase`` ML feature)."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        self.phase = phase

    def progress(self, weight: int = 1) -> Generator:
        """Report ``weight`` units of compute against the step budget."""
        # Unit ticks dominate compute loops; reuse one shared syscall
        # instead of allocating a fresh Progress per tick.
        yield _PROGRESS_ONE if weight == 1 else Progress(weight)

    def app_error(self, message: str) -> None:
        """Abort the job from application error-handling code
        (``APP_DETECTED``)."""
        raise AppError(message, rank=self.rank)

    def comm_rank(self, comm_handle: int) -> int:
        """This rank's comm-local rank."""
        return resolve_comm(self.runtime, comm_handle, rank=self.rank).rank_of(self.rank)

    def comm_size(self, comm_handle: int) -> int:
        return resolve_comm(self.runtime, comm_handle, rank=self.rank).size

    # -- call-record plumbing ------------------------------------------

    def _capture_stack(self) -> tuple[tuple[str, ...], str]:
        """Capture the application call stack (our ``backtrace()``).

        Walks live interpreter frames from the collective entry up to the
        fiber trampoline, keeping only application frames.  Returns the
        canonical stack (outermost first) and the call-site id.
        """
        raw: list[tuple[str, str, int]] = []
        frame = sys._getframe(1)
        while frame is not None:
            code = frame.f_code
            # The trampoline is either Fiber.step or (on the inlined hot
            # path) the scheduler's run loop — both end the app stack.
            if (code.co_filename == _FIBER_FILE and code.co_name == "step") or (
                code.co_filename == _SCHEDULER_FILE and code.co_name == "run"
            ):
                break
            raw.append((code.co_filename, code.co_name, frame.f_lineno))
            frame = frame.f_back
        app_frames = [
            (fn, name, lineno)
            for fn, name, lineno in raw
            if not fn.startswith(_PKG_DIR)
        ]
        if not app_frames:
            return ("<unknown>",), "<unknown>"
        site_fn, _, site_lineno = app_frames[0]
        site = f"{os.path.basename(site_fn)}:{site_lineno}"
        stack = tuple(
            f"{name}@{os.path.basename(fn)}:{lineno}"
            for fn, name, lineno in reversed(app_frames)
        )
        return stack, site

    def _enter(self, name: str, args: dict[str, Any]) -> CollectiveCall:
        stack, site = self._capture_stack()
        key = (name, site)
        invocation = self._site_counters.get(key, 0)
        self._site_counters[key] = invocation + 1
        call = CollectiveCall(
            rank=self.rank,
            name=name,
            site=site,
            stack=stack,
            invocation=invocation,
            seq=self._coll_seq,
            phase=self.phase,
            args=args,
        )
        self._coll_seq += 1
        if self._tracer is not None:
            self._tracer.emit(
                "coll_enter", self.rank,
                name=name, site=site, invocation=invocation,
                seq=call.seq, phase=self.phase,
            )
        for ins in self.instruments:
            ins.on_collective(self, call)
        return call

    def _complete(self, call: CollectiveCall) -> None:
        if self._tracer is not None:
            self._tracer.emit(
                "coll_exit", self.rank,
                name=call.name, site=call.site, invocation=call.invocation,
                seq=call.seq,
            )
        for ins in self.instruments:
            ins.on_complete(self, call)

    def _env(self, comm: Communicator) -> CollEnv:
        seq = self._comm_seq.get(comm.context_id, 0)
        self._comm_seq[comm.context_id] = seq + 1
        return CollEnv(comm, self.rank, seq, self.memory)

    # -- collectives ---------------------------------------------------

    def Bcast(self, buffer: int, count: int, datatype: int, root: int, comm: int) -> Generator:
        """MPI_Bcast."""
        call = self._enter(
            "Bcast",
            {"buffer": buffer, "count": count, "datatype": datatype, "root": root, "comm": comm},
        )
        comm_obj, dtype, count, root, addr = bcast_entry(self.runtime, self.rank, call.args)
        yield from coll.bcast(
            self._env(comm_obj), addr, count, dtype, root,
            algorithm=self.runtime.algorithms["bcast"],
        )
        self._complete(call)

    def Reduce(
        self,
        sendbuf: int,
        recvbuf: int,
        count: int,
        datatype: int,
        op: int,
        root: int,
        comm: int,
    ) -> Generator:
        """MPI_Reduce."""
        call = self._enter(
            "Reduce",
            {
                "sendbuf": sendbuf,
                "recvbuf": recvbuf,
                "count": count,
                "datatype": datatype,
                "op": op,
                "root": root,
                "comm": comm,
            },
        )
        comm_obj, dtype, op_obj, count, root, sendaddr, recvaddr = reduce_entry(
            self.runtime, self.rank, call.args
        )
        yield from coll.reduce(
            self._env(comm_obj), sendaddr, recvaddr, count, dtype, op_obj, root
        )
        self._complete(call)

    def Allreduce(
        self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int, comm: int
    ) -> Generator:
        """MPI_Allreduce."""
        call = self._enter(
            "Allreduce",
            {
                "sendbuf": sendbuf,
                "recvbuf": recvbuf,
                "count": count,
                "datatype": datatype,
                "op": op,
                "comm": comm,
            },
        )
        comm_obj, dtype, op_obj, count, sendaddr, recvaddr = allreduce_entry(
            self.runtime, self.rank, call.args
        )
        yield from coll.allreduce(
            self._env(comm_obj), sendaddr, recvaddr, count, dtype, op_obj,
            algorithm=self.runtime.algorithms["allreduce"],
        )
        self._complete(call)

    def Scatter(
        self,
        sendbuf: int,
        sendcount: int,
        recvbuf: int,
        recvcount: int,
        datatype: int,
        root: int,
        comm: int,
    ) -> Generator:
        """MPI_Scatter (single datatype for both sides)."""
        call = self._enter(
            "Scatter",
            {
                "sendbuf": sendbuf,
                "sendcount": sendcount,
                "recvbuf": recvbuf,
                "recvcount": recvcount,
                "datatype": datatype,
                "root": root,
                "comm": comm,
            },
        )
        comm_obj, dtype, sendcount, recvcount, root, sendaddr, recvaddr = (
            rooted_exchange_entry(self.runtime, self.rank, call.args)
        )
        yield from coll.scatter(
            self._env(comm_obj), sendaddr, sendcount, recvaddr, recvcount, dtype, root
        )
        self._complete(call)

    def Gather(
        self,
        sendbuf: int,
        sendcount: int,
        recvbuf: int,
        recvcount: int,
        datatype: int,
        root: int,
        comm: int,
    ) -> Generator:
        """MPI_Gather (single datatype for both sides)."""
        call = self._enter(
            "Gather",
            {
                "sendbuf": sendbuf,
                "sendcount": sendcount,
                "recvbuf": recvbuf,
                "recvcount": recvcount,
                "datatype": datatype,
                "root": root,
                "comm": comm,
            },
        )
        comm_obj, dtype, sendcount, recvcount, root, sendaddr, recvaddr = (
            rooted_exchange_entry(self.runtime, self.rank, call.args)
        )
        yield from coll.gather(
            self._env(comm_obj), sendaddr, sendcount, recvaddr, recvcount, dtype, root
        )
        self._complete(call)

    def Allgather(
        self, sendbuf: int, sendcount: int, recvbuf: int, recvcount: int, datatype: int, comm: int
    ) -> Generator:
        """MPI_Allgather."""
        call = self._enter(
            "Allgather",
            {
                "sendbuf": sendbuf,
                "sendcount": sendcount,
                "recvbuf": recvbuf,
                "recvcount": recvcount,
                "datatype": datatype,
                "comm": comm,
            },
        )
        comm_obj, dtype, sendcount, recvcount, sendaddr, recvaddr = exchange_entry(
            self.runtime, self.rank, call.args
        )
        yield from coll.allgather(
            self._env(comm_obj), sendaddr, sendcount, recvaddr, recvcount, dtype
        )
        self._complete(call)

    def Alltoall(
        self, sendbuf: int, sendcount: int, recvbuf: int, recvcount: int, datatype: int, comm: int
    ) -> Generator:
        """MPI_Alltoall."""
        call = self._enter(
            "Alltoall",
            {
                "sendbuf": sendbuf,
                "sendcount": sendcount,
                "recvbuf": recvbuf,
                "recvcount": recvcount,
                "datatype": datatype,
                "comm": comm,
            },
        )
        comm_obj, dtype, sendcount, recvcount, sendaddr, recvaddr = exchange_entry(
            self.runtime, self.rank, call.args
        )
        yield from coll.alltoall(
            self._env(comm_obj), sendaddr, sendcount, recvaddr, recvcount, dtype
        )
        self._complete(call)

    def Alltoallv(
        self,
        sendbuf: int,
        sendcounts: Sequence[int],
        sdispls: Sequence[int],
        recvbuf: int,
        recvcounts: Sequence[int],
        rdispls: Sequence[int],
        datatype: int,
        comm: int,
    ) -> Generator:
        """MPI_Alltoallv (counts/displacements in elements)."""
        call = self._enter(
            "Alltoallv",
            {
                "sendbuf": sendbuf,
                "sendcounts": sendcounts,
                "sdispls": sdispls,
                "recvbuf": recvbuf,
                "recvcounts": recvcounts,
                "rdispls": rdispls,
                "datatype": datatype,
                "comm": comm,
            },
        )
        comm_obj, dtype, sendcounts, sdispls, recvcounts, rdispls, sendaddr, recvaddr = (
            alltoallv_entry(self.runtime, self.rank, call.args)
        )
        yield from coll.alltoallv(
            self._env(comm_obj),
            sendaddr,
            sendcounts,
            sdispls,
            recvaddr,
            recvcounts,
            rdispls,
            dtype,
        )
        self._complete(call)

    def Barrier(self, comm: int) -> Generator:
        """MPI_Barrier."""
        call = self._enter("Barrier", {"comm": comm})
        (comm_obj,) = barrier_entry(self.runtime, self.rank, call.args)
        yield from coll.barrier(self._env(comm_obj))
        self._complete(call)

    def _prefix_reduction(
        self, name: str, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int, comm: int
    ) -> Generator:
        call = self._enter(
            name,
            {
                "sendbuf": sendbuf,
                "recvbuf": recvbuf,
                "count": count,
                "datatype": datatype,
                "op": op,
                "comm": comm,
            },
        )
        comm_obj, dtype, op_obj, count, sendaddr, recvaddr = allreduce_entry(
            self.runtime, self.rank, call.args
        )
        driver = coll.scan if name == "Scan" else coll.exscan
        yield from driver(self._env(comm_obj), sendaddr, recvaddr, count, dtype, op_obj)
        self._complete(call)

    def Scan(
        self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int, comm: int
    ) -> Generator:
        """MPI_Scan (inclusive prefix reduction)."""
        yield from self._prefix_reduction("Scan", sendbuf, recvbuf, count, datatype, op, comm)

    def Exscan(
        self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int, comm: int
    ) -> Generator:
        """MPI_Exscan (exclusive prefix reduction; rank 0's recvbuf is
        undefined, as in MPI)."""
        yield from self._prefix_reduction("Exscan", sendbuf, recvbuf, count, datatype, op, comm)

    def Reduce_scatter(
        self, sendbuf: int, recvbuf: int, recvcount: int, datatype: int, op: int, comm: int
    ) -> Generator:
        """MPI_Reduce_scatter_block (equal ``recvcount`` per rank)."""
        call = self._enter(
            "Reduce_scatter",
            {
                "sendbuf": sendbuf,
                "recvbuf": recvbuf,
                "recvcount": recvcount,
                "datatype": datatype,
                "op": op,
                "comm": comm,
            },
        )
        comm_obj, dtype, op_obj, recvcount, sendaddr, recvaddr = reduce_scatter_entry(
            self.runtime, self.rank, call.args
        )
        yield from coll.reduce_scatter_block(
            self._env(comm_obj), sendaddr, recvaddr, recvcount, dtype, op_obj
        )
        self._complete(call)

    def Gatherv(
        self,
        sendbuf: int,
        sendcount: int,
        recvbuf: int,
        recvcounts: Sequence[int],
        displs: Sequence[int],
        datatype: int,
        root: int,
        comm: int,
    ) -> Generator:
        """MPI_Gatherv (recvcounts/displs significant only at the root)."""
        call = self._enter(
            "Gatherv",
            {
                "sendbuf": sendbuf,
                "sendcount": sendcount,
                "recvbuf": recvbuf,
                "recvcounts": recvcounts,
                "displs": displs,
                "datatype": datatype,
                "root": root,
                "comm": comm,
            },
        )
        comm_obj, dtype, sendcount, recvcounts, displs, root, sendaddr, recvaddr = (
            gatherv_entry(self.runtime, self.rank, call.args)
        )
        yield from coll.gatherv(
            self._env(comm_obj), sendaddr, sendcount, recvaddr, recvcounts, displs, dtype, root
        )
        self._complete(call)

    def Scatterv(
        self,
        sendbuf: int,
        sendcounts: Sequence[int],
        displs: Sequence[int],
        recvbuf: int,
        recvcount: int,
        datatype: int,
        root: int,
        comm: int,
    ) -> Generator:
        """MPI_Scatterv (sendcounts/displs significant only at the root)."""
        call = self._enter(
            "Scatterv",
            {
                "sendbuf": sendbuf,
                "sendcounts": sendcounts,
                "displs": displs,
                "recvbuf": recvbuf,
                "recvcount": recvcount,
                "datatype": datatype,
                "root": root,
                "comm": comm,
            },
        )
        comm_obj, dtype, sendcounts, displs, recvcount, root, sendaddr, recvaddr = (
            scatterv_entry(self.runtime, self.rank, call.args)
        )
        yield from coll.scatterv(
            self._env(comm_obj), sendaddr, sendcounts, displs, recvaddr, recvcount, dtype, root
        )
        self._complete(call)

    def Allgatherv(
        self,
        sendbuf: int,
        sendcount: int,
        recvbuf: int,
        recvcounts: Sequence[int],
        displs: Sequence[int],
        datatype: int,
        comm: int,
    ) -> Generator:
        """MPI_Allgatherv."""
        call = self._enter(
            "Allgatherv",
            {
                "sendbuf": sendbuf,
                "sendcount": sendcount,
                "recvbuf": recvbuf,
                "recvcounts": recvcounts,
                "displs": displs,
                "datatype": datatype,
                "comm": comm,
            },
        )
        comm_obj, dtype, sendcount, recvcounts, displs, sendaddr, recvaddr = (
            allgatherv_entry(self.runtime, self.rank, call.args)
        )
        yield from coll.allgatherv(
            self._env(comm_obj), sendaddr, sendcount, recvaddr, recvcounts, displs, dtype
        )
        self._complete(call)

    def Alltoallw(
        self,
        sendbuf: int,
        sendcounts: Sequence[int],
        sdispls: Sequence[int],
        sendtypes: Sequence[int],
        recvbuf: int,
        recvcounts: Sequence[int],
        rdispls: Sequence[int],
        recvtypes: Sequence[int],
        comm: int,
    ) -> Generator:
        """MPI_Alltoallw (per-peer datatypes; displacements in *bytes*)."""
        call = self._enter(
            "Alltoallw",
            {
                "sendbuf": sendbuf,
                "sendcounts": sendcounts,
                "sdispls": sdispls,
                "sendtypes": sendtypes,
                "recvbuf": recvbuf,
                "recvcounts": recvcounts,
                "rdispls": rdispls,
                "recvtypes": recvtypes,
                "comm": comm,
            },
        )
        comm_obj, sendcounts, sdispls, stypes, recvcounts, rdispls, rtypes, sendaddr, recvaddr = (
            alltoallw_entry(self.runtime, self.rank, call.args)
        )
        yield from coll.alltoallw(
            self._env(comm_obj),
            sendaddr,
            sendcounts,
            sdispls,
            stypes,
            recvaddr,
            recvcounts,
            rdispls,
            rtypes,
        )
        self._complete(call)

    # -- point-to-point (profiled as traces, never an injection target:
    # -- the paper's fault model covers collective parameters only) ----

    def Send(
        self, buf: int, count: int, datatype: int, dest: int, tag: int, comm: int
    ) -> Generator:
        """MPI_Send (buffered-eager: completes locally)."""
        comm_obj = resolve_comm(self.runtime, comm, rank=self.rank)
        dtype = resolve_datatype(self.runtime, datatype, rank=self.rank)
        count = check_count(count, rank=self.rank)
        dest = int(dest)
        if not 0 <= dest < comm_obj.size:
            raise MPIError("MPI_ERR_RANK", f"destination {dest} out of range", rank=self.rank)
        payload = self.memory.read(check_addr(buf, rank=self.rank), count * dtype.size)
        me = comm_obj.rank_of(self.rank)
        for ins in self.instruments:
            ins.on_p2p(self, "send", me, dest, int(tag), len(payload))
        yield Send(comm_obj.context_id + P2P_CONTEXT_OFFSET, me, dest, int(tag), payload)

    def Recv(
        self, buf: int, count: int, datatype: int, source: int, tag: int, comm: int
    ) -> Generator:
        """MPI_Recv (blocking). Returns the received element count."""
        comm_obj = resolve_comm(self.runtime, comm, rank=self.rank)
        dtype = resolve_datatype(self.runtime, datatype, rank=self.rank)
        count = check_count(count, rank=self.rank)
        source = int(source)
        if not 0 <= source < comm_obj.size:
            raise MPIError("MPI_ERR_RANK", f"source {source} out of range", rank=self.rank)
        addr = check_addr(buf, rank=self.rank)
        me = comm_obj.rank_of(self.rank)
        for ins in self.instruments:
            ins.on_p2p(self, "recv", source, me, int(tag), count * dtype.size)
        payload = yield Recv(
            comm_obj.context_id + P2P_CONTEXT_OFFSET, source, me, int(tag)
        )
        nbytes = count * dtype.size
        if len(payload) > nbytes:
            raise MPIError(
                "MPI_ERR_TRUNCATE",
                f"message of {len(payload)} bytes exceeds receive buffer of {nbytes}",
                rank=self.rank,
            )
        self.memory.write(addr, payload)
        return len(payload) // dtype.size

    def Isend(
        self, buf: int, count: int, datatype: int, dest: int, tag: int, comm: int
    ) -> Generator:
        """MPI_Isend: eager-buffered, so the request is born complete."""
        yield from self.Send(buf, count, datatype, dest, tag, comm)
        return Request(kind="send", complete=True)

    def Irecv(
        self, buf: int, count: int, datatype: int, source: int, tag: int, comm: int
    ) -> "Request":
        """MPI_Irecv: lazy — the receive happens at :meth:`Wait`.

        Equivalent to an early post under eager sends and exact-match
        receives (see :mod:`repro.simmpi.request`).  Not a generator:
        nothing communicates until the request is waited on.
        """
        req = Request(kind="recv")
        req._pending = {
            "buf": buf,
            "count": count,
            "datatype": datatype,
            "source": source,
            "tag": tag,
            "comm": comm,
        }
        self._live_requests.append(req)
        return req

    def Wait(self, request: "Request") -> Generator:
        """MPI_Wait: complete a request; returns received element count."""
        if request.complete:
            return request.result
        p = request._pending
        received = yield from self.Recv(
            p["buf"], p["count"], p["datatype"], p["source"], p["tag"], p["comm"]
        )
        request.complete = True
        request.result = received
        request._pending = {}
        return received

    def Waitall(self, requests: Sequence["Request"]) -> Generator:
        """MPI_Waitall: complete every request, in order."""
        results = []
        for req in requests:
            r = yield from self.Wait(req)
            results.append(r)
        return results

    def Sendrecv(
        self,
        sendbuf: int,
        sendcount: int,
        dest: int,
        recvbuf: int,
        recvcount: int,
        source: int,
        datatype: int,
        tag: int,
        comm: int,
    ) -> Generator:
        """MPI_Sendrecv with a shared datatype and tag."""
        yield from self.Send(sendbuf, sendcount, datatype, dest, tag, comm)
        received = yield from self.Recv(recvbuf, recvcount, datatype, source, tag, comm)
        return received

    # -- communicator construction (not an injection target) -----------

    def Comm_split(self, comm: int, color: int, key: int | None = None) -> Generator:
        """MPI_Comm_split: returns the handle of this rank's new comm.

        Implemented as a gather of colours to comm-local rank 0 (which
        creates the sub-communicators deterministically) followed by a
        scatter of handles.  Communicator construction is not a fault
        target in the paper, so this path is not instrumented.
        """
        comm_obj = resolve_comm(self.runtime, comm, rank=self.rank)
        env = self._env(comm_obj)
        me = comm_obj.rank_of(self.rank)
        payload = int(color).to_bytes(8, "little", signed=True)
        if me == 0:
            colours = {comm_obj.world_rank(0): int(color)}
            for r in range(1, comm_obj.size):
                raw = yield from env.recv(r, _COMM_CTRL_STEP)
                colours[comm_obj.world_rank(r)] = int.from_bytes(raw, "little", signed=True)
            created = self.runtime.comm_factory.split(comm_obj, colours)
            handles = {
                world: created[colours[world]][1]
                for world in comm_obj.group
            }
            for r in range(1, comm_obj.size):
                h = handles[comm_obj.world_rank(r)]
                yield from env.send(r, _COMM_CTRL_STEP, h.to_bytes(8, "little"))
            return handles[comm_obj.world_rank(0)]
        else:
            yield from env.send(0, _COMM_CTRL_STEP, payload)
            raw = yield from env.recv(0, _COMM_CTRL_STEP)
            return int.from_bytes(raw, "little")

    def Comm_dup(self, comm: int) -> Generator:
        """MPI_Comm_dup: a new communicator over the same group."""
        comm_obj = resolve_comm(self.runtime, comm, rank=self.rank)
        env = self._env(comm_obj)
        me = comm_obj.rank_of(self.rank)
        if me == 0:
            _, handle = self.runtime.comm_factory.create(
                comm_obj.group, name=f"{comm_obj.name}/dup"
            )
            for r in range(1, comm_obj.size):
                yield from env.send(r, _COMM_CTRL_STEP, handle.to_bytes(8, "little"))
            return handle
        raw = yield from env.recv(0, _COMM_CTRL_STEP)
        return int.from_bytes(raw, "little")
