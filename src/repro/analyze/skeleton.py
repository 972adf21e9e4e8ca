"""Record-only skeleton extraction (static pass 1, input to the others).

A *skeleton* is the per-rank sequence of collective invocations an
application performs, captured symbolically: collective name, call site,
communicator group, root, counts, datatypes, reduction ops, and buffer
addresses — everything the matching checker and the fault-outcome
pre-classifier need, and nothing payload-specific.

Extraction dry-runs the application under a :class:`RecordingContext`, a
``Context`` subclass whose collective methods *record and meet* instead
of expanding into point-to-point schedules: each rank parks at an
arrival marker, and once every communicator member has arrived the data
effect is applied in one shot with the independent reference model from
``repro.verify.reference``.  No scheduler, no fibers, no per-message
traffic — the trampoline below is a simple round-robin resumption loop,
so a skeleton run is both faster than a simulated run and structurally
transparent: if ranks disagree about the next collective, extraction
stops with the exact per-rank disagreement.

Point-to-point traffic (``Send``/``Recv``/``Sendrecv``/``Isend``…) is
supported through the *inherited* context methods: the trampoline speaks
the fiber syscall protocol directly, with the same eager-send /
blocking-receive semantics as the production scheduler.

Because ``RecordingContext`` reuses the real ``Context._enter`` plumbing
(with a stack-capture filter extended to this package), skeleton call
sites, invocation counters, and sequence numbers are *identical* to the
ones a profiled run produces — a skeleton op can be joined to an
:class:`~repro.injection.space.InjectionPoint` by key.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Generator, Mapping, Sequence

import numpy as np

from ..apps.base import Application
from ..simmpi import COLLECTIVE_PARAMS, CollectiveCall
from ..simmpi import context as _context_mod
from ..simmpi.calls import (
    BUFFER_PARAMS,
    HANDLE_VECTOR_PARAMS,
    SCALAR_PARAMS,
    VECTOR_PARAMS,
)
from ..simmpi.comm import Communicator
from ..simmpi.context import Context
from ..simmpi.datatypes import Datatype
from ..simmpi.fiber import Progress, Recv, Send
from ..simmpi.handles import OBJECT_EXTENT, HandleSpace
from ..simmpi.memory import Memory
from ..simmpi.ops import ReduceOp
from ..simmpi.runtime import SimMPI
from ..simmpi.validation import (
    check_addr,
    check_count,
    check_counts_array,
    check_root,
    resolve_comm,
    resolve_datatype,
    resolve_op,
)
from ..verify import reference as ref

_THIS_FILE = os.path.abspath(__file__)
_ANALYZE_DIR = os.path.dirname(_THIS_FILE)
_SIMMPI_DIR = os.path.dirname(os.path.abspath(_context_mod.__file__))

#: Resumption-count guard for the extraction trampoline: a dry run that
#: exceeds it is declared non-terminating (clean apps finish far below).
DEFAULT_RESUME_LIMIT = 20_000_000


class SkeletonExtractionError(RuntimeError):
    """The dry run could not complete — structural bug in the app.

    Raised with per-rank state when ranks disagree about the next
    collective on a communicator or the run wedges with pending
    receives: exactly the class of defect the matching checker exists
    to report, surfaced at extraction time.
    """


@dataclass(frozen=True, slots=True)
class SkeletonOp:
    """One rank's symbolic record of one collective invocation."""

    rank: int
    name: str
    site: str
    invocation: int
    seq: int
    phase: str
    comm_group: tuple[int, ...]
    comm_context: int
    me: int
    root_world: int | None
    dtype: str | None
    dtype_size: int
    op: str | None
    op_commutative: bool | None
    args: Mapping[str, Any]
    stack: tuple[str, ...] = ()

    @property
    def point_key(self) -> tuple[int, str, str, int]:
        """Join key against :class:`~repro.injection.space.InjectionPoint`."""
        return (self.rank, self.name, self.site, self.invocation)


@dataclass(frozen=True, slots=True)
class HandleTable:
    """Static snapshot of one pointer-like handle space.

    ``resolve_static`` mirrors :meth:`repro.simmpi.handles.HandleSpace.resolve`
    without executing anything: the three outcomes (live object /
    corrupted-but-alive / unmapped) are decidable from the layout alone.
    """

    kind: str
    base: int
    top: int
    descr: Mapping[int, str]
    groups: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    #: Datatype table only: handle -> element size in bytes.
    sizes: Mapping[int, int] = field(default_factory=dict)

    @property
    def live(self) -> tuple[int, ...]:
        return tuple(sorted(self.descr))

    def resolve_static(self, handle: int) -> tuple[str, int | None]:
        """Classify ``handle`` as ``("live", h)``, ``("corrupt", base)``,
        or ``("segfault", None)`` — exactly like the runtime would."""
        if handle in self.descr:
            return ("live", handle)
        offset = handle - self.base
        if 0 <= offset < self.top - self.base and handle % OBJECT_EXTENT != 0:
            aligned = handle - (handle % OBJECT_EXTENT)
            if aligned in self.descr:
                return ("corrupt", aligned)
        return ("segfault", None)


@dataclass
class Skeleton:
    """The full symbolic communication skeleton of one application run."""

    app_name: str
    nranks: int
    arena_base: int
    arena_size: int
    algorithms: dict[str, str]
    datatypes: HandleTable
    reduce_ops: HandleTable
    comms: HandleTable
    ranks: list[list[SkeletonOp]]
    results: list[Any] = field(default_factory=list)

    @property
    def n_ops(self) -> int:
        return sum(len(seq) for seq in self.ranks)

    @property
    def arena_end(self) -> int:
        return self.arena_base + self.arena_size

    def op_index(self) -> dict[tuple[int, str, str, int], SkeletonOp]:
        """``(rank, collective, site, invocation) -> op`` lookup."""
        index: dict[tuple[int, str, str, int], SkeletonOp] = {}
        for seq in self.ranks:
            for op in seq:
                index[op.point_key] = op
        return index

    def site_invocations(self) -> dict[tuple[int, tuple[str, str]], int]:
        """Per ``(rank, (name, site))`` invocation counts — the same key
        shape as ``ApplicationProfile.summaries``."""
        counts: dict[tuple[int, tuple[str, str]], int] = {}
        for seq in self.ranks:
            for op in seq:
                key = (op.rank, (op.name, op.site))
                counts[key] = counts.get(key, 0) + 1
        return counts


@dataclass(slots=True)
class _Arrival:
    """Yielded by a recording collective; parks the rank until the meet."""

    op: SkeletonOp
    call: CollectiveCall
    comm: Communicator
    dtype: Datatype | None
    rop: ReduceOp | None
    stypes: tuple[Datatype, ...] | None = None
    rtypes: tuple[Datatype, ...] | None = None


class RecordingContext(Context):
    """A per-rank context that records collectives instead of running them.

    Everything application-facing — allocation, phases, predefined
    handles, point-to-point methods — is inherited unchanged from the
    real :class:`~repro.simmpi.context.Context`; only the collective
    entry points are replaced by :meth:`_record`.
    """

    def __init__(self, runtime: SimMPI, rank: int, ops_out: list[SkeletonOp]):
        super().__init__(runtime, rank, instruments=())
        self._ops_out = ops_out

    # -- stack capture --------------------------------------------------

    def _capture_stack(self) -> tuple[tuple[str, ...], str]:
        """Like ``Context._capture_stack`` but for the recording
        trampoline: frames from this package are harness frames too, and
        the stack ends at ``_step_fiber`` instead of the scheduler."""
        raw: list[tuple[str, str, int]] = []
        frame = sys._getframe(1)
        while frame is not None:
            code = frame.f_code
            if code.co_filename == _THIS_FILE and code.co_name == "_step_fiber":
                break
            raw.append((code.co_filename, code.co_name, frame.f_lineno))
            frame = frame.f_back
        app_frames = [
            (fn, name, lineno)
            for fn, name, lineno in raw
            if not fn.startswith(_SIMMPI_DIR) and not fn.startswith(_ANALYZE_DIR)
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

    # -- the generic recording collective -------------------------------

    def _record(self, name: str, args: dict[str, Any]) -> Generator:
        call = self._enter(name, args)
        a = call.args
        comm_obj = resolve_comm(self.runtime, a["comm"], rank=self.rank)
        dtype = rop = None
        stypes = rtypes = None
        if "datatype" in a:
            dtype = resolve_datatype(self.runtime, a["datatype"], rank=self.rank)
        if "op" in a:
            rop = resolve_op(self.runtime, a["op"], rank=self.rank)
        if "sendtypes" in a:
            stypes = tuple(
                resolve_datatype(self.runtime, h, rank=self.rank) for h in a["sendtypes"]
            )
            rtypes = tuple(
                resolve_datatype(self.runtime, h, rank=self.rank) for h in a["recvtypes"]
            )
        # Mirror the per-parameter validation of the real entry points.
        # Clean applications pass; a dirty one fails here exactly as it
        # would on the fiber's first step.
        for param in COLLECTIVE_PARAMS[name]:
            if param == "root":
                check_root(a["root"], comm_obj, rank=self.rank)
            elif param in SCALAR_PARAMS:
                check_count(a[param], rank=self.rank, what=param)
            elif param in ("sendcounts", "recvcounts"):
                check_counts_array(a[param], rank=self.rank, what=param)
            elif param in BUFFER_PARAMS:
                check_addr(a[param], rank=self.rank)
        norm: dict[str, Any] = {}
        for param in COLLECTIVE_PARAMS[name]:
            value = a[param]
            if param in VECTOR_PARAMS or param in HANDLE_VECTOR_PARAMS:
                norm[param] = tuple(int(x) for x in value)
            else:
                norm[param] = int(value)
        root_world = None
        if "root" in a:
            root_world = comm_obj.group[int(a["root"])]
        op = SkeletonOp(
            rank=self.rank,
            name=name,
            site=call.site,
            invocation=call.invocation,
            seq=call.seq,
            phase=call.phase,
            comm_group=comm_obj.group,
            comm_context=comm_obj.context_id,
            me=comm_obj.rank_of(self.rank),
            root_world=root_world,
            dtype=dtype.name if dtype is not None else None,
            dtype_size=dtype.size if dtype is not None else 1,
            op=rop.name if rop is not None else None,
            op_commutative=rop.commutative if rop is not None else None,
            args=norm,
            stack=call.stack,
        )
        self._ops_out.append(op)
        yield _Arrival(op, call, comm_obj, dtype, rop, stypes, rtypes)
        self._complete(call)

    # -- collective entry points (signatures match Context) -------------

    def Bcast(self, buffer: int, count: int, datatype: int, root: int, comm: int) -> Generator:
        return self._record("Bcast", dict(zip(COLLECTIVE_PARAMS["Bcast"],
                                              (buffer, count, datatype, root, comm))))

    def Reduce(
        self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int, root: int, comm: int
    ) -> Generator:
        return self._record("Reduce", dict(zip(COLLECTIVE_PARAMS["Reduce"],
                                               (sendbuf, recvbuf, count, datatype, op, root, comm))))

    def Allreduce(
        self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int, comm: int
    ) -> Generator:
        return self._record("Allreduce", dict(zip(COLLECTIVE_PARAMS["Allreduce"],
                                                  (sendbuf, recvbuf, count, datatype, op, comm))))

    def Scatter(
        self, sendbuf: int, sendcount: int, recvbuf: int, recvcount: int, datatype: int, root: int,
        comm: int
    ) -> Generator:
        return self._record("Scatter", dict(zip(COLLECTIVE_PARAMS["Scatter"],
                                                (sendbuf, sendcount, recvbuf, recvcount,
                                                 datatype, root, comm))))

    def Gather(
        self, sendbuf: int, sendcount: int, recvbuf: int, recvcount: int, datatype: int, root: int,
        comm: int
    ) -> Generator:
        return self._record("Gather", dict(zip(COLLECTIVE_PARAMS["Gather"],
                                               (sendbuf, sendcount, recvbuf, recvcount,
                                                datatype, root, comm))))

    def Allgather(
        self, sendbuf: int, sendcount: int, recvbuf: int, recvcount: int, datatype: int, comm: int
    ) -> Generator:
        return self._record("Allgather", dict(zip(COLLECTIVE_PARAMS["Allgather"],
                                                  (sendbuf, sendcount, recvbuf, recvcount,
                                                   datatype, comm))))

    def Alltoall(
        self, sendbuf: int, sendcount: int, recvbuf: int, recvcount: int, datatype: int, comm: int
    ) -> Generator:
        return self._record("Alltoall", dict(zip(COLLECTIVE_PARAMS["Alltoall"],
                                                 (sendbuf, sendcount, recvbuf, recvcount,
                                                  datatype, comm))))

    def Alltoallv(
        self, sendbuf: int, sendcounts: Sequence[int], sdispls: Sequence[int], recvbuf: int,
        recvcounts: Sequence[int], rdispls: Sequence[int], datatype: int, comm: int
    ) -> Generator:
        return self._record("Alltoallv", dict(zip(COLLECTIVE_PARAMS["Alltoallv"],
                                                  (sendbuf, sendcounts, sdispls, recvbuf,
                                                   recvcounts, rdispls, datatype, comm))))

    def Barrier(self, comm: int) -> Generator:
        return self._record("Barrier", {"comm": comm})

    def Scan(self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int, comm: int) -> Generator:
        return self._record("Scan", dict(zip(COLLECTIVE_PARAMS["Scan"],
                                             (sendbuf, recvbuf, count, datatype, op, comm))))

    def Exscan(self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int, comm: int) -> Generator:
        return self._record("Exscan", dict(zip(COLLECTIVE_PARAMS["Exscan"],
                                               (sendbuf, recvbuf, count, datatype, op, comm))))

    def Reduce_scatter(
        self, sendbuf: int, recvbuf: int, recvcount: int, datatype: int, op: int, comm: int
    ) -> Generator:
        return self._record("Reduce_scatter", dict(zip(COLLECTIVE_PARAMS["Reduce_scatter"],
                                                       (sendbuf, recvbuf, recvcount,
                                                        datatype, op, comm))))

    def Gatherv(
        self, sendbuf: int, sendcount: int, recvbuf: int, recvcounts: Sequence[int],
        displs: Sequence[int], datatype: int, root: int, comm: int
    ) -> Generator:
        return self._record("Gatherv", dict(zip(COLLECTIVE_PARAMS["Gatherv"],
                                                (sendbuf, sendcount, recvbuf, recvcounts,
                                                 displs, datatype, root, comm))))

    def Scatterv(
        self, sendbuf: int, sendcounts: Sequence[int], displs: Sequence[int], recvbuf: int,
        recvcount: int, datatype: int, root: int, comm: int
    ) -> Generator:
        return self._record("Scatterv", dict(zip(COLLECTIVE_PARAMS["Scatterv"],
                                                 (sendbuf, sendcounts, displs, recvbuf,
                                                  recvcount, datatype, root, comm))))

    def Allgatherv(
        self, sendbuf: int, sendcount: int, recvbuf: int, recvcounts: Sequence[int],
        displs: Sequence[int], datatype: int, comm: int
    ) -> Generator:
        return self._record("Allgatherv", dict(zip(COLLECTIVE_PARAMS["Allgatherv"],
                                                   (sendbuf, sendcount, recvbuf, recvcounts,
                                                    displs, datatype, comm))))

    def Alltoallw(
        self, sendbuf: int, sendcounts: Sequence[int], sdispls: Sequence[int],
        sendtypes: Sequence[int], recvbuf: int, recvcounts: Sequence[int], rdispls: Sequence[int],
        recvtypes: Sequence[int], comm: int
    ) -> Generator:
        return self._record("Alltoallw", dict(zip(COLLECTIVE_PARAMS["Alltoallw"],
                                                  (sendbuf, sendcounts, sdispls, sendtypes,
                                                   recvbuf, recvcounts, rdispls, recvtypes,
                                                   comm))))


# -- reference-model data effects at the meet point -------------------------


def _read(mem: Memory, addr: int, count: int, np_dtype: np.dtype) -> np.ndarray:
    if count <= 0:
        return np.empty(0, dtype=np_dtype)
    data = mem.read(int(addr), int(count) * np_dtype.itemsize)
    return np.frombuffer(data, dtype=np_dtype).copy()


def _write(mem: Memory, addr: int, img: np.ndarray) -> None:
    if img.size:
        mem.write(int(addr), np.ascontiguousarray(img).tobytes())


def _vspan(counts: Sequence[int], displs: Sequence[int]) -> int:
    return max((int(d) + int(c) for c, d in zip(counts, displs)), default=0)


def _apply_collective(arrivals: list[_Arrival], mems: list[Memory]) -> None:
    """Apply one met collective's data effect with the reference model.

    ``arrivals``/``mems`` are indexed by comm-local rank.  Reads and
    writes touch exactly the regions the production drivers would, so a
    skeleton run leaves every rank's memory bit-identical to a simulated
    run (the reference model was differentially pinned against the
    drivers by ``repro.verify``).
    """
    a0 = arrivals[0]
    name = a0.op.name
    n = len(arrivals)
    if name == "Barrier":
        return
    dt = a0.dtype.np_dtype if a0.dtype is not None else np.dtype("u1")
    args = [arr.op.args for arr in arrivals]

    if name == "Bcast":
        root = int(args[0]["root"])
        count = int(args[root]["count"])
        imgs = [_read(mems[r], args[r]["buffer"], count, dt) for r in range(n)]
        out = ref.ref_bcast(imgs, root)
        for r in range(n):
            _write(mems[r], args[r]["buffer"], out[r])
    elif name in ("Reduce",):
        root = int(args[0]["root"])
        count = int(args[root]["count"])
        sends = [_read(mems[r], args[r]["sendbuf"], count, dt) for r in range(n)]
        recvs = [
            _read(mems[r], args[r]["recvbuf"], count, dt) if r == root
            else np.empty(0, dtype=dt)
            for r in range(n)
        ]
        out = ref.ref_reduce(sends, recvs, a0.rop, dt, root)
        _write(mems[root], args[root]["recvbuf"], out[root])
    elif name == "Allreduce":
        count = int(args[0]["count"])
        sends = [_read(mems[r], args[r]["sendbuf"], count, dt) for r in range(n)]
        recvs = [_read(mems[r], args[r]["recvbuf"], count, dt) for r in range(n)]
        out = ref.ref_allreduce(sends, recvs, a0.rop, dt)
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Scatter":
        root = int(args[0]["root"])
        count = int(args[0]["recvcount"])
        rootsend = _read(mems[root], args[root]["sendbuf"], int(args[root]["sendcount"]) * n, dt)
        recvs = [_read(mems[r], args[r]["recvbuf"], count, dt) for r in range(n)]
        out = ref.ref_scatter(rootsend, recvs, count, root)
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Gather":
        root = int(args[0]["root"])
        count = int(args[0]["sendcount"])
        sends = [_read(mems[r], args[r]["sendbuf"], count, dt) for r in range(n)]
        recvs = [
            _read(mems[r], args[r]["recvbuf"], int(args[r]["recvcount"]) * n, dt)
            if r == root else np.empty(0, dtype=dt)
            for r in range(n)
        ]
        out = ref.ref_gather(sends, recvs, count, root)
        _write(mems[root], args[root]["recvbuf"], out[root])
    elif name == "Allgather":
        count = int(args[0]["sendcount"])
        sends = [_read(mems[r], args[r]["sendbuf"], count, dt) for r in range(n)]
        recvs = [_read(mems[r], args[r]["recvbuf"], count * n, dt) for r in range(n)]
        out = ref.ref_allgather(sends, recvs, count)
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Alltoall":
        count = int(args[0]["sendcount"])
        sends = [_read(mems[r], args[r]["sendbuf"], count * n, dt) for r in range(n)]
        recvs = [_read(mems[r], args[r]["recvbuf"], count * n, dt) for r in range(n)]
        out = ref.ref_alltoall(sends, recvs, count)
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Alltoallv":
        sends = [
            _read(mems[r], args[r]["sendbuf"], _vspan(args[r]["sendcounts"], args[r]["sdispls"]), dt)
            for r in range(n)
        ]
        recvs = [
            _read(mems[r], args[r]["recvbuf"], _vspan(args[r]["recvcounts"], args[r]["rdispls"]), dt)
            for r in range(n)
        ]
        out = ref.ref_alltoallv(
            sends, recvs,
            [args[r]["sendcounts"] for r in range(n)],
            [args[r]["sdispls"] for r in range(n)],
            [args[r]["recvcounts"] for r in range(n)],
            [args[r]["rdispls"] for r in range(n)],
        )
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Alltoallw":
        byte = np.dtype("u1")
        ssizes = [[t.size for t in arr.stypes or ()] for arr in arrivals]
        rsizes = [[t.size for t in arr.rtypes or ()] for arr in arrivals]
        sspans = [
            max((int(d) + int(c) * s for c, d, s in
                 zip(args[r]["sendcounts"], args[r]["sdispls"], ssizes[r])), default=0)
            for r in range(n)
        ]
        rspans = [
            max((int(d) + int(c) * s for c, d, s in
                 zip(args[r]["recvcounts"], args[r]["rdispls"], rsizes[r])), default=0)
            for r in range(n)
        ]
        sends = [_read(mems[r], args[r]["sendbuf"], sspans[r], byte) for r in range(n)]
        recvs = [_read(mems[r], args[r]["recvbuf"], rspans[r], byte) for r in range(n)]
        out = ref.ref_alltoallw(
            sends, recvs,
            [args[r]["sendcounts"] for r in range(n)],
            [args[r]["sdispls"] for r in range(n)],
            ssizes,
            [args[r]["recvcounts"] for r in range(n)],
            [args[r]["rdispls"] for r in range(n)],
            rsizes,
        )
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Reduce_scatter":
        count = int(args[0]["recvcount"])
        sends = [_read(mems[r], args[r]["sendbuf"], count * n, dt) for r in range(n)]
        recvs = [_read(mems[r], args[r]["recvbuf"], count, dt) for r in range(n)]
        out = ref.ref_reduce_scatter_block(sends, recvs, a0.rop, dt, count)
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Scan":
        count = int(args[0]["count"])
        sends = [_read(mems[r], args[r]["sendbuf"], count, dt) for r in range(n)]
        recvs = [_read(mems[r], args[r]["recvbuf"], count, dt) for r in range(n)]
        out = ref.ref_scan(sends, recvs, a0.rop, dt)
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Exscan":
        count = int(args[0]["count"])
        sends = [_read(mems[r], args[r]["sendbuf"], count, dt) for r in range(n)]
        recvs = [_read(mems[r], args[r]["recvbuf"], count, dt) for r in range(n)]
        out = ref.ref_exscan(sends, recvs, a0.rop, dt)
        for r in range(1, n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Gatherv":
        root = int(args[0]["root"])
        sends = [_read(mems[r], args[r]["sendbuf"], int(args[r]["sendcount"]), dt) for r in range(n)]
        span = _vspan(args[root]["recvcounts"], args[root]["displs"])
        recvs = [
            _read(mems[r], args[r]["recvbuf"], span, dt) if r == root
            else np.empty(0, dtype=dt)
            for r in range(n)
        ]
        out = ref.ref_gatherv(sends, recvs, args[root]["recvcounts"], args[root]["displs"], root)
        _write(mems[root], args[root]["recvbuf"], out[root])
    elif name == "Scatterv":
        root = int(args[0]["root"])
        span = _vspan(args[root]["sendcounts"], args[root]["displs"])
        rootsend = _read(mems[root], args[root]["sendbuf"], span, dt)
        recvs = [_read(mems[r], args[r]["recvbuf"], int(args[r]["recvcount"]), dt) for r in range(n)]
        out = ref.ref_scatterv(rootsend, recvs, args[root]["sendcounts"], args[root]["displs"], root)
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    elif name == "Allgatherv":
        sends = [_read(mems[r], args[r]["sendbuf"], int(args[r]["sendcount"]), dt) for r in range(n)]
        recvs = [
            _read(mems[r], args[r]["recvbuf"], _vspan(args[r]["recvcounts"], args[r]["displs"]), dt)
            for r in range(n)
        ]
        out = ref.ref_allgatherv(
            sends, recvs, args[0]["recvcounts"], args[0]["displs"]
        )
        for r in range(n):
            _write(mems[r], args[r]["recvbuf"], out[r])
    else:  # pragma: no cover - every collective above is exhaustive
        raise SkeletonExtractionError(f"no reference semantics for {name}")


# -- the trampoline ---------------------------------------------------------


def _step_fiber(gen: Generator, value: Any) -> tuple[str, Any]:
    """Advance one rank's generator; ``("yield", item)`` or ``("done", result)``.

    The name and file of this function are the stack-capture barrier in
    :meth:`RecordingContext._capture_stack` — do not rename it without
    updating the filter.
    """
    try:
        return ("yield", gen.send(value))
    except StopIteration as stop:
        return ("done", stop.value)


def _snapshot(space: HandleSpace, descr: dict[int, str],
              groups: dict[int, tuple[int, ...]] | None = None,
              sizes: dict[int, int] | None = None) -> HandleTable:
    live = space.handles()
    top = (max(live) + OBJECT_EXTENT) if live else space.base
    return HandleTable(space.name, space.base, top, descr, groups or {}, sizes or {})


def snapshot_tables(runtime: SimMPI) -> tuple[HandleTable, HandleTable, HandleTable]:
    """Static handle tables (datatype / op / comm) of a runtime."""
    dt = _snapshot(
        runtime.type_space,
        {h: runtime.type_space.resolve(h).name for h in runtime.type_space.handles()},
        sizes={h: runtime.type_space.resolve(h).size for h in runtime.type_space.handles()},
    )
    op = _snapshot(
        runtime.op_space,
        {h: runtime.op_space.resolve(h).name for h in runtime.op_space.handles()},
    )
    comm_space = runtime.comm_factory.space
    comm = _snapshot(
        comm_space,
        {h: comm_space.resolve(h).name for h in comm_space.handles()},
        {h: comm_space.resolve(h).group for h in comm_space.handles()},
    )
    return dt, op, comm


def extract_skeleton(
    app: Application,
    algorithms: dict[str, str] | None = None,
    resume_limit: int = DEFAULT_RESUME_LIMIT,
) -> Skeleton:
    """Dry-run ``app`` under the recording stub and return its skeleton."""
    runtime = SimMPI(app.nranks, algorithms=algorithms)
    n = app.nranks
    ops: list[list[SkeletonOp]] = [[] for _ in range(n)]
    contexts = [RecordingContext(runtime, r, ops[r]) for r in range(n)]
    gens = [app.main(c) for c in contexts]
    mems = [c.memory for c in contexts]

    results: list[Any] = [None] * n
    done = [False] * n
    runnable: deque[tuple[int, Any]] = deque((r, None) for r in range(n))
    # Pending collective arrivals, keyed by communicator context id.
    parked_coll: dict[int, dict[int, _Arrival]] = {}
    # Blocked receives: world rank -> the Recv syscall it waits on.
    parked_recv: dict[int, Recv] = {}
    # Eager-send mailbox, FIFO per (context_id, src, dst, tag).
    mailbox: dict[tuple[int, int, int, int], deque[bytes]] = {}
    resumes = 0

    def _meet(ctx_id: int) -> None:
        arrivals_by_me = parked_coll.pop(ctx_id)
        ordered = [arrivals_by_me[me] for me in range(len(arrivals_by_me))]
        names = {arr.op.name for arr in ordered}
        sites = {arr.op.site for arr in ordered}
        if len(names) != 1:
            detail = ", ".join(
                f"rank {arr.op.rank}: {arr.op.name}@{arr.op.site}" for arr in ordered
            )
            raise SkeletonExtractionError(
                f"ranks disagree about the current collective on comm "
                f"{ctx_id}: {detail}"
            )
        if len(sites) > 1:
            # Legal SPMD code can reach one collective from several call
            # sites; the matching checker reports it, extraction proceeds.
            pass
        comm_mems = [mems[arr.op.rank] for arr in ordered]
        _apply_collective(ordered, comm_mems)
        for arr in ordered:
            runnable.append((arr.op.rank, None))

    while runnable:
        rank, value = runnable.popleft()
        status, item = _step_fiber(gens[rank], value)
        while True:
            resumes += 1
            if resumes > resume_limit:
                raise SkeletonExtractionError(
                    f"dry run exceeded {resume_limit} resumptions; "
                    f"the application appears not to terminate"
                )
            if status == "done":
                results[rank] = item
                done[rank] = True
                break
            if isinstance(item, _Arrival):
                ctx_id = item.comm.context_id
                slot = parked_coll.setdefault(ctx_id, {})
                if item.op.me in slot:
                    raise SkeletonExtractionError(
                        f"rank {rank} arrived twice at comm {ctx_id} "
                        f"without a meet — corrupted communicator state"
                    )
                slot[item.op.me] = item
                if len(slot) == item.comm.size:
                    _meet(ctx_id)
                break
            if isinstance(item, Progress):
                status, item = _step_fiber(gens[rank], None)
                continue
            if isinstance(item, Send):
                key = (item.context_id, item.src, item.dst, item.tag)
                mailbox.setdefault(key, deque()).append(item.payload)
                # Wake a matching parked receiver, if any.
                for waiter, recv in list(parked_recv.items()):
                    if (recv.context_id, recv.src, recv.dst, recv.tag) == key:
                        del parked_recv[waiter]
                        payload = mailbox[key].popleft()
                        if not mailbox[key]:
                            del mailbox[key]
                        runnable.append((waiter, payload))
                        break
                status, item = _step_fiber(gens[rank], None)
                continue
            if isinstance(item, Recv):
                key = (item.context_id, item.src, item.dst, item.tag)
                queue = mailbox.get(key)
                if queue:
                    payload = queue.popleft()
                    if not queue:
                        del mailbox[key]
                    status, item = _step_fiber(gens[rank], payload)
                    continue
                parked_recv[rank] = item
                break
            raise SkeletonExtractionError(
                f"rank {rank} yielded unsupported syscall {item!r} during "
                f"skeleton extraction"
            )

    if not all(done):
        stuck = []
        for r in range(n):
            if done[r]:
                continue
            if r in parked_recv:
                recv = parked_recv[r]
                stuck.append(f"rank {r}: blocked Recv(src={recv.src}, tag={recv.tag})")
            else:
                for ctx_id, slot in parked_coll.items():
                    for arr in slot.values():
                        if arr.op.rank == r:
                            stuck.append(
                                f"rank {r}: waiting in {arr.op.name}@{arr.op.site} "
                                f"on comm {ctx_id} ({len(slot)}/{arr.comm.size} arrived)"
                            )
        raise SkeletonExtractionError(
            "dry run wedged — structurally possible deadlock:\n  " + "\n  ".join(stuck)
        )

    dt_table, op_table, comm_table = snapshot_tables(runtime)
    return Skeleton(
        app_name=app.name,
        nranks=n,
        arena_base=mems[0].base,
        arena_size=runtime.arena_size,
        algorithms=dict(runtime.algorithms),
        datatypes=dt_table,
        reduce_ops=op_table,
        comms=comm_table,
        ranks=ops,
        results=results,
    )


def mutate_op(skeleton: Skeleton, rank: int, index: int, **changes: Any) -> Skeleton:
    """Return a copy of ``skeleton`` with one op replaced."""
    ranks = [list(seq) for seq in skeleton.ranks]
    ranks[rank][index] = replace(ranks[rank][index], **changes)
    return replace_skeleton(skeleton, ranks)


def replace_skeleton(skeleton: Skeleton, ranks: list[list[SkeletonOp]]) -> Skeleton:
    return Skeleton(
        app_name=skeleton.app_name,
        nranks=skeleton.nranks,
        arena_base=skeleton.arena_base,
        arena_size=skeleton.arena_size,
        algorithms=dict(skeleton.algorithms),
        datatypes=skeleton.datatypes,
        reduce_ops=skeleton.reduce_ops,
        comms=skeleton.comms,
        ranks=ranks,
        results=list(skeleton.results),
    )


# -- seeded defects: the cross-rank bugs the matching checker must catch
# (wired in as ``extract_skeleton`` patches by :mod:`repro.verify.mutants`)

def swap_adjacent_collectives(sk: Skeleton) -> Skeleton:
    """Rank 1 issues two adjacent collectives in the opposite order."""
    seq = list(sk.ranks[1])
    for i in range(len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        if a.name != b.name and a.comm_context == b.comm_context:
            seq[i] = replace(b, seq=a.seq)
            seq[i + 1] = replace(a, seq=b.seq)
            ranks = list(sk.ranks)
            ranks[1] = seq
            return replace_skeleton(sk, ranks)
    raise RuntimeError("app has no adjacent differing collectives to swap")


def shift_root(sk: Skeleton) -> Skeleton:
    """Rank 1 believes a rooted collective is rooted one rank over."""
    for i, op in enumerate(sk.ranks[1]):
        if op.root_world is not None:
            return mutate_op(sk, 1, i, root_world=(op.root_world + 1) % sk.nranks)
    raise RuntimeError("app issues no rooted collectives")


def widen_dtype(sk: Skeleton) -> Skeleton:
    """Rank 0 posts the same element count of a twice-as-wide datatype —
    element counts agree, byte volumes don't."""
    for i, op in enumerate(sk.ranks[0]):
        if op.dtype is not None and op.name in (
            "Bcast", "Reduce", "Allreduce", "Scan", "Exscan",
            "Scatter", "Gather", "Allgather", "Alltoall", "Reduce_scatter",
        ):
            return mutate_op(
                sk, 0, i,
                dtype="MPI_DOUBLE" if op.dtype != "MPI_DOUBLE" else "MPI_FLOAT",
                dtype_size=op.dtype_size * 2,
            )
    raise RuntimeError("app issues no fixed-count typed collectives")


def drop_last_call(sk: Skeleton) -> Skeleton:
    """Rank 0 returns early, skipping its final collective."""
    if not sk.ranks[0]:
        raise RuntimeError("rank 0 issues no collectives")
    ranks = list(sk.ranks)
    ranks[0] = list(sk.ranks[0][:-1])
    return replace_skeleton(sk, ranks)


def swap_reduce_op(sk: Skeleton) -> Skeleton:
    """Rank 1 reduces with a different operation than its peers."""
    for i, op in enumerate(sk.ranks[1]):
        if op.op is not None:
            return mutate_op(sk, 1, i, op="MPI_MAX" if op.op != "MPI_MAX" else "MPI_SUM")
    raise RuntimeError("app issues no reductions")
