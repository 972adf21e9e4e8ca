"""The fault-injection instrument.

A :class:`FaultInjector` is armed with one :class:`FaultSpec`; when the
matching collective invocation occurs on the matching rank, it flips one
bit — in the parameter value (count/root/handles/vectors) or in the data
buffer contents — *before* the call is validated and executed, matching
the paper's "faults are injected before the collective call is
enforced".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simmpi import CollectiveCall, Instrument
from ..simmpi.validation import resolve_comm, resolve_datatype
from .bitflip import flip_array_element, flip_int32, flip_int64
from .space import FaultSpec
from .targets import param_kind


@dataclass(frozen=True)
class InjectionRecord:
    """What a fault injector actually did during a run.

    Besides the flip itself, the record carries the faulting call
    (collective/site/invocation) and the value transition
    (``before -> after``) so failure forensics can describe the fault
    without re-running anything (see
    :func:`repro.obs.forensics.describe_fault`).
    """

    param: str
    kind: str
    bit: int
    extent_bytes: int = 0  # buffer faults only
    skipped: bool = False  # e.g. zero-length buffer
    collective: str = ""   # name of the faulting collective
    site: str = ""         # call site id (file:line)
    invocation: int = -1   # per-site invocation index
    before: str = ""       # corrupted value before the flip
    after: str = ""        # corrupted value after the flip


def buffer_extent_bytes(ctx, call: CollectiveCall, param: str) -> int:
    """Byte extent of a buffer parameter as the *clean* call defines it.

    Root-side send buffers of Scatter and receive buffers of
    Gather/Allgather/Alltoall span ``count × comm_size`` elements;
    alltoallv extents follow counts + displacements.
    """
    args = call.args
    name = call.name
    if name != "Alltoallw":
        dtype = resolve_datatype(ctx.runtime, args["datatype"], rank=ctx.rank)
        es = dtype.size
    else:
        es = 1  # alltoallw extents are computed per peer below

    def comm_size() -> int:
        return resolve_comm(ctx.runtime, args["comm"], rank=ctx.rank).size

    def vspan(counts_key: str, displs_key: str) -> int:
        counts = np.asarray(args[counts_key], dtype=np.int64)
        displs = np.asarray(args[displs_key], dtype=np.int64)
        if counts.size == 0:
            return 0
        return int((displs + counts).max()) * es

    if name in ("Bcast", "Reduce", "Allreduce", "Scan", "Exscan"):
        return int(args["count"]) * es
    if name == "Alltoallv":
        if param == "sendbuf":
            return vspan("sendcounts", "sdispls")
        return vspan("recvcounts", "rdispls")
    if name == "Alltoallw":
        # Byte displacements and per-peer datatypes.
        side = "send" if param == "sendbuf" else "recv"
        counts = np.asarray(args[f"{side}counts"], dtype=np.int64)
        displs = np.asarray(args["sdispls" if side == "send" else "rdispls"], dtype=np.int64)
        sizes = np.array(
            [
                resolve_datatype(ctx.runtime, h, rank=ctx.rank).size
                for h in args[f"{side}types"]
            ],
            dtype=np.int64,
        )
        if counts.size == 0:
            return 0
        return int((displs + counts * sizes).max())
    if name == "Reduce_scatter":
        per = int(args["recvcount"]) * es
        return per * comm_size() if param == "sendbuf" else per
    if name == "Gatherv":
        if param == "sendbuf":
            return int(args["sendcount"]) * es
        return vspan("recvcounts", "displs")
    if name == "Scatterv":
        if param == "sendbuf":
            return vspan("sendcounts", "displs")
        return int(args["recvcount"]) * es
    if name == "Allgatherv":
        if param == "sendbuf":
            return int(args["sendcount"]) * es
        return vspan("recvcounts", "displs")
    per_rank = int(args["sendcount" if param == "sendbuf" else "recvcount"])
    if name == "Scatter":
        return per_rank * (comm_size() if param == "sendbuf" else 1) * es
    if name == "Gather":
        return per_rank * (1 if param == "sendbuf" else comm_size()) * es
    if name in ("Allgather", "Alltoall"):
        return per_rank * (1 if param == "sendbuf" else comm_size()) * es
    raise ValueError(f"{name} has no buffer parameter {param!r}")  # pragma: no cover


class FaultInjector(Instrument):
    """Flips one bit at one injection point, once per run."""

    def __init__(self, spec: FaultSpec, rng: np.random.Generator, tracer=None):
        self.spec = spec
        self.rng = rng
        self.tracer = tracer
        self.record: InjectionRecord | None = None

    @property
    def fired(self) -> bool:
        return self.record is not None

    def on_collective(self, ctx, call: CollectiveCall) -> None:
        if self.record is not None:
            return
        p = self.spec.point
        if (
            call.rank != p.rank
            or call.name != p.collective
            or call.site != p.site
            or call.invocation != p.invocation
        ):
            return
        self._inject(ctx, call)

    # -- the actual flip ------------------------------------------------

    def _finish(
        self,
        call: CollectiveCall,
        kind: str,
        bit: int,
        extent: int = 0,
        skipped: bool = False,
        before: str = "",
        after: str = "",
    ) -> None:
        self.record = InjectionRecord(
            self.spec.param,
            kind,
            bit,
            extent,
            skipped,
            collective=call.name,
            site=call.site,
            invocation=call.invocation,
            before=before,
            after=after,
        )
        if self.tracer is not None:
            self.tracer.emit(
                "fault_fired", call.rank,
                param=self.spec.param, param_kind=kind, bit=bit,
                collective=call.name, site=call.site, invocation=call.invocation,
                skipped=skipped, before=before, after=after,
            )

    def _pick_bit(self, call: CollectiveCall, kind: str, extent: int) -> int | None:
        """The bit to flip: the spec's pinned bit, or a draw from the
        test's RNG when none is pinned.  ``None`` when the target is
        empty or the pinned bit lies outside it; the test then records a
        skipped injection and the call runs clean."""
        if kind == "scalar":
            span = 32
        elif kind == "handle":
            span = 64
        elif kind == "vector":
            span = len(call.args[self.spec.param]) * 32
        elif kind == "handle_vector":
            span = len(call.args[self.spec.param]) * 64
        elif kind == "buffer":
            span = extent * 8
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown parameter kind {kind!r}")
        bit = self.spec.bit
        if span > 0 and bit is None:
            return int(self.rng.integers(0, span))
        if span > 0 and 0 <= bit < span:
            return bit
        self._finish(call, kind, -1 if bit is None else bit, extent, skipped=True)
        return None

    def _inject(self, ctx, call: CollectiveCall) -> None:
        param = self.spec.param
        kind = param_kind(param)
        extent = buffer_extent_bytes(ctx, call, param) if kind == "buffer" else 0
        bit = self._pick_bit(call, kind, extent)
        if bit is None:
            return

        if kind == "scalar":
            before = int(call.args[param])
            call.args[param] = flip_int32(before, bit)
            self._finish(call, kind, bit, before=str(before), after=str(call.args[param]))
        elif kind == "handle":
            before = int(call.args[param])
            call.args[param] = flip_int64(before, bit)
            self._finish(
                call, kind, bit, before=f"{before:#x}", after=f"{call.args[param]:#x}"
            )
        elif kind == "vector":
            arr = np.array(call.args[param], dtype=np.int64, copy=True)
            before = int(arr[bit // 32])
            flip_array_element(arr, bit // 32, bit % 32)
            call.args[param] = arr
            self._finish(
                call, kind, bit,
                before=f"[{bit // 32}]={before}", after=f"[{bit // 32}]={int(arr[bit // 32])}",
            )
        elif kind == "handle_vector":
            arr = np.array([int(h) for h in call.args[param]], dtype=np.int64)
            before = int(arr[bit // 64])
            arr[bit // 64] = flip_int64(before, bit % 64)
            call.args[param] = arr
            self._finish(
                call, kind, bit,
                before=f"[{bit // 64}]={before:#x}", after=f"[{bit // 64}]={int(arr[bit // 64]):#x}",
            )
        else:  # buffer
            addr = int(call.args[param])
            byte_addr = addr + bit // 8
            before = ctx.memory.read(byte_addr, 1)[0] if ctx.memory.in_arena(byte_addr) else None
            ctx.memory.flip_bit(addr, bit)
            after = ctx.memory.read(byte_addr, 1)[0]
            self._finish(
                call, kind, bit, extent,
                before="" if before is None else f"byte {bit // 8}: {before:#04x}",
                after=f"byte {bit // 8}: {after:#04x}",
            )
