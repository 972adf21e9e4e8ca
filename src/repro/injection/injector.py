"""The fault-injection instrument.

A :class:`FaultInjector` is armed with one :class:`FaultSpec` of any
point model; when the matching collective invocation occurs on the
matching rank, the fault strikes there.  A parameter fault flips bits —
in the parameter value (count/root/handles/vectors) or in the data
buffer contents — *before* the call is validated and executed, matching
the paper's "faults are injected before the collective call is
enforced": one bit for ``bitflip``, a burst of ``width`` adjacent bits
wrapping within the parameter for ``multibit``.  A wire fault activates
its delivery-layer :class:`~repro.injection.wire.Arm` there, and a rank
fault crashes or stalls the rank
(:func:`~repro.injection.wire.strike_rank`).  Scenario timelines
(:class:`~repro.injection.scenario.ScenarioInjector`) fire their tasks
through the same routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from ..simmpi import CollectiveCall, Instrument
from ..simmpi.validation import resolve_comm, resolve_datatype
from .bitflip import flip_array_element, flip_int32, flip_int64
from .multibit import draw_width
from .space import FaultSpec, InjectionPoint
from .targets import param_kind
from .wire import RANK_MODELS, WIRE_MODELS, Arm, Tap, strike_rank


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


def strike_record(
    tracer,
    at: InjectionPoint,
    param: str,
    kind: str,
    bit: int = -1,
    extent: int = 0,
    skipped: bool = False,
    before: str = "",
    after: str = "",
) -> InjectionRecord:
    """The record of one strike at ``at``, announced as its
    ``fault_fired`` event — the same for every fault kind."""
    record = InjectionRecord(
        param, kind, bit, extent, skipped,
        collective=at.collective, site=at.site, invocation=at.invocation,
        before=before, after=after,
    )
    if tracer is not None:
        tracer.emit(
            "fault_fired", at.rank,
            param=param, param_kind=kind, bit=bit,
            collective=at.collective, site=at.site, invocation=at.invocation,
            skipped=skipped, before=before, after=after,
        )
    return record


def buffer_extent_bytes(ctx, call: CollectiveCall, param: str) -> int:
    """Byte extent of a buffer parameter of the live call ``call``."""
    args, runtime, rank = call.args, ctx.runtime, ctx.rank
    return buffer_extent(
        call.name, args, param,
        resolve_datatype(runtime, args["datatype"], rank=rank).size if "datatype" in args else 1,
        lambda: resolve_comm(runtime, args["comm"], rank=rank).size,
        lambda h: resolve_datatype(runtime, h, rank=rank).size,
    )


def buffer_extent(name: str, args: Mapping[str, Any], param: str, es: int,
                  comm_size: Callable[[], int], type_size: Callable[[int], int]) -> int:
    """Byte extent of buffer ``param`` as the *clean* call defines it,
    from its arguments, element size ``es``, the communicator's size
    (asked only by extents that span it) and a datatype-size lookup
    (alltoallw's per-peer types).  The injector and the static
    pre-classifier both call this.

    Root-side send buffers of Scatter and receive buffers of
    Gather/Allgather/Alltoall span ``count × comm_size`` elements;
    alltoallv extents follow counts + displacements.
    """

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
        sizes = np.array([type_size(h) for h in args[f"{side}types"]], dtype=np.int64)
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
    if name in ("Gather", "Allgather", "Alltoall"):
        return per_rank * (1 if param == "sendbuf" else comm_size()) * es
    raise ValueError(f"{name} has no buffer parameter {param!r}")  # pragma: no cover


class FaultInjector(Instrument):
    """Fires one point fault at one injection point, once per run.

    ``tap`` is the delivery tap the job must run with: ``None`` for a
    parameter fault, so the scheduler's send path stays untapped.
    ``record`` is populated when the fault actually strikes, so an
    armed wire fault whose rank never sends counts as uninjected — the
    same semantics as a zero-length buffer flip.
    """

    def __init__(self, spec: FaultSpec, rng: np.random.Generator, tracer=None):
        self.spec = spec
        self.rng = rng
        self.tracer = tracer
        self.record: InjectionRecord | None = None
        self.arm: Arm | None = None
        self.tap: Tap | None = None
        if spec.model in WIRE_MODELS or spec.model in RANK_MODELS:
            self.tap = Tap()
        if spec.model in WIRE_MODELS:
            self.arm = Arm(
                spec.model, spec.point.rank, rng, spec.width, spec.count,
                on_fire=self._struck,
            )
            self.tap.arms.append(self.arm)

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
        if self.arm is not None:
            # The fault strikes at the delivery layer from the next send on.
            self.arm.active = True
        elif self.tap is not None:
            strike_rank(self.spec.model, self.spec.weight, ctx, call, self.tap, self._struck)
        else:
            self._inject(ctx, call)

    # -- the strike -----------------------------------------------------

    def _finish(self, at: InjectionPoint, kind: str, bit: int, extent: int = 0,
                skipped: bool = False, before: str = "", after: str = "") -> None:
        self.record = strike_record(
            self.tracer, at, self.spec.param, kind, bit, extent, skipped, before, after
        )

    def _struck(self, detail: str) -> None:
        """A wire or rank strike; an arm hitting ``count`` > 1 messages
        keeps its first record."""
        if self.record is None:
            self._finish(self.spec.point, self.spec.model, -1, after=detail)

    def _inject(self, ctx, call: CollectiveCall) -> None:
        """Flip ``width`` adjacent bits of the parameter from the base
        bit on, wrapping within it.  The base bit is the spec's pinned
        one, or a draw from the test's RNG when none is pinned; an empty
        target or a pinned bit outside it records a skipped injection
        and the call runs clean.  The record's ``bit`` is the base bit;
        a burst's width is echoed in its ``after`` string."""
        param = self.spec.param
        kind = param_kind(param)
        at = InjectionPoint(call.rank, call.name, call.site, call.invocation)
        width = 1
        burst = ""
        if self.spec.model == "multibit":
            width = self.spec.width if self.spec.width > 0 else draw_width(self.rng)
            burst = f" (burst x{width})"
        extent = buffer_extent_bytes(ctx, call, param) if kind == "buffer" else 0
        if kind == "scalar":
            span = 32
        elif kind == "handle":
            span = 64
        elif kind == "vector":
            span = len(call.args[param]) * 32
        elif kind == "handle_vector":
            span = len(call.args[param]) * 64
        else:  # buffer
            span = extent * 8
        bit = self.spec.bit
        if span > 0 and bit is None:
            bit = int(self.rng.integers(0, span))
        elif bit is None or not 0 <= bit < span:
            self._finish(at, kind, -1 if bit is None else bit, extent, skipped=True)
            return
        flats = [(bit + i) % span for i in range(width)]

        if kind == "scalar":
            before = value = int(call.args[param])
            for flat in flats:
                value = flip_int32(value, flat)
            call.args[param] = value
            self._finish(at, kind, bit, before=str(before), after=f"{value}{burst}")
        elif kind == "handle":
            before = value = int(call.args[param])
            for flat in flats:
                value = flip_int64(value, flat)
            call.args[param] = value
            self._finish(at, kind, bit, before=f"{before:#x}", after=f"{value:#x}{burst}")
        elif kind == "vector":
            arr = np.array(call.args[param], dtype=np.int64, copy=True)
            before = int(arr[bit // 32])
            for flat in flats:
                flip_array_element(arr, flat // 32, flat % 32)
            call.args[param] = arr
            self._finish(
                at, kind, bit,
                before=f"[{bit // 32}]={before}",
                after=f"[{bit // 32}]={int(arr[bit // 32])}{burst}",
            )
        elif kind == "handle_vector":
            arr = np.array([int(h) for h in call.args[param]], dtype=np.int64)
            before = int(arr[bit // 64])
            for flat in flats:
                arr[flat // 64] = flip_int64(int(arr[flat // 64]), flat % 64)
            call.args[param] = arr
            self._finish(
                at, kind, bit,
                before=f"[{bit // 64}]={before:#x}",
                after=f"[{bit // 64}]={int(arr[bit // 64]):#x}{burst}",
            )
        else:  # buffer
            addr = int(call.args[param])
            byte_addr = addr + bit // 8
            before = ctx.memory.read(byte_addr, 1)[0] if ctx.memory.in_arena(byte_addr) else None
            for flat in flats:
                ctx.memory.flip_bit(addr, flat)
            after = ctx.memory.read(byte_addr, 1)[0]
            self._finish(
                at, kind, bit, extent,
                before="" if before is None else f"byte {bit // 8}: {before:#04x}",
                after=f"byte {bit // 8}: {after:#04x}{burst}",
            )
