"""Model-conformance witnesses for the composable fault-model layer.

Every fault model in :data:`repro.injection.models.MODELS` claims a
Table-I response: a dropped message starves a receiver (``INF_LOOP``), a
duplicated one is absorbed by matched receives (``SUCCESS``), a crash is
the simulated process failure (``MPI_ERR``), and so on.  This module
pins each claim to a purpose-built two-rank *witness* — a micro-app
whose golden behaviour makes the expected response unambiguous — and
:func:`model_conformance` runs the full catalog.

The witnesses only prove something because they can fail: the
``models`` mutants of :mod:`repro.verify.mutants` seed plausible defects
into the delivery helpers of :mod:`repro.injection.wire` (a drop that
silently retries, a reorder that preserves FIFO, a stall shorter than
the deadline) and the self-test requires the witness sweep to fail under
each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..injection.outcome import Outcome, classify_exception
from ..injection.models import build_injector
from ..injection.scenario import parse_scenario
from ..injection.space import FaultSpec, InjectionPoint
from ..simmpi import Instrument, SimMPIError, run_app

#: Generous deadline for the tiny witness apps; stalls charge past it.
WITNESS_STEP_BUDGET = 20_000


# -- witness micro-apps -------------------------------------------------

def _bcast_app(ctx):
    """Root broadcasts eight known ints; every rank returns them.

    The one-message (two-rank binomial) broadcast makes every wire fault
    legible: drop starves rank 1, dup leaves one absorbed clone, corrupt
    and parameter bursts show up in the returned payload.
    """
    buf = ctx.alloc(8, ctx.INT, "witness.buf")
    if ctx.rank == 0:
        buf.view[:] = np.arange(1, 9, dtype=np.int32)
    yield from ctx.Bcast(buf.addr, 8, ctx.INT, 0, ctx.WORLD)
    return [int(x) for x in buf.view]


def _reorder_app(ctx):
    """Rank 1 sends two same-tag values; rank 0 returns them in
    arrival order.

    The two sends share one mailbox key (same context/src/dst/tag), so
    the reorder arm can hold the first back and release it behind the
    second — the only witness whose golden answer encodes FIFO order.
    """
    flag = ctx.alloc(1, ctx.INT, "witness.flag")
    yield from ctx.Bcast(flag.addr, 1, ctx.INT, 0, ctx.WORLD)
    a = ctx.alloc(1, ctx.INT, "witness.a")
    b = ctx.alloc(1, ctx.INT, "witness.b")
    if ctx.rank == 1:
        a.view[0] = 11
        b.view[0] = 22
        yield from ctx.Send(a.addr, 1, ctx.INT, 0, 7, ctx.WORLD)
        yield from ctx.Send(b.addr, 1, ctx.INT, 0, 7, ctx.WORLD)
        return []
    yield from ctx.Recv(a.addr, 1, ctx.INT, 1, 7, ctx.WORLD)
    yield from ctx.Recv(b.addr, 1, ctx.INT, 1, 7, ctx.WORLD)
    return [int(a.view[0]), int(b.view[0])]


class _Probe(Instrument):
    """Records every collective entry so witnesses can address the
    injection point without the full profiling stack."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, str, str, int]] = []

    def on_collective(self, ctx, call) -> None:
        self.calls.append((call.rank, call.name, call.site, call.invocation))

    def point(self, rank: int, collective: str) -> InjectionPoint:
        for r, name, site, invocation in self.calls:
            if r == rank and name == collective:
                return InjectionPoint(r, name, site, invocation)
        raise LookupError(
            f"witness never called {collective} on rank {rank}"
        )  # pragma: no cover - witness bug


# -- witness catalog ----------------------------------------------------

@dataclass(frozen=True)
class ModelWitness:
    """One fault model pinned to its expected Table-I response."""

    name: str
    model: str
    description: str
    app: Callable
    #: The collective entry the fault arms on: (world rank, collective).
    arm: tuple[int, str]
    #: Builds the concrete spec once the probe located the arm point.
    spec: Callable[[InjectionPoint], Any]
    #: Acceptable outcomes (usually exactly one).
    expected: tuple[Outcome, ...]
    nranks: int = 2


_SCENARIO_DROP = parse_scenario({
    "version": 1, "name": "witness-drop",
    "tasks": [{"t": 0, "model": "msg_drop", "rank": 0}],
})
_SCENARIO_MIX = parse_scenario({
    "version": 1, "name": "witness-mix",
    "tasks": [
        {"t": 0, "model": "msg_dup", "rank": 0},
        {"t": 0, "model": "bitflip", "rank": 0, "param": "buffer"},
    ],
})


WITNESSES: dict[str, ModelWitness] = {
    w.name: w
    for w in (
        ModelWitness(
            "bitflip", "bitflip",
            "flipped broadcast payload differs from golden",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, "buffer", None),
            (Outcome.WRONG_ANS,),
        ),
        ModelWitness(
            "multibit", "multibit",
            "burst-flipped broadcast payload differs from golden",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, param="buffer", model="multibit"),
            (Outcome.WRONG_ANS,),
        ),
        ModelWitness(
            "msg_drop", "msg_drop",
            "dropped broadcast message starves rank 1",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, param="payload", model="msg_drop"),
            (Outcome.INF_LOOP,),
        ),
        ModelWitness(
            "msg_dup", "msg_dup",
            "duplicated broadcast message is absorbed",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, param="payload", model="msg_dup"),
            (Outcome.SUCCESS,),
        ),
        ModelWitness(
            "msg_corrupt", "msg_corrupt",
            "corrupted broadcast payload reaches rank 1",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, param="payload", model="msg_corrupt"),
            (Outcome.WRONG_ANS,),
        ),
        ModelWitness(
            "msg_reorder", "msg_reorder",
            "two same-key messages arrive swapped",
            _reorder_app, (1, "Bcast"),
            lambda p: FaultSpec(p, param="payload", model="msg_reorder"),
            (Outcome.WRONG_ANS,),
        ),
        ModelWitness(
            "rank_crash", "rank_crash",
            "rank fails entering the broadcast",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, param="rank", model="rank_crash"),
            (Outcome.MPI_ERR,),
        ),
        ModelWitness(
            "rank_stall", "rank_stall",
            "stalled rank charges past the deadline budget",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, param="rank", model="rank_stall"),
            (Outcome.INF_LOOP,),
        ),
        ModelWitness(
            "scenario_drop", "scenario",
            "one-task drop scenario starves rank 1",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, param="", model="scenario", scenario=_SCENARIO_DROP),
            (Outcome.INF_LOOP,),
        ),
        ModelWitness(
            "scenario_mix", "scenario",
            "overlapping dup+bitflip timeline: dup absorbed, flip visible",
            _bcast_app, (0, "Bcast"),
            lambda p: FaultSpec(p, param="", model="scenario", scenario=_SCENARIO_MIX),
            (Outcome.WRONG_ANS,),
        ),
    )
}


# -- the sweep ----------------------------------------------------------

@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one witness run against its expectation."""

    witness: str
    model: str
    expected: tuple[str, ...]
    got: str
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        want = "|".join(self.expected)
        return f"{status:4s} {self.witness:14s} {self.model:12s} expected {want}, got {self.got}"


@dataclass(frozen=True)
class ModelConformanceReport:
    """Result of the full witness sweep."""

    results: tuple[WitnessResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> tuple[WitnessResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def describe(self) -> str:
        lines = [r.describe() for r in self.results]
        n_bad = len(self.failures)
        lines.append(
            f"model conformance: {len(self.results)} witnesses, "
            + ("all expected responses observed" if not n_bad else f"{n_bad} FAILED")
        )
        return "\n".join(lines)


def run_witness(witness: ModelWitness, seed: int = 0) -> WitnessResult:
    """Run one witness: golden run, probe the arm point, inject, classify."""
    probe = _Probe()
    golden = run_app(
        witness.app, witness.nranks,
        instruments=[probe], step_budget=WITNESS_STEP_BUDGET,
    ).results
    spec = witness.spec(probe.point(*witness.arm))
    rng = np.random.default_rng(seed)
    injector = build_injector(spec, rng)
    detail = ""
    try:
        with np.errstate(all="ignore"):
            result = run_app(
                witness.app, witness.nranks,
                instruments=[injector], step_budget=WITNESS_STEP_BUDGET,
                tap=getattr(injector, "tap", None),
            )
    except SimMPIError as exc:
        got = classify_exception(exc)
        detail = f"{type(exc).__name__}: {exc}"
    else:
        got = Outcome.SUCCESS if result.results == golden else Outcome.WRONG_ANS
    return WitnessResult(
        witness.name, witness.model,
        tuple(o.value for o in witness.expected), got.value,
        got in witness.expected, detail,
    )


def model_conformance(seed: int = 0) -> ModelConformanceReport:
    """Sweep every witness."""
    return ModelConformanceReport(
        tuple(run_witness(w, seed) for w in WITNESSES.values())
    )
