"""Failure forensics: wait-for graphs and fault descriptions.

Turns the structured evidence attached to run-aborting exceptions into
the artefacts a sensitivity analyst actually needs:

* for ``INF_LOOP`` deadlocks — the **wait-for graph**: which ranks are
  blocked, on which ``(comm, src, tag)`` each one waits, and *why the
  match can never happen* (source finished without sending, source is
  itself blocked in a cycle, a near-miss message with a different tag
  sits in the mailbox, or the context id belongs to no live
  communicator because the handle was corrupted);
* for ``SEG_FAULT``/``MPI_ERR``/``WRONG_ANS`` — a one-line description
  of the injected fault: the faulting call, the corrupted parameter,
  the flipped bit, and the value transition.

Everything here consumes plain data hung off the exceptions by the
scheduler (see :mod:`repro.simmpi.scheduler`), so forensics work even
after the runtime object is gone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..simmpi.context import P2P_CONTEXT_OFFSET
from ..simmpi.errors import DeadlockError, StepBudgetExceeded


@dataclass(frozen=True)
class WaitEdge:
    """One blocked rank's unsatisfiable receive."""

    rank: int              #: world rank of the blocked fiber
    waits_on: int | None   #: world rank it waits on (None if unresolvable)
    comm: str              #: communicator name (or ``ctx#N`` if unknown)
    src: int               #: comm-local source rank of the posted receive
    dst: int               #: comm-local destination rank (the waiter)
    tag: int               #: message tag
    space: str             #: "collective" or "p2p" matching space
    reason: str            #: why the receive can never match

    def describe(self) -> str:
        line = (
            f"rank {self.rank} waits on recv(comm={self.comm}, "
            f"src={self.src}, tag={self.tag:#x})"
        )
        return f"{line} — {self.reason}"


@dataclass
class WaitForGraph:
    """The wait-for graph of a deadlocked (or stalled) run."""

    edges: list[WaitEdge] = field(default_factory=list)
    #: World ranks forming a wait cycle, in cycle order (empty if none).
    cycle: list[int] = field(default_factory=list)

    @property
    def blocked_ranks(self) -> list[int]:
        return sorted(e.rank for e in self.edges)

    def describe(self) -> str:
        """Multi-line report, one edge per line plus the cycle if any."""
        lines = [e.describe() for e in sorted(self.edges, key=lambda e: e.rank)]
        if self.cycle:
            ring = " -> ".join(str(r) for r in self.cycle + self.cycle[:1])
            lines.append(f"wait cycle: {ring}")
        return "\n".join(lines)

    def summary(self) -> str:
        """Compact single-line form for ``TestResult.detail``."""
        parts = [
            f"rank {e.rank}<-src {e.src}@{e.comm} tag {e.tag:#x} ({e.reason})"
            for e in sorted(self.edges, key=lambda e: e.rank)
        ]
        return "; ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "edges": [
                {
                    "rank": e.rank,
                    "waits_on": e.waits_on,
                    "comm": e.comm,
                    "src": e.src,
                    "dst": e.dst,
                    "tag": e.tag,
                    "space": e.space,
                    "reason": e.reason,
                }
                for e in self.edges
            ],
            "cycle": list(self.cycle),
        }


def _resolve_context(ctx_id: int, comms: dict[int, tuple[str, tuple[int, ...]]]):
    """Map a matching-space context id to (comm name, group, space)."""
    space = "collective"
    base = ctx_id
    if ctx_id >= P2P_CONTEXT_OFFSET:
        space = "p2p"
        base = ctx_id - P2P_CONTEXT_OFFSET
    info = comms.get(base)
    if info is None:
        return f"ctx#{base}", None, space
    name, group = info
    return name or f"ctx#{base}", tuple(group), space


def _edge_reason(
    src_world: int | None,
    group: tuple[int, ...] | None,
    key: tuple[int, int, int, int],
    fiber_states: dict[int, str],
    mailbox: list[tuple[tuple[int, int, int, int], int]],
) -> str:
    ctx, src, dst, tag = key
    if group is None:
        return "no live communicator owns this context id (corrupted comm handle?)"
    if src_world is None:
        return f"source rank {src} is outside the {len(group)}-rank communicator"
    near = [
        (k, n)
        for k, n in mailbox
        if k[0] == ctx and k[1] == src and k[2] == dst and k[3] != tag
    ]
    if near:
        other_tag = near[0][0][3]
        return (
            f"a message from rank {src_world} is queued with tag "
            f"{other_tag:#x}, not the awaited {tag:#x}"
        )
    state = fiber_states.get(src_world, "")
    if state == "done":
        return f"source rank {src_world} finished without a matching send"
    if state == "failed":
        return f"source rank {src_world} crashed before sending"
    if state == "blocked":
        return f"source rank {src_world} is itself blocked (possible wait cycle)"
    return f"source rank {src_world} never sends a matching message"


def _find_cycle(waits: dict[int, int | None]) -> list[int]:
    """First cycle in the rank -> rank wait mapping, if any."""
    seen: set[int] = set()
    for start in sorted(waits):
        if start in seen:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        node: int | None = start
        while node is not None and node in waits and node not in seen:
            if node in pos:
                return path[pos[node]:]
            pos[node] = len(path)
            path.append(node)
            node = waits[node]
        seen.update(path)
    return []


def build_wait_for_graph(exc: DeadlockError | StepBudgetExceeded) -> WaitForGraph:
    """Construct the wait-for graph from a run-aborting hang exception.

    Works on the structured forensic data the scheduler attaches; an
    exception raised without it (e.g. constructed by hand) yields an
    empty graph.
    """
    waiting: dict[int, tuple[int, int, int, int]] = getattr(exc, "waiting", {}) or {}
    fiber_states: dict[int, str] = getattr(exc, "fiber_states", {}) or {}
    mailbox = list(getattr(exc, "mailbox", ()) or ())
    comms: dict[int, tuple[str, tuple[int, ...]]] = getattr(exc, "comms", {}) or {}

    graph = WaitForGraph()
    waits: dict[int, int | None] = {}
    for rank, key in sorted(waiting.items()):
        ctx, src, dst, tag = key
        name, group, space = _resolve_context(ctx, comms)
        src_world = None
        if group is not None and 0 <= src < len(group):
            src_world = group[src]
        reason = _edge_reason(src_world, group, key, fiber_states, mailbox)
        waits[rank] = src_world
        graph.edges.append(
            WaitEdge(rank, src_world, name, src, dst, tag, space, reason)
        )
    blocked = set(waits)
    graph.cycle = _find_cycle(
        {r: w for r, w in waits.items() if w in blocked}
    )
    return graph


# -- fault descriptions ------------------------------------------------


def describe_fault(record: Any) -> str:
    """One-line description of what an armed injector actually did.

    ``record`` is an :class:`~repro.injection.injector.InjectionRecord`
    (duck-typed here to keep :mod:`repro.obs` free of injection-layer
    imports).  Returns ``""`` when no fault fired.
    """
    if record is None:
        return ""
    where = ""
    if getattr(record, "collective", ""):
        where = f" in {record.collective}@{record.site}#inv{record.invocation}"
    if getattr(record, "skipped", False):
        why = "empty target" if record.bit == -1 else f"bit {record.bit} outside the target"
        return f"{record.kind} '{record.param}'{where} skipped ({why})"
    desc = f"bit {record.bit} of {record.kind} '{record.param}'{where}"
    before = getattr(record, "before", "")
    after = getattr(record, "after", "")
    if before or after:
        desc += f" ({before} -> {after})"
    return desc


def failure_detail(exc: BaseException, record: Any = None) -> str:
    """The ``TestResult.detail`` string for a run-aborting exception.

    Couples the failure evidence (wait-for graph for hangs, the
    exception message otherwise) with the injected-fault description.
    """
    if isinstance(exc, DeadlockError):
        graph = build_wait_for_graph(exc)
        base = f"deadlock: {graph.summary()}" if graph.edges else str(exc)
    elif isinstance(exc, StepBudgetExceeded):
        graph = build_wait_for_graph(exc)
        base = f"runaway execution: {exc}"
        if graph.edges:
            base += f"; blocked at kill time: {graph.summary()}"
    else:
        base = str(exc)
    fault = describe_fault(record)
    return f"{base}; fault: {fault}" if fault else base


def harness_failure_detail(exc: BaseException, record: Any = None) -> str:
    """The ``TestResult.detail`` string for a *harness-level* crash.

    Used when an exception outside the simulated failure taxonomy (a
    ``MemoryError``, ``RecursionError``, a numpy failure on a corrupted
    ``count``, ...) escapes a run: the test is classified ``TOOL_ERROR``
    and this string preserves the forensic trail — exception type and
    message, the innermost traceback location, and the injected fault
    that provoked it.
    """
    base = f"harness error: {type(exc).__name__}: {exc}"
    tb = exc.__traceback__
    if tb is not None:
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        base += (
            f" (at {code.co_name}@"
            f"{os.path.basename(code.co_filename)}:{tb.tb_lineno})"
        )
    fault = describe_fault(record)
    return f"{base}; fault: {fault}" if fault else base
