"""Worker supervision: the fault-contained campaign execution core.

FastFIT's premise is millions of unattended injection tests, which makes
the harness itself a fault domain: a worker process can die (a real
segfault in a native library, an ``os._exit`` in application code under
test), wedge (runaway allocation, a pathological sim), or crash with a
Python error the in-worker containment could not absorb.  A blind
``Pool.imap_unordered`` loop turns any of those into a lost campaign.

:class:`SupervisedPool` replaces it with an explicit supervision state
machine.  Each worker slot is a dedicated process joined to the parent
by a duplex pipe, so the parent always knows *which* unit a worker owns:

* **death detection** — a worker's pipe hitting EOF (the kernel closes
  it when the process dies, however it dies) immediately surfaces the
  lost unit; the slot is respawned and the unit re-queued;
* **wedge detection** — every dispatch carries a wall-clock deadline
  (``unit_timeout``); a worker that blows it is killed, respawned, and
  the unit re-queued;
* **bounded retries** — each unit gets ``max_retries`` re-dispatches
  with exponential backoff; because every test's RNG derives only from
  ``(seed, point, test)``, a retried unit reproduces the exact results
  an undisturbed run would have produced;
* **quarantine** — a unit that keeps taking the harness down is
  reported to the caller instead of aborting the campaign; the caller
  records synthetic ``TOOL_ERROR`` results (kept out of all
  paper-metric outcome rates) and carries on.

Everything is observable: ``exec.retries`` / ``exec.worker_deaths`` /
``exec.quarantined`` counters, and ``unit_retry`` / ``unit_quarantined``
tracer events.

The module also hosts the chaos hooks (``FASTFIT_CHAOS_*`` environment
variables) that the chaos tests and the CI chaos smoke job use to make
workers crash, raise, or hang deterministically.  They are read inside
the worker only, never in the parent.
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait as connection_wait
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..apps.base import Application
from ..injection.runner import InjectionRunner, TestResult
from ..injection.models import draw_task
from ..injection.space import FaultSpec, InjectionPoint
from ..obs.metrics import MetricsRegistry
from ..profiling.profiler import ApplicationProfile
from .sharding import WorkUnit

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.events import Tracer


class UnitFailedError(RuntimeError):
    """A work unit exhausted its retries and quarantine is disabled."""

    def __init__(self, unit_id: str, attempts: int, reason: str):
        self.unit_id = unit_id
        self.attempts = attempts
        self.reason = reason
        super().__init__(
            f"work unit {unit_id} failed {attempts} attempt(s) "
            f"and quarantine is disabled: {reason}"
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs of the supervision state machine.

    Attributes
    ----------
    unit_timeout:
        Wall-clock seconds one dispatch attempt may take before the
        worker is declared wedged and killed (``None`` = no deadline).
    max_retries:
        Re-dispatches granted per unit after its first failure.
    quarantine:
        ``True``: exhausted units are reported as quarantined and the
        campaign continues; ``False``: raise :class:`UnitFailedError`.
    backoff_base / backoff_factor / backoff_max:
        Exponential backoff between re-dispatches of the same unit:
        attempt *n* waits ``min(backoff_max, backoff_base *
        backoff_factor**(n-1))`` seconds.  Other units keep executing
        during the wait.
    poll_interval:
        Upper bound on one supervision wait, so deadlines and backoff
        promotions are checked even when no worker produces events.
    """

    unit_timeout: float | None = None
    max_retries: int = 2
    quarantine: bool = True
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    poll_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be > 0, got {self.unit_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {self.poll_interval}")

    def backoff(self, attempt: int) -> float:
        """Delay before re-dispatch number ``attempt`` (1-based)."""
        return min(self.backoff_max, self.backoff_base * self.backoff_factor ** (attempt - 1))


# -- worker side -------------------------------------------------------


class WorkerState:
    """The unit executor: per-process campaign state plus the one loop
    that turns a work unit into results.  Built once per pool worker,
    and once per :class:`~repro.injection.campaign.Campaign` for the
    in-process (``jobs == 1``) executor."""

    def __init__(
        self,
        app: Application,
        profile: ApplicationProfile,
        param_policy: str,
        seed: int,
        algorithms: dict[str, str] | None,
        snapshot: bool = True,
        fault_model: str = "bitflip",
        scenario=None,
        stopper=None,
        jobs: int = 1,
        preclassifier=None,
    ):
        self.param_policy = param_policy
        self.seed = seed
        self.fault_model = fault_model
        self.scenario = scenario
        #: Optional :class:`~repro.steer.SequentialStopper`.  Units then
        #: carry a whole point each (the unit plan guarantees it) and
        #: only tests the stopper is certain to run are handed out,
        #: truncating the stream at the same index any other scheduling
        #: would.
        self.stopper = stopper
        #: Optional :class:`repro.analyze.PreClassifier` (in-process
        #: executor only): tests it proves are recorded as ``predicted``
        #: results in their slot without running.
        self.preclassifier = preclassifier
        # The profile arrives pickled; the runner derives its hang budget
        # from it without re-running the golden job.
        self.runner = InjectionRunner(app, profile, algorithms=algorithms)
        self.engine = None
        if snapshot:
            # Lazy import: repro.snapshot depends on repro.injection.
            from ..snapshot.engine import SnapshotEngine, cpu_count

            # The ``jobs`` executors share the cores: each overlaps up to
            # its share of forked children at a park.
            self.engine = SnapshotEngine(self.runner, width=max(1, cpu_count() // jobs))

    def _predict(
        self, point: InjectionPoint, point_index: int, test_index: int
    ) -> TestResult | None:
        if self.preclassifier is None:
            return None
        prediction = self.preclassifier.predict(point, point_index, test_index)
        if prediction is None:
            return None
        return TestResult(
            FaultSpec(point, prediction.param, prediction.bit),
            prediction.outcome,
            None,
            detail=f"static: {prediction.rule} — {prediction.detail}",
            predicted=True,
        )

    def run(self, units: Iterable[tuple[WorkUnit, InjectionPoint]], complete) -> None:
        """Execute a lazily pulled stream of ``(unit, point)`` pairs,
        calling ``complete(unit_id, tests, registry)`` as each finishes —
        the one executor of the in-process loop and of a pool worker.

        A unit is a slot source (:meth:`_unit`); its consumer is the
        snapshot engine or a plain ``run_one`` loop.  The
        engine pulls the next unit while the finished one is still parked
        and walks its one fault-free run on whenever that point is still
        ahead, so a stream in execution order costs one run plus one fork
        per executed test; a point already passed (a retried unit, an
        out-of-order stream) starts a fresh run.
        """
        stream = (self._unit(unit, point, complete) for unit, point in units)
        if self.engine is not None:
            self.engine.serve(stream)
            return
        for _, take, deliver, done, _ in stream:
            for slot in chain.from_iterable(iter(lambda: take(1), [])):
                deliver(slot if isinstance(slot, TestResult) else self.runner.run_one(*slot))
            done()

    def execute(self, unit: WorkUnit, point: InjectionPoint) -> tuple:
        """:meth:`run` for one unit; returns the ``(unit_id, tests,
        registry)`` it completes with."""
        out: list[tuple] = []
        self.run([(unit, point)], lambda *completed: out.append(completed))
        return out[0]

    def _unit(self, unit: WorkUnit, point: InjectionPoint, complete) -> tuple:
        """``unit`` as the engine's ``(point, take, deliver, done,
        metrics)``.  A test's slot is a pure function of ``(seed, point,
        test)``: its statically predicted result, else its drawn task.
        ``take(limit)`` hands out the next slots in test order up to a
        horizon: the unit's end, or, with a stopper, the tests it is
        certain to run whatever the results still undelivered are.  So
        no slot past the cut a serial loop makes is ever handed out, and
        the stream ends at the same index under every scheduling.
        ``exec.unit_s`` spans the unit from this pull to ``complete``."""
        registry = MetricsRegistry()
        tests: list[TestResult] = []
        pulled = time.perf_counter()
        drawn: deque = deque()  # slots certain to run, not yet handed out
        after = unit.test_start  # the first test not drawn

        def slot(t: int):
            predicted = self._predict(point, unit.point_index, t)
            if predicted is not None:
                return predicted
            return draw_task(
                point, self.seed, unit.point_index, t, policy=self.param_policy,
                model=self.fault_model, scenario=self.scenario,
            )

        def take(limit: int) -> list:
            nonlocal after
            if not drawn:
                # Every slot certain to run is drawn in one go, most of
                # them at the engine's peek, before any child shares the
                # parent's pages: allocating next to live children costs
                # the parent a copy-on-write fault per page it touches.
                stop = unit.test_stop
                if self.stopper is not None:
                    delivered = unit.test_start + len(tests)
                    stop = delivered + self.stopper.certain(tests, stop - delivered)
                drawn.extend(slot(t) for t in range(after, stop))
                after = max(after, stop)
            return [drawn.popleft() for _ in range(min(limit, len(drawn)))]

        def done() -> None:
            registry.timer("exec.unit_s").record(time.perf_counter() - pulled)
            registry.counter("campaign.tests").inc(len(tests))
            saved = unit.n_tests - len(tests)
            if saved > 0:
                registry.counter("campaign.tests_saved").inc(saved)
            predicted = sum(1 for test in tests if test.predicted)
            if predicted:
                registry.counter("campaign.tests_predicted").inc(predicted)
            for test in tests:
                registry.counter(f"campaign.outcome.{test.outcome.name}").inc()
            complete(unit.unit_id, tests, registry)

        return point, take, tests.append, done, registry


@dataclass(frozen=True)
class _Chaos:
    """Deterministic harness-fault injection, armed via environment.

    ``FASTFIT_CHAOS_MODE``   — ``exit`` | ``raise`` | ``hang``;
    ``FASTFIT_CHAOS_UNITS``  — comma-separated unit ids, or ``*``;
    ``FASTFIT_CHAOS_ATTEMPTS`` — fire while ``attempt < N`` (default 1,
    so only the first dispatch fails and retries heal), or ``all``.

    Test/CI-only: read in worker processes, never in the parent, so the
    profiling and assembly phases are unaffected.
    """

    mode: str = ""
    units: frozenset[str] | None = None  # None = every unit
    attempts: int | None = 1             # None = every attempt

    @classmethod
    def from_env(cls) -> "_Chaos":
        mode = os.environ.get("FASTFIT_CHAOS_MODE", "").strip().lower()
        if mode not in ("exit", "raise", "hang"):
            return cls()
        raw_units = os.environ.get("FASTFIT_CHAOS_UNITS", "*").strip()
        units = None if raw_units == "*" else frozenset(
            u.strip() for u in raw_units.split(",") if u.strip()
        )
        raw_attempts = os.environ.get("FASTFIT_CHAOS_ATTEMPTS", "1").strip().lower()
        attempts = None if raw_attempts == "all" else int(raw_attempts)
        return cls(mode=mode, units=units, attempts=attempts)

    def fire(self, unit_id: str, attempt: int) -> None:
        if not self.mode:
            return
        if self.units is not None and unit_id not in self.units:
            return
        if self.attempts is not None and attempt >= self.attempts:
            return
        if self.mode == "exit":
            os._exit(43)
        if self.mode == "raise":
            raise RuntimeError(f"chaos: injected harness crash in {unit_id}")
        while True:  # hang: wedge until the supervisor's deadline kills us
            time.sleep(60)


def _worker_main(payload: bytes, conn: Connection) -> None:
    """Worker loop: build state once, then execute streamed tasks.

    Protocol (parent → worker): ``("task", unit, point, attempt)`` or
    ``("stop",)``.  Worker → parent: ``("ok", unit_id, tests, registry)``
    or ``("error", unit_id, summary)``.  Any uncaught failure — or the
    process dying outright — is observed by the parent as pipe EOF.
    """
    state = WorkerState(*pickle.loads(payload))
    chaos = _Chaos.from_env()
    unit_id = ""

    def tasks():
        # Pulled by the executor once the previous unit was sent back
        # (while that unit's point is still parked, under snapshot).
        nonlocal unit_id
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            if msg[0] == "stop":
                return
            _, unit, point, attempt = msg
            unit_id = unit.unit_id
            chaos.fire(unit_id, attempt)
            yield unit, point

    while True:
        try:
            state.run(tasks(), lambda *done: conn.send(("ok",) + done))
            return
        except KeyboardInterrupt:
            return
        except Exception as exc:
            # In-worker boundary for harness code outside run_one's own
            # containment (target picking, RNG rebuild, ...): report the
            # crash instead of dying, so the slot survives for other
            # units while this one is retried or quarantined.
            conn.send(("error", unit_id, f"{type(exc).__name__}: {exc}"))


# -- parent side -------------------------------------------------------


@dataclass
class _Attempt:
    """One unit's journey through the retry state machine."""

    unit: WorkUnit
    point: InjectionPoint
    failures: int = 0
    last_reason: str = ""


@dataclass
class _Slot:
    """One supervised worker: process + pipe + the unit it owns."""

    proc: object
    conn: Connection
    task: _Attempt | None = None
    deadline: float | None = None


#: Supervision event tuples yielded by :meth:`SupervisedPool.run`.
DONE = "done"
QUARANTINED = "quarantined"


class SupervisedPool:
    """A self-healing worker pool executing campaign work units.

    Usage::

        pool = SupervisedPool(payload, jobs=4, config=SupervisorConfig(...))
        for event in pool.run(tasks):
            if event[0] == "done":
                _, attempt, (unit_id, tests, registry) = event
            else:  # "quarantined"
                _, attempt, reason = event

    ``run`` is a generator so the caller checkpoints and merges metrics
    as units land; its ``finally`` tears the workers down on any exit,
    including ``KeyboardInterrupt`` raised in the consuming loop.
    """

    def __init__(
        self,
        payload: bytes,
        jobs: int,
        config: SupervisorConfig,
        metrics: MetricsRegistry | None = None,
        tracer: "Tracer | None" = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.payload = payload
        self.jobs = jobs
        self.config = config
        self.metrics = metrics
        self.tracer = tracer
        self._ctx = get_context()
        self._slots: list[_Slot] = []

    # -- slot lifecycle ------------------------------------------------

    def _spawn_slot(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(self.payload, child_conn), daemon=True
        )
        proc.start()
        child_conn.close()  # parent keeps only its end; EOF then tracks the child
        return _Slot(proc=proc, conn=parent_conn)

    def _discard_slot(self, slot: _Slot, kill: bool = False) -> None:
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        proc = slot.proc
        if kill and proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - terminate resisted
                proc.kill()
        proc.join(timeout=5.0)

    def _respawn(self, slot: _Slot, kill: bool = False) -> None:
        self._discard_slot(slot, kill=kill)
        fresh = self._spawn_slot()
        slot.proc, slot.conn = fresh.proc, fresh.conn
        slot.task, slot.deadline = None, None

    def _shutdown(self) -> None:
        for slot in self._slots:
            if slot.task is None and slot.proc.is_alive():
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots:
            self._discard_slot(slot, kill=True)
        self._slots = []

    # -- accounting ----------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _emit(self, kind: str, att: _Attempt, reason: str) -> None:
        if self.tracer is not None:
            # Supervision events are parent-side: rank -1 marks "no rank".
            self.tracer.emit(
                kind, -1,
                unit=att.unit.unit_id, attempt=att.failures, reason=reason,
            )

    # -- the supervision loop ------------------------------------------

    def run(self, tasks: Sequence[tuple[WorkUnit, InjectionPoint]]) -> Iterator[tuple]:
        """Supervised execution of ``tasks``; yields completion events.

        Yields ``("done", attempt, (unit_id, tests, registry))`` for each
        finished unit and ``("quarantined", attempt, reason)`` for each
        unit given up on (quarantine mode only).  Order follows
        completion, not submission — the caller re-assembles
        deterministically by unit id.
        """
        cfg = self.config
        pending: deque[_Attempt] = deque(_Attempt(u, p) for u, p in tasks)
        backoff: list[tuple[float, int, _Attempt]] = []  # (eligible_at, tiebreak, att)
        backoff_seq = 0
        in_flight = 0

        self._slots = [
            self._spawn_slot() for _ in range(min(self.jobs, max(1, len(pending))))
        ]

        def fail(att: _Attempt, reason: str) -> list[tuple]:
            """Retry-or-quarantine; returns the events to yield (0 or 1)."""
            nonlocal backoff_seq
            att.failures += 1
            att.last_reason = reason
            if att.failures > cfg.max_retries:
                self._count("exec.quarantined")
                self._emit("unit_quarantined", att, reason)
                if not cfg.quarantine:
                    raise UnitFailedError(att.unit.unit_id, att.failures, reason)
                return [(QUARANTINED, att, reason)]
            self._count("exec.retries")
            self._emit("unit_retry", att, reason)
            backoff_seq += 1
            heapq.heappush(
                backoff, (time.monotonic() + cfg.backoff(att.failures), backoff_seq, att)
            )
            return []

        def lost(slot: _Slot, att: _Attempt, reason: str, kill: bool = False) -> list[tuple]:
            """The worker holding (or about to get) ``att`` is gone."""
            self._count("exec.worker_deaths")
            self._respawn(slot, kill=kill)
            return fail(att, reason)

        def dispatch(slot: _Slot, att: _Attempt) -> list[tuple]:
            """Hand a unit to a worker; a send failure is a worker death."""
            nonlocal in_flight
            try:
                slot.conn.send(("task", att.unit, att.point, att.failures))
            except (BrokenPipeError, OSError):
                return lost(slot, att, "worker died before dispatch")
            slot.task = att
            slot.deadline = None if cfg.unit_timeout is None else time.monotonic() + cfg.unit_timeout
            in_flight += 1
            return []

        try:
            while pending or backoff or in_flight:
                now = time.monotonic()
                while backoff and backoff[0][0] <= now:
                    pending.append(heapq.heappop(backoff)[2])
                for slot in self._slots:
                    if slot.task is None and pending:
                        yield from dispatch(slot, pending.popleft())

                # How long may we sleep? Until the nearest deadline or
                # backoff promotion, bounded by the poll interval.
                timeout = cfg.poll_interval
                now = time.monotonic()
                for slot in self._slots:
                    if slot.deadline is not None and slot.task is not None:
                        timeout = min(timeout, max(0.0, slot.deadline - now))
                if backoff:
                    timeout = min(timeout, max(0.0, backoff[0][0] - now))

                busy = {slot.conn: slot for slot in self._slots if slot.task is not None}
                if busy:
                    for conn in connection_wait(list(busy), timeout):
                        slot = busy[conn]
                        att = slot.task
                        in_flight -= 1
                        try:
                            msg = conn.recv()
                        except (EOFError, OSError):
                            # Pipe EOF: the worker died mid-unit, however
                            # it died (os._exit, signal, native crash).
                            yield from lost(slot, att, "worker process died mid-unit")
                            continue
                        slot.task, slot.deadline = None, None
                        if msg[0] == "ok":
                            yield (DONE, att, msg[1:])
                        else:  # ("error", unit_id, summary)
                            yield from fail(att, f"worker crashed: {msg[2]}")
                elif backoff:
                    # Nothing running, everything in backoff: sleep it off.
                    time.sleep(max(0.0, backoff[0][0] - time.monotonic()))

                # Deadline enforcement: kill wedged workers.
                now = time.monotonic()
                for slot in self._slots:
                    if (
                        slot.task is not None
                        and slot.deadline is not None
                        and now >= slot.deadline
                    ):
                        in_flight -= 1
                        yield from lost(
                            slot, slot.task,
                            f"unit exceeded its {cfg.unit_timeout:.1f}s deadline; "
                            "worker killed",
                            kill=True,
                        )
        finally:
            self._shutdown()
