"""Park-and-fork serving of injection tests sharing a fault-free run.

The engine pays the fault-free part of a campaign **once per stream of
units**: a park instrument stops the job at a unit's target collective
entry (exactly where the fault injector would fire), and every test at
that point is then served by ``os.fork()`` — the child arms its injector
at the parked call, resumes the inherited scheduler stack, classifies
its own continuation with the *same*
:class:`~repro.injection.runner.InjectionRunner` classification helpers
the from-scratch path uses, and ships the
:class:`~repro.injection.runner.TestResult` back over a pipe.  The
parent's runtime is never perturbed, so forked results are
fingerprint-identical to from-scratch runs by construction — and the
same parent can therefore run on: when a unit is done the next one is
pulled, and if its point is still ahead the park is re-pointed and the
job walks forward to it.  Only a point the run has already passed (a
retried unit, an out-of-order stream) starts a fresh run from t=0.

Units and tasks are pulled lazily while the job is parked, each task
only after the previous result was delivered, so a caller that decides
test *k+1* from result *k* (a sequential stopper) or unit *k+1* after
reporting unit *k* (a pool worker) still shares the one run.  A unit
whose tasks come as a *list* has nothing left to decide: test *k+1* is
forked before test *k* is reaped, up to ``width`` children in flight,
and results are still delivered strictly in task order.  At each
park the parent also captures a :class:`SimSnapshot` into an LRU cache;
only the *first* target of a later run in the same process fast-forwards
from it instead of replaying from t=0.

Chosen replay: a fork costs a fixed overhead (fork + pipe + reap, ~3 ms)
whatever the prefix, so at a park whose prefix was cheaper to run than
that, tests are served by ``runner.run_one`` right where the job stands
(:meth:`SnapshotEngine.fork_pays`, ``snapshot.replayed_tests``).

Fallbacks (``snapshot.fallback_tests``, the same ``run_one`` full replay):

* platforms without ``os.fork`` (the engine reports unsupported);
* apps flagged ``deterministic = False``;
* the park never fires (site unreachable) or the prefix itself fails —
  that unit alone replays, the next one starts a fresh run;
* fast-forward divergence (stale snapshot / determinism violation);
* ``os.fork`` failing, or a forked child dying without a result.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import time
from collections import deque
from dataclasses import replace
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ..injection.models import MODELS, build_injector
from ..injection.runner import InjectionRunner, TestResult
from ..injection.space import FaultSpec, InjectionPoint
from ..obs.metrics import MetricsRegistry, Timer
from ..simmpi.calls import Instrument
from ..simmpi.errors import SchedulerInterrupt, SimMPIError
from ..simmpi.runtime import SimMPI
from . import mutants
from .cache import SnapshotCache
from .snapshot import (
    FastForwardDiverged,
    fast_forward,
    instrument_fibers,
    take_snapshot,
    verify_restored,
)

#: One test handed to :meth:`SnapshotEngine.serve_point`: the spec
#: (``FaultSpec`` or any model's ``ModelSpec``, parameter already drawn)
#: and the post-draw RNG that will pick the bit.
Task = tuple[FaultSpec, np.random.Generator]

#: Reaped children before an engine forks more than one at a time: their
#: overhead samples calibrate :meth:`SnapshotEngine.fork_pays`.
CALIBRATION_FORKS = 3

#: What a child writes after its pickled result: the ``perf_counter``
#: (CLOCK_MONOTONIC, shared across ``fork``) at its start, and once the
#: result is written.
_STAMPS = struct.Struct("=dd")


def cpu_count() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else every core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _InFlight(NamedTuple):
    """A forked child the parent has not reaped yet."""

    pid: int
    rfd: int
    fork_t0: float
    spec: FaultSpec
    rng: np.random.Generator


class Unit(NamedTuple):
    """One unit handed to :meth:`SnapshotEngine.serve`."""

    point: InjectionPoint
    tasks: Iterable[Task]
    deliver: Callable[[TestResult], None]
    done: Callable[[], None]
    #: Registry of this unit's ``snapshot.*`` counters (None: the engine's).
    metrics: Any = None


def snapshot_supported() -> bool:
    """True when the platform can serve tests by forking a parked job."""
    return hasattr(os, "fork")


class _PrefixAbandoned(SchedulerInterrupt):
    """Parent-side unwind of a run that serves no further unit: carries
    the pulled unit that needs a fresh run (None: the stream is over),
    or as ``__cause__`` what a caller's callable raised while parked."""


class _ParkInstrument(Instrument):
    """Stops the job at one collective entry by invoking a callback.

    Fires at exactly the ``(rank, collective, site, invocation)`` match
    the fault injector would use, *before* validation — the parked state
    is the state an injector sees.
    """

    def __init__(self, point: InjectionPoint):
        self.point = point
        self.on_park = None
        self.armed = True

    def on_collective(self, ctx, call) -> None:
        if not self.armed or self.on_park is None:
            return
        p = self.point
        if (
            call.rank == p.rank
            and call.name == p.collective
            and call.site == p.site
            and call.invocation == p.invocation
        ):
            self.armed = False
            self.on_park(ctx, call)


class SnapshotEngine:
    """Serves units of injection tests, one point each, from one run.

    Parameters
    ----------
    runner:
        The :class:`InjectionRunner` whose configuration (step budget,
        algorithms, alloc cap) and classification rules define a test.
        Fallback full replays go through ``runner.run_one`` verbatim.
    cache:
        Snapshot LRU; a fresh default-budget cache when omitted.
    metrics:
        :class:`~repro.obs.metrics.MetricsRegistry` of the ``snapshot.*``
        counters for units that bring none (default: a private one).
    width:
        Most forked children in flight at a park whose tasks are a list
        (default: every core this process may run on, :func:`cpu_count`).
    """

    def __init__(
        self,
        runner: InjectionRunner,
        cache: SnapshotCache | None = None,
        metrics=None,
        width: int | None = None,
    ):
        self.runner = runner
        self.cache = cache if cache is not None else SnapshotCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.width = max(1, width if width is not None else cpu_count())
        #: Fork overhead of every reaped child: from the fork to the
        #: child's first instruction, plus from the child's end (or the
        #: parent turning to it, if later) to the reap.
        self._overhead = Timer()

    # -- public API ----------------------------------------------------

    def fork_pays(self, prefix_s: float) -> bool:
        """The park-or-replay decision: fork a test unless re-running the
        ``prefix_s`` seconds up to this park costs less than the fork
        overhead seen so far.  That is the minimum of at least 3 samples
        (a process's first fork is cold); erring low only forks."""
        return self._overhead.count < CALIBRATION_FORKS or prefix_s >= self._overhead.min

    def serve_point(
        self, point: InjectionPoint, tasks: Iterable[Task], metrics=None, on_result=None
    ) -> list[TestResult]:
        """:meth:`serve` for one unit: run every task at ``point`` and
        return the results, each also passed to ``on_result`` — exactly
        once, in task order, and before the next task is pulled unless
        ``tasks`` is a list."""
        results: list[TestResult] = []

        def deliver(result: TestResult) -> None:
            results.append(result)
            if on_result is not None:
                on_result(result)

        self.serve([Unit(point, tasks, deliver, lambda: None, metrics)])
        return results

    def serve(self, units: Iterable[Unit]) -> None:
        """Serve a lazily pulled stream of units from as few fault-free
        runs as their order allows.

        A unit's ``tasks`` is any iterable of ``(spec, rng)`` pairs with
        the fault parameter already drawn — the rng state handed in is
        exactly what ``run_one`` would receive, and the forked child
        inherits it bit-for-bit.  The first task is pulled before the
        job parks at the unit's point, each later one only after the
        previous result went to ``deliver``, so a generator may decide
        from the results so far whether there is a next task.  A list
        decides nothing: its tests overlap, up to ``width`` forked
        children at a time, and are delivered in list order.  When it
        ends ``done()`` is called and the next unit pulled: the same run
        walks on to a point still ahead of it, a point already passed
        starts a fresh run.  Any test the fork path cannot serve is
        re-run from scratch, resuming at the first undelivered task.
        What ``units``, ``tasks``, ``deliver`` or ``done`` raises ends
        the run and propagates.
        """
        units = iter(units)
        unit = self._pull(units)
        while unit is not None:
            unit = self._run(unit, units)

    # -- internals -----------------------------------------------------

    def _replay(self, tasks: Iterable[Task], deliver, m) -> None:
        """Counted fallback: ``run_one`` whatever is left of ``tasks``."""
        for spec, rng in tasks:
            m.counter("snapshot.fallback_tests").inc()
            deliver(self.runner.run_one(spec, rng))

    def _pull(self, units: Iterator[Unit]) -> Unit | None:
        """The next unit a park can serve, its first task peeked (an
        empty stream costs nothing); units that cannot share a prefix
        are replayed and finished right here.  A list stays a list: it
        is how the serving loop knows every task is drawn already."""
        for point, tasks, deliver, done, m in units:
            m = m if m is not None else self.metrics
            stream = iter(tasks)
            first = next(stream, None)
            if first is not None:
                stream = tasks if isinstance(tasks, list) else chain([first], stream)
                if (
                    snapshot_supported()
                    and getattr(self.runner.app, "deterministic", True)
                    # Wire, rank, and timeline faults are not single-site
                    # parameter corruptions: the fault-free-prefix
                    # assumption the fork amortization rests on does not hold.
                    and MODELS[getattr(first[0], "model", "bitflip")].snapshot_safe
                ):
                    return Unit(point, stream, deliver, done, m)
                self._replay(stream, deliver, m)
            done()
        return None

    def _finish(self, unit: Unit) -> None:
        unit.metrics.gauge("snapshot.bytes").set(self.cache.nbytes)
        unit.done()

    @staticmethod
    def _park_point(point: InjectionPoint) -> InjectionPoint:
        if mutants.active_mutant() == "snapshot_wrong_invocation" and point.invocation > 0:
            return replace(point, invocation=point.invocation - 1)
        return point

    def _run(self, unit: Unit, units: Iterator[Unit]) -> Unit | None:
        """One fault-free job: park at ``unit``'s point, fork its tests,
        and walk on to every later unit still ahead.  Returns the pulled
        unit this run cannot reach (it needs a fresh one), or None once
        ``units`` is exhausted."""
        runner, m = self.runner, unit.metrics
        park = _ParkInstrument(self._park_point(unit.point))
        config = dict(
            step_budget=runner.step_budget, algorithms=runner.algorithms, alloc_cap=runner.alloc_cap
        )
        # Only a run's first target is looked up in the cache: past it the
        # live job is already further than any snapshot could put it.
        job = None
        restored = self.cache.get(unit.point)
        m.counter("snapshot.misses" if restored is None else "snapshot.hits").inc()
        if restored is not None:
            try:
                with m.time("snapshot.fastforward_s"):
                    job = fast_forward(runner.app.main, restored, instruments=[park], **config)
            except FastForwardDiverged:
                # Stale or wrong snapshot: drop it and rebuild from t=0.
                self.cache.pop(unit.point)
                m.counter("snapshot.ff_divergence").inc()
                restored = None
        if job is None:
            started = time.perf_counter()
            sim = SimMPI(runner.app.nranks, **config)
            contexts, fibers, scheduler = sim.prepare(runner.app.main, [park])
            logs = instrument_fibers(fibers)
        else:
            started = float("-inf")  # what a replay would cost is unknown: always fork
            contexts, fibers, scheduler, logs = job.contexts, job.fibers, job.scheduler, job.logs
        #: Populated only inside a forked child, between the fork and the
        #: child's classification of its own continuation.
        child: dict[str, Any] = {}

        def parked(prefix_s: float):
            """Parent: serve units at this park, ``prefix_s`` seconds of
            fault-free run from t=0; return None once the park is
            re-pointed at a unit further on.  Child: return the injector
            to arm."""
            nonlocal unit, restored
            if prefix_s < float("inf"):
                unit.metrics.timer("snapshot.prefix_s").record(prefix_s)
            if restored is not None:
                # The restored job is back at the very instant the
                # snapshot was captured: now the states are comparable.
                try:
                    verify_restored(job, restored)
                except FastForwardDiverged:
                    # Stale snapshot / determinism violation, caught before
                    # the first pull: drop it, serve the unit from t=0.
                    self.cache.pop(unit.point)
                    unit.metrics.counter("snapshot.ff_divergence").inc()
                    raise _PrefixAbandoned(unit)
                restored = None
            elif mutants.active_mutant() is None and unit.point not in self.cache:
                try:
                    self.cache.put(
                        unit.point, take_snapshot(unit.point, scheduler, contexts, fibers, logs)
                    )
                except Exception:
                    # Capture is an optimisation; serving must not die on it.
                    pass
            if mutants.active_mutant() == "snapshot_stale_prefix":
                for stale_ctx in contexts:
                    mem = stale_ctx.memory
                    for seg in mem.segments:
                        mem.raw[seg.addr - mem.base] ^= 1
            while True:
                _, tasks, deliver, _, m = unit
                # A list's tasks are all drawn: test k+1 may fork before
                # test k is reaped.  Any other stream may draw k+1 from
                # result k (a stopper), so it is served one child at a time.
                width = self.width if isinstance(tasks, list) else 1
                m.gauge("snapshot.width").set(width)
                stream = iter(tasks)
                inflight: deque[_InFlight] = deque()
                result = None  # the last result delivered
                try:
                    for spec, rng in stream:
                        if not self.fork_pays(prefix_s):
                            # Replaying this prefix is cheaper than a fork from it.
                            result = self._drain(inflight, deliver, m, result)
                            m.counter("snapshot.replayed_tests").inc()
                            if (
                                result is None
                                or mutants.active_mutant() != "snapshot_replay_wrong_slot"
                            ):
                                result = runner.run_one(spec, rng)
                            deliver(result)
                            continue
                        if mutants.active_mutant() == "snapshot_rng_desync":
                            rng.integers(0, 1 << 16)
                        injector = build_injector(spec, rng)
                        fork_t0 = time.perf_counter()
                        rfd, wfd = os.pipe()
                        try:
                            pid = os.fork()
                        except OSError:
                            # Process limit: no child, both pipe ends are ours.
                            # Earlier results are delivered; replay from here on.
                            os.close(rfd)
                            os.close(wfd)
                            self._drain(inflight, deliver, m, result)
                            self._replay(chain([(spec, rng)], stream), deliver, m)
                            break
                        if pid == 0:
                            # -- child: arm the fault at the parked call and
                            # let the inherited scheduler stack resume.
                            child.update(
                                wfd=wfd, spec=spec, injector=injector, t0=time.perf_counter()
                            )
                            os.close(rfd)
                            for sibling in inflight:
                                os.close(sibling.rfd)
                            return injector
                        os.close(wfd)
                        m.counter("snapshot.forks").inc()
                        inflight.append(_InFlight(pid, rfd, fork_t0, spec, rng))
                        # The calibrating forks run solo.
                        limit = width if self._overhead.count >= CALIBRATION_FORKS else 1
                        while len(inflight) >= limit:
                            result = self._collect(inflight, deliver, m)
                    self._drain(inflight, deliver, m, result)
                except BaseException:
                    if not child:  # a forked child never owns its siblings
                        self._abandon(inflight)
                    raise
                self._finish(unit)
                unit = self._pull(units)
                target = unit and self._park_point(unit.point)
                if unit is None or (
                    contexts[target.rank]._site_counters.get(target.site_key, 0)
                    > target.invocation
                ):
                    raise _PrefixAbandoned(unit)  # no more units, or one behind us
                if mutants.active_mutant() != "snapshot_walk_stale_target":
                    # Still ahead: let the same parent job run on to it.
                    park.point, park.armed = target, True
                    return None

        def on_park(ctx, call):
            nonlocal started
            parked_at = time.perf_counter()
            try:
                injector = parked(parked_at - started)
            except SchedulerInterrupt:
                raise
            except BaseException as exc:
                # Not the prefix's failure: carry it past the scheduler,
                # which would report it as a crashed fiber.
                raise _PrefixAbandoned from exc
            started += time.perf_counter() - parked_at  # serving is not prefix
            if injector is not None:
                injector._inject(ctx, call)

        park.on_park = on_park
        try:
            # Corrupted data legitimately overflows in application
            # arithmetic (run_one does the same for scratch runs).
            with np.errstate(all="ignore"):
                run_results = scheduler.run()
        except _PrefixAbandoned as stop:
            if stop.__cause__ is not None:
                raise stop.__cause__
            return stop.args[0]  # every unit pulled before that one is done
        except SimMPIError as exc:
            if child:
                self._child_exit(child, runner.classify_error, exc)
        except Exception as exc:
            if child:
                self._child_exit(child, runner.classify_harness_error, exc)
        except BaseException:
            if child:  # pragma: no cover - interrupt containment
                os._exit(1)
            raise
        else:
            if child:
                self._child_exit(child, runner.classify_completion, run_results)
        # The prefix aborted, or ended with the park never fired (site
        # unreachable under this configuration): nothing of this unit was
        # pulled past the peek — it alone replays, the next starts afresh.
        self._replay(unit.tasks, unit.deliver, unit.metrics)
        self._finish(unit)
        return self._pull(units)

    def _collect(self, inflight: deque[_InFlight], deliver, m) -> TestResult:
        """Reap the oldest in-flight child and deliver its result; a
        child that died without one has its test replayed in its slot,
        on the parent's untouched post-draw RNG.  Returns what was
        delivered."""
        if len(inflight) > 1 and mutants.active_mutant() == "snapshot_pipeline_reorder":
            pid, rfd, fork_t0, spec, rng = inflight.pop()
        else:
            pid, rfd, fork_t0, spec, rng = inflight.popleft()
        waiting = time.perf_counter()
        reaped = self._reap(pid, rfd)
        reaped_at = time.perf_counter()
        m.timer("snapshot.fork_s").record(reaped_at - fork_t0)
        if reaped is None:
            m.counter("snapshot.fallback_tests").inc()
            result = self.runner.run_one(spec, rng)
        else:
            result, child_start, child_end = reaped
            # Fork to the child's first instruction, plus its exit and
            # reap — counted from when the parent turned to this child,
            # so time spent on older siblings is not its overhead.
            overhead = (child_start - fork_t0) + (reaped_at - max(child_end, waiting))
            for timer in (self._overhead, m.timer("snapshot.fork_overhead_s")):
                timer.record(max(0.0, overhead))
        deliver(result)
        return result

    def _drain(self, inflight: deque[_InFlight], deliver, m, result):
        """:meth:`_collect` every in-flight child, oldest first; returns
        the last result delivered (``result`` if none was in flight)."""
        while inflight:
            result = self._collect(inflight, deliver, m)
        return result

    @staticmethod
    def _abandon(inflight: deque[_InFlight]) -> None:
        """Kill, reap and close every in-flight child: none outlives the
        park it was forked at."""
        while inflight:
            child = inflight.popleft()
            os.close(child.rfd)
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)

    @staticmethod
    def _child_exit(child: dict, classify, ending) -> None:
        """Classify how the continuation ended, ship the result and the
        child's start and end stamps to the parent, and exit the child
        without running any inherited teardown (``os._exit``)."""
        try:
            result = classify(child["spec"], child["injector"], ending)
            wfd = child["wfd"]

            def write(payload: bytes) -> None:
                view = memoryview(payload)
                while view:
                    view = view[os.write(wfd, view):]

            write(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
            write(_STAMPS.pack(child["t0"], time.perf_counter()))
            os.close(wfd)
            os._exit(0)
        except BaseException:  # pragma: no cover - child containment
            os._exit(1)

    @staticmethod
    def _reap(pid: int, rfd: int) -> tuple[TestResult, float, float] | None:
        """Collect one child's ``(result, start, end)``; None on any
        failure.  The child is waited for however the read ends — and
        killed first if the read is interrupted."""
        chunks = []
        try:
            while True:
                block = os.read(rfd, 1 << 16)
                if not block:
                    break
                chunks.append(block)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(rfd)
            _, status = os.waitpid(pid, 0)
        if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
            return None
        data = b"".join(chunks)
        if len(data) <= _STAMPS.size:
            return None
        try:
            result = pickle.loads(data[: -_STAMPS.size])
        except Exception:
            return None
        if not isinstance(result, TestResult):
            return None
        return (result, *_STAMPS.unpack(data[-_STAMPS.size:]))
