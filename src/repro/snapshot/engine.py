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

Units are pulled lazily while the job is parked, so a caller that
decides unit *k+1* after reporting unit *k* (a pool worker) still shares
the one run.  A unit's tests come from a *slot source*, ``take(limit)``,
that hands the engine only slots certain to run whatever the results
still undelivered turn out to be — a list's every task, a sequential
stopper's tests up to its certain horizon.  So test *k+1* may be forked
before test *k* is reaped, up to ``width`` children in flight, and
results are still delivered strictly in slot order; no child is ever
forked past the cut a serial loop would make.  At each
park the parent also captures a :class:`SimSnapshot` into an LRU cache;
only the *first* target of a later run in the same process fast-forwards
from it instead of replaying from t=0.

Decided at the park: before a test is forked or replayed, the parent
strikes a private copy of the parked call's arguments with a copy of the
test's RNG and runs the collective's own entry checks
(:data:`~repro.simmpi.validation.ENTRY_CHECKS`, the function the live
call runs) on it.  If they raise a simulated-MPI error, the job would
end right there — errors are fatal to the job — so the test's result is
``runner.classify_error`` of that error, delivered in its slot like a
known result, with no fork and no replay (``snapshot.decided_tests``).
A strike in buffer memory, checks that pass and any other exception
fork or replay as before.

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

import copy
import os
import pickle
import signal
import struct
import time
from collections import deque
from dataclasses import replace
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..injection.models import MODELS, build_injector
from ..injection.runner import InjectionRunner, TestResult
from ..injection.space import FaultSpec, InjectionPoint
from ..injection.targets import param_kind
from ..obs.metrics import MetricsRegistry, Timer
from ..simmpi.calls import CollectiveCall, Instrument
from ..simmpi.errors import SchedulerInterrupt, SimMPIError
from ..simmpi.runtime import SimMPI
from ..simmpi.validation import ENTRY_CHECKS
from .cache import SnapshotCache
from .snapshot import (
    FastForwardDiverged,
    fast_forward,
    instrument_fibers,
    take_snapshot,
    verify_restored,
)

#: One test handed to :meth:`SnapshotEngine.serve_point`: the spec
#: (any model, parameter already drawn) and the post-draw RNG that will
#: pick the bit.
Task = tuple[FaultSpec, np.random.Generator]

#: One slot of a unit: a task to run, or a result already known (a
#: statically predicted test), delivered in its slot without running.
Slot = Task | TestResult

#: A unit's slot source: ``take(limit)`` returns at most ``limit`` next
#: slots that are certain to run; ``[]`` with nothing in flight ends the
#: unit.  The engine calls it again after each delivery.
Take = Callable[[int], list[Slot]]

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
    take: Take
    deliver: Callable[[TestResult], None]
    done: Callable[[], None]
    #: Registry of this unit's ``snapshot.*`` counters (None: the engine's).
    metrics: Any = None


def task_slots(tasks: Iterable[Task], delivered: Sequence[TestResult]) -> Take:
    """The slot source of plain tasks whose results go to ``delivered``.

    A sequence is one batch: every task is drawn, so every one is certain
    to run.  Any other iterable may draw its next task from the results
    so far, so it hands out one task at a time, and only once every
    earlier one is in ``delivered``."""
    handed = 0
    stream = None if isinstance(tasks, Sequence) else iter(tasks)

    def take(limit: int) -> list[Slot]:
        nonlocal handed
        if stream is None:
            out = list(tasks[handed: handed + limit])
        else:
            out = list(islice(stream, min(limit, 1))) if handed == len(delivered) else []
        handed += len(out)
        return out

    return take


def slots_of(take: Take) -> Iterator[Slot]:
    """Every slot ``take`` has left, pulled one at a time: the next only
    once the previous one was consumed."""
    return chain.from_iterable(iter(lambda: take(1), []))


def _children(inflight: Iterable[_InFlight | TestResult]) -> Iterator[_InFlight]:
    """The forked children among ``inflight``."""
    return (entry for entry in inflight if isinstance(entry, _InFlight))


def _held(first: Slot, take: Take) -> Take:
    """``take`` with ``first``, already pulled, handed out again first."""
    held = [first]

    def take_again(limit: int) -> list[Slot]:
        if held:
            return [held.pop()]
        return take(limit)

    return take_again


def _trial_call(call: CollectiveCall) -> CollectiveCall:
    """A private copy of a parked call for a trial strike.  The injector
    replaces an argument's value (a vector flip builds a new array), so
    a copy of the argument dict keeps the parked call untouched."""
    return replace(call, args=dict(call.args))


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
        Most forked children in flight at a park (default: every core
        this process may run on, :func:`cpu_count`).
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
        ``tasks`` is a sequence (:func:`task_slots`)."""
        results: list[TestResult] = []

        def deliver(result: TestResult) -> None:
            results.append(result)
            if on_result is not None:
                on_result(result)

        self.serve([Unit(point, task_slots(tasks, results), deliver, lambda: None, metrics)])
        return results

    def serve(self, units: Iterable[Unit]) -> None:
        """Serve a lazily pulled stream of units from as few fault-free
        runs as their order allows.

        A unit's ``take`` is its slot source (:data:`Take`): each slot is
        a ``(spec, rng)`` pair with the fault parameter already drawn —
        the rng state handed in is exactly what ``run_one`` would
        receive, and the forked child inherits it bit-for-bit — or a
        result already known, delivered in its slot.  The first slot is
        pulled before the job parks at the unit's point; after that the
        engine asks for as many as it has room for (``width`` minus the
        children in flight) after each delivery.  A source hands out
        only slots certain to run, so the engine forks whatever it is
        given, overlapping up to ``width`` children, and delivers in
        slot order.  When ``take`` returns nothing with nothing in
        flight ``done()`` is called and the next unit pulled: the same
        run walks on to a point still ahead of it, a point already
        passed starts a fresh run.  Any test the fork path cannot serve
        is re-run from scratch, resuming at the first undelivered slot.
        What ``units``, ``take``, ``deliver`` or ``done`` raises ends
        the run and propagates.
        """
        units = iter(units)
        unit = self._pull(units)
        while unit is not None:
            unit = self._run(unit, units)

    def decide(self, ctx, call: CollectiveCall, spec: FaultSpec,
               rng: np.random.Generator) -> TestResult | None:
        """The result of test ``(spec, rng)`` at the parked ``call`` when
        the collective's entry checks reject its strike, else None (the
        test must run).  The strike lands on a copy of the call with a
        deep copy of ``rng``, so neither changes; buffer strikes, which
        write rank memory, are never tried."""
        if MODELS[spec.model].kind != "param" or param_kind(spec.param) == "buffer":
            return None
        injector = build_injector(spec, copy.deepcopy(rng))
        trial = _trial_call(call)
        try:
            injector._inject(ctx, trial)
            ENTRY_CHECKS[trial.name](ctx.runtime, ctx.rank, trial.args)
        except SimMPIError as exc:
            # Fatal at entry: the job ends with exactly this error.
            return self.runner.classify_error(spec, injector, exc)
        except Exception:
            pass  # the scheduler's own containment decides: run it
        return None

    # -- internals -----------------------------------------------------

    def _replay(self, slots: Iterable[Slot], deliver, m) -> None:
        """Counted fallback: ``run_one`` every task left in ``slots``; a
        known result is delivered as it is."""
        for slot in slots:
            if not isinstance(slot, TestResult):
                m.counter("snapshot.fallback_tests").inc()
                slot = self.runner.run_one(*slot)
            deliver(slot)

    def _pull(self, units: Iterator[Unit]) -> Unit | None:
        """The next unit a park can serve, its first slot peeked with
        ``take(1)`` and held for the park (an empty source costs
        nothing); units that cannot share a prefix are replayed and
        finished right here."""
        for point, take, deliver, done, m in units:
            m = m if m is not None else self.metrics
            peeked = take(1)
            if peeked:
                first = peeked[0]
                spec = first.spec if isinstance(first, TestResult) else first[0]
                take = _held(first, take)
                if (
                    snapshot_supported()
                    and getattr(self.runner.app, "deterministic", True)
                    # Wire, rank, and timeline faults are not single-site
                    # parameter corruptions: the fault-free-prefix
                    # assumption the fork amortization rests on does not hold.
                    and MODELS[spec.model].snapshot_safe
                ):
                    return Unit(point, take, deliver, done, m)
                self._replay(slots_of(take), deliver, m)
            done()
        return None

    def _finish(self, unit: Unit) -> None:
        unit.metrics.gauge("snapshot.bytes").set(self.cache.nbytes)
        unit.done()

    def _run(self, unit: Unit, units: Iterator[Unit]) -> Unit | None:
        """One fault-free job: park at ``unit``'s point, fork its tests,
        and walk on to every later unit still ahead.  Returns the pulled
        unit this run cannot reach (it needs a fresh one), or None once
        ``units`` is exhausted."""
        runner, m = self.runner, unit.metrics
        park = _ParkInstrument(unit.point)
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

        def parked(ctx, call: CollectiveCall, prefix_s: float):
            """Parent: serve the unit at this park (``call`` on ``ctx``),
            ``prefix_s`` seconds of fault-free run from t=0, then re-point
            the park at the next unit and return None.  Child: return the
            injector to arm."""
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
            elif unit.point not in self.cache:
                try:
                    self.cache.put(
                        unit.point, take_snapshot(unit.point, scheduler, contexts, fibers, logs)
                    )
                except Exception:
                    # Capture is an optimisation; serving must not die on it.
                    pass
            _, take, deliver, _, m = unit
            m.gauge("snapshot.width").set(self.width)
            #: Forked children and known results, in slot order.
            inflight: deque[_InFlight | TestResult] = deque()
            pending: deque[Slot] = deque()  # taken, not yet served
            try:
                while True:
                    if not pending:
                        # The calibrating forks run solo.
                        limit = self.width if self._overhead.count >= CALIBRATION_FORKS else 1
                        if len(inflight) < limit:
                            pending.extend(take(limit - len(inflight)))
                        if not pending:
                            if not inflight:
                                break  # nothing left to run
                            self._collect(inflight, deliver, m)
                            continue
                    slot = pending.popleft()
                    if isinstance(slot, TestResult):
                        # Known without running: it waits for the
                        # slots before it, like a child.
                        if inflight:
                            inflight.append(slot)
                        else:
                            deliver(slot)
                        continue
                    spec, rng = slot
                    decided = self.decide(ctx, call, spec, rng)
                    if decided is not None:
                        m.counter("snapshot.decided_tests").inc()
                        pending.appendleft(decided)  # delivered as a known result
                        continue
                    if not self.fork_pays(prefix_s):
                        # Replaying this prefix is cheaper than a fork from it.
                        self._drain(inflight, deliver, m)
                        m.counter("snapshot.replayed_tests").inc()
                        deliver(runner.run_one(spec, rng))
                        continue
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
                        self._drain(inflight, deliver, m)
                        self._replay(chain([slot], pending, slots_of(take)), deliver, m)
                        break
                    if pid == 0:
                        # -- child: arm the fault at the parked call and
                        # let the inherited scheduler stack resume.
                        child.update(
                            wfd=wfd, spec=spec, injector=injector, t0=time.perf_counter()
                        )
                        os.close(rfd)
                        for sibling in _children(inflight):
                            os.close(sibling.rfd)
                        return injector
                    os.close(wfd)
                    m.counter("snapshot.forks").inc()
                    if any(_children(inflight)):
                        m.counter("snapshot.overlapped_forks").inc()
                    inflight.append(_InFlight(pid, rfd, fork_t0, spec, rng))
                self._drain(inflight, deliver, m)
            except BaseException:
                if not child:  # a forked child never owns its siblings
                    self._abandon(inflight)
                raise
            self._finish(unit)
            unit = self._pull(units)
            if unit is None or (
                contexts[unit.point.rank]._site_counters.get(unit.point.site_key, 0)
                > unit.point.invocation
            ):
                raise _PrefixAbandoned(unit)  # no more units, or one behind us
            # Still ahead: let the same parent job run on to it.
            park.point, park.armed = unit.point, True
            return None

        def on_park(ctx, call):
            nonlocal started
            parked_at = time.perf_counter()
            try:
                injector = parked(ctx, call, parked_at - started)
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
        self._replay(slots_of(unit.take), unit.deliver, unit.metrics)
        self._finish(unit)
        return self._pull(units)

    def _collect(self, inflight: deque[_InFlight | TestResult], deliver, m) -> None:
        """Reap the oldest in-flight child and deliver its result (or
        deliver the oldest known result); a child that died without one
        has its test replayed in its slot, on the parent's untouched
        post-draw RNG."""
        entry = inflight.popleft()
        if isinstance(entry, TestResult):
            deliver(entry)
            return
        pid, rfd, fork_t0, spec, rng = entry
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

    def _drain(self, inflight: deque[_InFlight | TestResult], deliver, m) -> None:
        """:meth:`_collect` every in-flight child, oldest first."""
        while inflight:
            self._collect(inflight, deliver, m)

    @staticmethod
    def _abandon(inflight: deque[_InFlight | TestResult]) -> None:
        """Kill, reap and close every in-flight child: none outlives the
        park it was forked at."""
        for child in _children(inflight):
            os.close(child.rfd)
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
        inflight.clear()

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
