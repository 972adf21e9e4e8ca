"""Park-and-fork serving of injection tests sharing a fault-free prefix.

The engine runs the fault-free prefix **once per injection point**: a
park instrument stops the job at the target collective entry (exactly
where the fault injector would fire), and every test at that point is
then served by ``os.fork()`` — the child arms its injector at the parked
call, resumes the inherited scheduler stack, classifies its own
continuation with the *same* :class:`~repro.injection.runner.InjectionRunner`
classification helpers the from-scratch path uses, and ships the
:class:`~repro.injection.runner.TestResult` back over a pipe.  The
parent's runtime is never perturbed, so forked results are
fingerprint-identical to from-scratch runs by construction.

Tasks are pulled lazily while the job is parked, each only after the
previous result was delivered, so a caller that decides test *k+1* from
result *k* (a sequential stopper) still pays one prefix per work unit.
At park time the parent also captures a :class:`SimSnapshot` into an
LRU cache; only a *later* ``serve_point`` call on the same point in the
same process (a retried unit, a second ``Campaign.run`` on one
``Campaign``) fast-forwards from it instead of replaying from t=0.

Fallbacks (always to a plain ``runner.run_one`` full replay):

* platforms without ``os.fork`` (the engine reports unsupported);
* apps flagged ``deterministic = False``;
* the park never fires (site unreachable) or the prefix itself fails;
* fast-forward divergence (stale snapshot / determinism violation);
* ``os.fork`` failing, or a forked child dying without a result.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import replace
from itertools import chain
from typing import Any, Iterable

import numpy as np

from ..injection.models import MODELS, build_injector
from ..injection.runner import InjectionRunner, TestResult
from ..injection.space import FaultSpec, InjectionPoint
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


def snapshot_supported() -> bool:
    """True when the platform can serve tests by forking a parked job."""
    return hasattr(os, "fork")


class _PrefixAbandoned(SchedulerInterrupt):
    """Parent-side unwind once the task stream is exhausted."""


class _FastForwardMismatch(SchedulerInterrupt):
    """The restored job failed the byte-exact re-park check; the
    snapshot is stale — rebuild the prefix from t=0."""


class _SnapshotUnusable(Exception):
    """This point cannot be served from a parked prefix; fall back."""


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
    """Serves batches of injection tests at one point from one prefix.

    Parameters
    ----------
    runner:
        The :class:`InjectionRunner` whose configuration (step budget,
        algorithms, alloc cap) and classification rules define a test.
        Fallback full replays go through ``runner.run_one`` verbatim.
    cache:
        Snapshot LRU; a fresh default-budget cache when omitted.
    metrics:
        Default :class:`~repro.obs.metrics.MetricsRegistry` for the
        ``snapshot.*`` counters (overridable per ``serve_point`` call).
    """

    def __init__(
        self,
        runner: InjectionRunner,
        cache: SnapshotCache | None = None,
        metrics=None,
    ):
        self.runner = runner
        self.cache = cache if cache is not None else SnapshotCache()
        self.metrics = metrics

    # -- public API ----------------------------------------------------

    def serve_point(
        self, point: InjectionPoint, tasks: Iterable[Task], metrics=None, on_result=None
    ) -> list[TestResult]:
        """Run every task at ``point``, amortizing the fault-free prefix.

        ``tasks`` is any iterable of ``(spec, rng)`` pairs with the
        fault parameter already drawn — the rng state handed in is
        exactly what ``run_one`` would receive, and the forked child
        inherits it bit-for-bit.  It is pulled lazily while the job is
        parked: the first task before the prefix runs, each later one
        only after the previous result has been appended to the returned
        list and passed to ``on_result`` — exactly once, in task order —
        so a generator may decide from the results so far whether there
        is a next task; the park lasts until it is exhausted.  Any test
        the fork path cannot serve is transparently re-run from scratch,
        resuming at the first undelivered task.
        """
        m = metrics if metrics is not None else self.metrics
        results: list[TestResult] = []

        def deliver(result: TestResult) -> None:
            results.append(result)
            if on_result is not None:
                on_result(result)

        stream = iter(tasks)
        first = next(stream, None)
        if first is None:
            return results
        stream = chain([first], stream)
        if (
            not snapshot_supported()
            or not getattr(self.runner.app, "deterministic", True)
            # Wire, rank, and timeline faults are not single-site
            # parameter corruptions: the fault-free-prefix assumption
            # the fork amortization rests on does not hold.
            or not MODELS[getattr(first[0], "model", "bitflip")].snapshot_safe
        ):
            self._replay(stream, deliver, m)
            return results

        park = _ParkInstrument(self._park_point(point))
        job, snapshot = self._restore(point, park, m)
        try:
            try:
                self._serve(point, park, stream, deliver, job, snapshot, m)
            except _FastForwardMismatch:
                # The restored state failed the byte-exact re-park check
                # (stale snapshot / determinism violation): drop it and
                # serve from a fresh t=0 prefix.  Raised before the first
                # pull inside the park, so the stream is still untouched.
                self.cache.pop(point)
                self._inc(m, "snapshot.ff_divergence")
                park = _ParkInstrument(self._park_point(point))
                self._serve(point, park, stream, deliver, None, None, m)
        except _SnapshotUnusable:
            # Prefix aborted or park never fired: nothing pulled yet.
            self._replay(stream, deliver, m)
        if m is not None:
            m.gauge("snapshot.bytes").set(self.cache.nbytes)
        return results

    # -- internals -----------------------------------------------------

    @staticmethod
    def _inc(m, name: str) -> None:
        if m is not None:
            m.counter(name).inc()

    def _replay(self, tasks: Iterable[Task], deliver, m) -> None:
        """Counted fallback: ``run_one`` whatever is left of ``tasks``."""
        for spec, rng in tasks:
            self._inc(m, "snapshot.fallback_tests")
            deliver(self.runner.run_one(spec, rng))

    @staticmethod
    def _park_point(point: InjectionPoint) -> InjectionPoint:
        if mutants.active_mutant() == "snapshot_wrong_invocation" and point.invocation > 0:
            return replace(point, invocation=point.invocation - 1)
        return point

    def _restore(self, point, park, m):
        """Fast-forward a cached snapshot to the park.

        Returns ``(job, snapshot)`` on success, ``(None, None)`` on a
        cache miss or a replay-time divergence.
        """
        snapshot = self.cache.get(point)
        if snapshot is None:
            self._inc(m, "snapshot.misses")
            return None, None
        self._inc(m, "snapshot.hits")
        try:
            if m is not None:
                with m.time("snapshot.fastforward_s"):
                    job = self._fast_forward(snapshot, park)
            else:
                job = self._fast_forward(snapshot, park)
        except FastForwardDiverged:
            # Stale or wrong snapshot: drop it and rebuild from t=0.
            self.cache.pop(point)
            self._inc(m, "snapshot.ff_divergence")
            return None, None
        return job, snapshot

    def _fast_forward(self, snapshot, park):
        runner = self.runner
        return fast_forward(
            runner.app.main,
            snapshot,
            step_budget=runner.step_budget,
            algorithms=runner.algorithms,
            alloc_cap=runner.alloc_cap,
            instruments=[park],
        )

    def _serve(self, point, park, stream, deliver, job, snapshot, m) -> None:
        runner = self.runner
        #: Populated only inside a forked child, between the fork and the
        #: child's classification of its own continuation.
        child: dict[str, Any] = {}

        if job is not None:
            contexts, fibers = job.contexts, job.fibers
            scheduler, logs = job.scheduler, job.logs
        else:
            sim = SimMPI(
                runner.app.nranks,
                step_budget=runner.step_budget,
                algorithms=runner.algorithms,
                alloc_cap=runner.alloc_cap,
            )
            contexts, fibers, scheduler = sim.prepare(runner.app.main, [park])
            logs = instrument_fibers(fibers)

        def on_park(ctx, call):
            if job is not None:
                # The restored job is back at the very instant the
                # snapshot was captured: now the states are comparable.
                try:
                    verify_restored(job, snapshot)
                except FastForwardDiverged as exc:
                    raise _FastForwardMismatch(str(exc)) from exc
            elif mutants.active_mutant() is None and point not in self.cache:
                try:
                    self.cache.put(
                        point, take_snapshot(point, scheduler, contexts, fibers, logs)
                    )
                except Exception:
                    # Capture is an optimisation; serving must not die on it.
                    pass
            if mutants.active_mutant() == "snapshot_stale_prefix":
                for stale_ctx in contexts:
                    mem = stale_ctx.memory
                    for seg in mem.segments:
                        mem.raw[seg.addr - mem.base] ^= 1
            for spec, rng in stream:
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
                    self._replay(chain([(spec, rng)], stream), deliver, m)
                    break
                if pid == 0:
                    # -- child: arm the fault at the parked call and let
                    # the inherited scheduler stack resume.
                    os.close(rfd)
                    child.update(wfd=wfd, spec=spec, injector=injector)
                    injector._inject(ctx, call)
                    return
                os.close(wfd)
                self._inc(m, "snapshot.forks")
                result = self._reap(pid, rfd)
                if m is not None:
                    m.timer("snapshot.fork_s").record(time.perf_counter() - fork_t0)
                if result is not None:
                    deliver(result)
                else:
                    # The child died without delivering: full-replay this
                    # test on the parent's untouched post-draw RNG now —
                    # the next pull may depend on its result.
                    self._replay([(spec, rng)], deliver, m)
            raise _PrefixAbandoned

        park.on_park = on_park
        try:
            # Corrupted data legitimately overflows in application
            # arithmetic (run_one does the same for scratch runs).
            with np.errstate(all="ignore"):
                run_results = scheduler.run()
        except _PrefixAbandoned:
            pass  # parent: stream exhausted, every result delivered
        except SimMPIError as exc:
            if child:
                self._child_exit(child, runner.classify_error, exc)
            raise _SnapshotUnusable(f"fault-free prefix aborted: {exc!r}") from exc
        except Exception as exc:
            if child:
                self._child_exit(child, runner.classify_harness_error, exc)
            raise _SnapshotUnusable(f"prefix run failed in the harness: {exc!r}") from exc
        except BaseException:
            if child:  # pragma: no cover - interrupt containment
                os._exit(1)
            raise
        else:
            if child:
                self._child_exit(child, runner.classify_completion, run_results)
            # Parent, and the park never fired: the site is unreachable
            # under this configuration.
            raise _SnapshotUnusable(f"injection site never reached: {point}")

    @staticmethod
    def _child_exit(child: dict, classify, ending) -> None:
        """Classify how the continuation ended, ship the result to the
        parent, and exit the child without running any inherited
        teardown (``os._exit``)."""
        try:
            result = classify(child["spec"], child["injector"], ending)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            view = memoryview(payload)
            wfd = child["wfd"]
            while view:
                view = view[os.write(wfd, view):]
            os.close(wfd)
            os._exit(0)
        except BaseException:  # pragma: no cover - child containment
            os._exit(1)

    @staticmethod
    def _reap(pid: int, rfd: int) -> TestResult | None:
        """Collect one child's pickled result; None on any failure."""
        chunks = []
        try:
            while True:
                block = os.read(rfd, 1 << 16)
                if not block:
                    break
                chunks.append(block)
        finally:
            os.close(rfd)
        _, status = os.waitpid(pid, 0)
        if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
            return None
        if not chunks:
            return None
        try:
            result = pickle.loads(b"".join(chunks))
        except Exception:
            return None
        return result if isinstance(result, TestResult) else None
