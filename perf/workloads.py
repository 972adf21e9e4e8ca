"""The six benchmark workloads.

Sizes are about one third of the values the workloads were first sized
at (issue 11), so that one campaign takes ~3 s and a benchmark run can
repeat it in fresh processes inside the driver's budget (see README).
Every workload runs through the public ``repro.FastFIT`` facade; the
traced variant drives the same campaign from outside, one span per call
into a layer.  ``repro`` is imported inside functions only: the child
process times that import, and the parent never needs it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

ACCURACY_TARGET = 0.65
CI_WIDTH = 0.4
#: Test budget of the steering run.  How many rounds a seed needs to
#: reach the target varies 2-8; the budget bounds the run at ~6 s, and
#: "budget" is then one of the loop's three regular ways to stop.  With 8
#: tests per point it covers ~20 of the 29 points: per-test cost differs
#: 5x between points (12-58 ms, by prefix depth), so only a run that
#: covers most of the pool has a tests/s that compares across seeds.
STEER_BUDGET = 150
PARAM_POLICY = "all"

#: Smoke size (``--smoke``): every workload at 2 points x 4 tests.
SMOKE_POINTS = 2
SMOKE_TESTS = 4


def _lu_t():
    from repro.apps.registry import make_app

    return make_app("lu", "T")


def _is_t():
    from repro.apps.registry import make_app

    return make_app("is", "T")


def _lammps_t():
    from repro.apps.registry import make_app

    return make_app("lammps", "T")


def _lu8():
    from repro.apps.npb.lu_kernel import LUKernel

    return LUKernel(8, rows_per_rank=16, ncols=128, iterations=30, omega=1.2, seed=99)


def _pruned(ff):
    return ff.prune().representative_points


def _all(ff):
    from repro.injection.space import enumerate_points

    return enumerate_points(ff.profile())


def _deepest(n: int):
    def select(ff):
        return sorted(_all(ff), key=lambda p: (-p.invocation, p.rank, p.site))[:n]

    return select


def _every(n: int):
    return lambda ff: _all(ff)[::n]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    app: Callable[[], Any]
    select: Callable[[Any], list]
    tests_per_point: int
    snapshot: bool = True
    jobs: int = 1
    #: Consecutive campaign seeds run into one ``db_path`` (0 = no DB).
    sweep_seeds: int = 0
    steer: bool = False
    #: Optional layers the workload's campaign enters; the per-layer
    #: probes of a layer run only for the workloads that name it.
    layers: frozenset = field(default_factory=frozenset)

    @property
    def traced_from_outside(self) -> bool:
        """Serial fixed-size campaigns are driven unit by unit in the
        traced pass; a pool or a steering loop is one top-level span."""
        return self.jobs == 1 and not self.steer


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lu_default_serial",
            "What 'fastfit run lu' does: shallow LU class T sites, where snapshot "
            "fork+pipe per test dominates and the prefix is cheap (21 points x 20 tests).",
            _lu_t, _pruned, 20, layers=frozenset({"snapshot"}),
        ),
        Workload(
            "lu_scratch_serial",
            "Same campaign with snapshot off: simmpi scheduler and injection runner do "
            "all the work; snapshot, pool and store are bypassed and must not move it.",
            _lu_t, _pruned, 20, snapshot=False,
        ),
        Workload(
            "lu_default_jobs2",
            "Same campaign on 2 workers: SupervisedPool spawn, payload unpickle and "
            "per-unit pickle/pipe on top of snapshot; '--jobs N must win' is judged here.",
            _lu_t, _pruned, 20, jobs=2, layers=frozenset({"snapshot", "pool"}),
        ),
        Workload(
            "lu8_deep_default",
            "LU on 8 ranks, the 8 deepest points x 25 tests: ~100 ms prefixes, so "
            "snapshot park/capture/cache earns its keep; mirror image of lu_default_serial.",
            _lu8, _deepest(8), 25, layers=frozenset({"snapshot"}),
        ),
        Workload(
            "is_store_sweep",
            "IS class T, all 40 points x 8 tests, 3 consecutive seeds into one SQLite "
            "DB, snapshot off: cheap tests make store commits and per-test fixed costs visible.",
            _is_t, _all, 8, snapshot=False, sweep_seeds=3, layers=frozenset({"store"}),
        ),
        Workload(
            "lammps_adaptive",
            "mini-LAMMPS class T, every 4th point, FastFIT.steer to accuracy 0.65 (8 tests/"
            "point, budget 150): forest refits plus one-task serve_point fast-forwards per test.",
            _lammps_t, _every(4), 8, steer=True, layers=frozenset({"snapshot", "steer"}),
        ),
    )
}


@dataclass
class Inputs:
    """Everything set-up hands to the measured call."""

    workload: Workload
    ffs: list  # one FastFIT per campaign seed
    points: list
    db_path: str | None

    @property
    def ff(self):
        return self.ffs[0]

    @property
    def expected_tests(self) -> int | None:
        """Tests a complete run holds (``None``: decided by the steering loop)."""
        if self.workload.steer:
            return None
        return len(self.ffs) * len(self.points) * self.ff.tests_per_point


def setup(w: Workload, seed: int, smoke: bool, tmp_dir: str) -> Inputs:
    """App build, ``FastFIT.profile()``, point selection, DB create."""
    from repro import FastFIT
    from repro.obs.metrics import MetricsRegistry
    from repro.store.db import CampaignDB

    db_path = None
    if w.sweep_seeds:
        db_path = os.path.join(tmp_dir, "sweep.db")
        CampaignDB(db_path).open().close()
    app = w.app()
    registry = MetricsRegistry()
    ffs = [
        FastFIT(
            app,
            seed=seed + k,
            tests_per_point=SMOKE_TESTS if smoke else w.tests_per_point,
            param_policy=PARAM_POLICY,
            metrics=registry,
            jobs=w.jobs,
            db_path=db_path,
            snapshot=w.snapshot,
        )
        for k in range(max(1, w.sweep_seeds))
    ]
    for ff in ffs:
        ff.profile()
    points = w.select(ffs[0])
    if smoke:
        points = points[:SMOKE_POINTS]
    return Inputs(w, ffs, points, db_path)


# A result stream is a list of (campaign, point_index, test_index,
# TestResult) in that order; it is what the fingerprint hashes.


def _stream(k: int, points: list, by_point: dict) -> list:
    return [
        (k, i, t, test)
        for i, p in enumerate(points)
        if p in by_point
        for t, test in enumerate(by_point[p].tests)
    ]


def run(inputs: Inputs) -> tuple[list, dict]:
    """The measured call, through the facade.  Returns the result stream
    and the steering facts (empty for fixed-size campaigns)."""
    if inputs.workload.steer:
        r = inputs.ff.steer(
            accuracy_target=ACCURACY_TARGET, ci_width=CI_WIDTH, budget=STEER_BUDGET,
            points=inputs.points,
        )
        facts = {
            "rounds": len(r.rounds),
            "tests_saved": r.tests_saved,
            "accuracy_at_stop": r.final_accuracy,
            "stop_reason": r.stop_reason,
            "tested": r.tested,
        }
        return _stream(0, inputs.points, r.tested), facts
    stream = []
    for k, ff in enumerate(inputs.ffs):
        stream += _stream(k, inputs.points, ff.campaign(inputs.points).points)
    return stream, {}


def draw_task(seed: int, point, point_index: int, test_index: int):
    """One test's ``(spec, rng)`` under the campaign's RNG contract:
    ``SeedSequence(seed, spawn_key=(point_index, test_index))``."""
    import numpy as np
    from repro.injection.models import draw_spec

    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(point_index, test_index))
    )
    return draw_spec(point, rng, policy=PARAM_POLICY), rng


def campaign_units(inputs: Inputs) -> list:
    """The campaign's work units, in the layout the engine would pick:
    site-major whole-point units under snapshot, point-major slices
    without."""
    from repro.exec.sharding import make_units

    return make_units(
        len(inputs.points), inputs.ff.tests_per_point,
        points=inputs.points, layout="s1" if inputs.workload.snapshot else "p1",
    )


def run_traced(inputs: Inputs, rec) -> tuple[list, dict, list]:
    """The traced pass.  Serial fixed-size campaigns are driven from
    outside — ``make_units`` -> per test ``draw_spec`` -> ``run_one`` /
    ``serve_point`` -> store record — with a span per call; the pool and
    the steering loop get one span around the facade call.  Returns the
    stream, the steering facts and the executed ``(unit_id, tests,
    registry)`` triples."""
    w = inputs.workload
    if not w.traced_from_outside:
        with rec.span("fastfit.steer" if w.steer else "fastfit.campaign", jobs=w.jobs):
            stream, facts = run(inputs)
        return stream, facts, []

    from repro.injection.runner import InjectionRunner
    from repro.obs.metrics import MetricsRegistry
    from repro.snapshot import SnapshotEngine

    points = inputs.points
    stream, executed = [], []
    for k, ff in enumerate(inputs.ffs):
        with rec.span("campaign", seed=ff.seed):
            with rec.span("injection.runner_init"):
                runner = InjectionRunner(ff.app, ff.profile())
            engine = SnapshotEngine(runner, metrics=ff.metrics) if w.snapshot else None
            with rec.span("exec.make_units"):
                units = campaign_units(inputs)
            store = _TracedStore(inputs, ff, units, rec) if inputs.db_path else None
            for unit in units:
                point = points[unit.point_index]
                registry = MetricsRegistry()
                with rec.span("exec.unit", unit=unit.unit_id), registry.time("exec.unit_s"):
                    tasks = []
                    for t in range(unit.test_start, unit.test_stop):
                        with rec.span("injection.draw"):
                            tasks.append(draw_task(ff.seed, point, unit.point_index, t))
                    if engine is not None:
                        with rec.span("snapshot.serve_point", tests=len(tasks)):
                            tests = engine.serve_point(point, tasks)
                    else:
                        tests = []
                        for spec, rng in tasks:
                            with rec.span("injection.run_one"):
                                tests.append(runner.run_one(spec, rng))
                registry.counter("campaign.tests").inc(len(tests))
                for test in tests:
                    registry.counter(f"campaign.outcome.{test.outcome.name}").inc()
                if store is not None:
                    store.record(unit.unit_id, tests, registry)
                ff.metrics.merge(registry)
                executed.append((unit.unit_id, tests, registry))
                stream += [
                    (k, unit.point_index, unit.test_start + j, test)
                    for j, test in enumerate(tests)
                ]
            if store is not None:
                store.finish(stream, k)
    stream.sort(key=lambda row: row[:3])
    return stream, {}, executed


class _TracedStore:
    """The store calls ``ParallelCampaign`` makes for a ``db_path``
    campaign, made from the harness with a span around each."""

    def __init__(self, inputs: Inputs, ff, units: list, rec):
        from repro import __version__
        from repro.exec.checkpoint import campaign_digest
        from repro.exec.sharding import default_unit_tests
        from repro.obs.progress import ProgressTracker
        from repro.store import DBCheckpointStore

        self.rec, self.ff, self.units, self.points = rec, ff, units, inputs.points
        unit_tests = default_unit_tests(ff.tests_per_point)
        with rec.span("store.open"):
            digest = campaign_digest(
                ff.app, ff.seed, ff.tests_per_point, PARAM_POLICY, unit_tests, self.points
            )
            self.store = DBCheckpointStore(
                inputs.db_path,
                digest,
                campaign_info=dict(
                    app=ff.app.name, nranks=ff.app.nranks, seed=ff.seed,
                    tests_per_point=ff.tests_per_point, param_policy=PARAM_POLICY,
                    unit_tests=unit_tests, algorithms=None, code_version=__version__,
                    n_points=len(self.points), total_units=len(units),
                ),
            )
            self.store.load(resume=False)
        self.tracker = ProgressTracker(
            len(self.points) * ff.tests_per_point, len(units),
            sinks=[self.store.progress_sink()], metrics=ff.metrics,
        )

    def record(self, unit_id: str, tests: list, registry) -> None:
        with self.rec.span("store.record"):
            self.store.record(unit_id, tests, registry)
        with self.rec.span("store.progress"):
            self.tracker.unit_done(tests)

    def finish(self, stream: list, k: int) -> None:
        from collections import Counter

        with self.rec.span("store.finish"):
            self.tracker.finish()
            counts: dict[int, Counter] = {}
            for kk, i, _, test in stream:
                if kk == k:
                    counts.setdefault(i, Counter())[test.outcome.name] += 1
            self.store.record_point_tallies(
                [
                    (i, p.rank, p.collective, p.site, p.invocation, name, n)
                    for i, p in enumerate(self.points)
                    for name, n in sorted(counts.get(i, {}).items())
                ]
            )
            self.store.record_metrics("final", self.ff.metrics)
            self.store.write_manifest(total_units=len(self.units), complete=True, quarantined=[])
            self.store.close()


def stream_fingerprint(stream: list) -> str:
    """``repro.verify.replay.fingerprint`` over the per-test stream."""
    from repro.verify.replay import fingerprint

    return fingerprint([(k, i, t) + _signature(test) for k, i, t, test in stream])


def _signature(test) -> tuple:
    p = test.spec.point
    bit = None if test.record is None else test.record.bit
    return ((p.rank, p.collective, p.site, p.invocation), test.spec.param, bit,
            test.outcome.name, test.detail)


def spot_check(inputs: Inputs, stream: list, samples: int) -> list[str]:
    """Re-run an even sample of the stream through the scratch reference
    path (``InjectionRunner.run_one``) and compare test for test."""
    from repro.injection.runner import InjectionRunner

    if not stream or samples <= 0:
        return []
    runner = InjectionRunner(inputs.ff.app, inputs.ff.profile())
    step = max(1, len(stream) // samples)
    problems = []
    for k, i, t, test in stream[::step][:samples]:
        spec, rng = draw_task(inputs.ffs[k].seed, inputs.points[i], i, t)
        if _signature(runner.run_one(spec, rng)) != _signature(test):
            problems.append(f"campaign {k} point {i} test {t} differs from a scratch re-run")
    return problems
