"""Per-layer probes: calls into each layer's public functions, timed
from outside, on the workload's own inputs (app, profile, points, seed).

Each probe returns ``{metric: (value, unit)}``.  Loops stop at a sample
count or a time budget, whichever comes first, so a workload with
100 ms tests (LU on 8 ranks) costs the traced run no more than one with
5 ms tests.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from typing import Callable, Iterable

from . import workloads as wl

Metrics = dict[str, tuple[float, str]]


class Budget:
    """Sample count and seconds one probe loop may spend."""

    def __init__(self, smoke: bool):
        self.samples = 2 if smoke else 200
        self.seconds = 0.1 if smoke else 1.5

    def timed(self, fn: Callable, items: Iterable, samples: int | None = None) -> list[float]:
        """Seconds of ``fn(item)`` per item, within the budget."""
        limit = self.samples if samples is None else min(samples, self.samples)
        out: list[float] = []
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            fn(item)
            t1 = time.perf_counter()
            out.append(t1 - t0)
            if len(out) >= limit or t1 - start >= self.seconds:
                break
        return out


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _p50(xs: list[float]) -> float:
    return statistics.median(xs)


def _p90(xs: list[float]) -> float:
    ordered = sorted(xs)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def _clock(fn: Callable) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def first_tasks(inputs: wl.Inputs, n: int) -> list[tuple]:
    """``(point, point_index, test_index)`` of the workload's first ``n``
    tests, in the campaign's own order."""
    tpp = inputs.ff.tests_per_point
    out = []
    for i, point in enumerate(inputs.points):
        for t in range(tpp):
            out.append((point, i, t))
            if len(out) == n:
                return out
    return out


def profiling_and_pruning(inputs: wl.Inputs) -> Metrics:
    from repro.injection.space import enumerate_points
    from repro.profiling.profiler import profile_application
    from repro.pruning.context import select_context
    from repro.pruning.semantic import select_semantic

    app = inputs.ff.app
    profile_s = _clock(lambda: profile_application(app))
    profile = inputs.ff.profile()
    kept = []

    def select():
        semantic = select_semantic(profile)
        kept.append(select_context(profile, semantic.selected_points_list).selected_points)

    select_s = _clock(select)
    return {
        "profiling.profile_ms": (_ms(profile_s), "ms"),
        "pruning.select_ms": (_ms(select_s), "ms"),
        "pruning.points_total": (len(enumerate_points(profile)), "count"),
        "pruning.points_kept": (kept[0], "count"),
    }


def simmpi(inputs: wl.Inputs, budget: Budget) -> Metrics:
    from repro.simmpi import run_app

    app = inputs.ff.app
    runs = budget.timed(lambda _: run_app(app.main, app.nranks), range(30))
    steps = inputs.ff.profile().golden_steps
    return {
        "simmpi.golden_run_ms_p50": (_ms(_p50(runs)), "ms"),
        "simmpi.golden_run_ms_p90": (_ms(_p90(runs)), "ms"),
        "simmpi.steps_per_s": (steps / _p50(runs), "1/s"),
        "simmpi.golden_steps": (steps, "count"),
    }


def injection(inputs: wl.Inputs, budget: Budget, golden_ms: float) -> Metrics:
    """Draw and scratch-run the workload's first tests."""
    from repro.injection.runner import InjectionRunner

    seed = inputs.ff.seed
    coords = first_tasks(inputs, budget.samples)
    draws = budget.timed(lambda c: wl.draw_task(seed, c[0], c[1], c[2]), coords)
    runner = InjectionRunner(inputs.ff.app, inputs.ff.profile())
    tasks = [wl.draw_task(seed, *c) for c in coords]
    runs = budget.timed(lambda task: runner.run_one(*task), tasks)
    return {
        "injection.draw_us": (_p50(draws) * 1e6, "us"),
        "injection.run_one_ms_p50": (_ms(_p50(runs)), "ms"),
        "injection.run_one_ms_p90": (_ms(_p90(runs)), "ms"),
        "injection.overhead_x": (_ms(statistics.fmean(runs)) / golden_ms, "x"),
    }


def snapshot(inputs: wl.Inputs, budget: Budget) -> Metrics:
    """Cold park, warm serving of a whole point's batch (a warm call still
    fast-forwards once, so the batch size is the workload's own), warm
    one-task serving, and scratch runs of the batch's first tasks — at
    three points spread over the workload's list, because per-test cost
    differs several-fold by point."""
    from repro.injection.runner import InjectionRunner
    from repro.snapshot import SnapshotCache, SnapshotEngine

    seed, points, tpp = inputs.ff.seed, inputs.points, inputs.ff.tests_per_point
    few = min(tpp, 6)
    runner = InjectionRunner(inputs.ff.app, inputs.ff.profile())

    def tasks_at(i: int, count: int) -> list:
        return [wl.draw_task(seed, points[i], i, t) for t in range(count)]

    def cold(i: int) -> None:
        engine = SnapshotEngine(runner, cache=SnapshotCache())
        engine.serve_point(points[i], tasks_at(i, 1))

    colds = budget.timed(cold, range(len(points)), samples=8)

    engine = SnapshotEngine(runner)
    picks = sorted({0, len(points) // 2, len(points) - 1})
    batch_s = scratch_s = 0.0
    singles: list[float] = []
    for i in picks:
        engine.serve_point(points[i], tasks_at(i, 1))  # park and capture once
        batch_s += _clock(lambda: engine.serve_point(points[i], tasks_at(i, tpp)))
        scratch_s += _clock(lambda: [runner.run_one(*task) for task in tasks_at(i, few)])
        singles += [
            _clock(lambda: engine.serve_point(points[i], [task])) for task in tasks_at(i, few)
        ]
    return {
        "snapshot.cold_point_ms": (_ms(_p50(colds)), "ms"),
        "snapshot.serve_ms_per_test": (_ms(batch_s) / (tpp * len(picks)), "ms"),
        "snapshot.single_task_ms": (_ms(_p50(singles)), "ms"),
        "snapshot.serve_over_scratch": ((batch_s / tpp) / (scratch_s / few), "x"),
    }


def execution(inputs: wl.Inputs, budget: Budget, pool: bool) -> Metrics:
    """``WorkerState.execute`` per unit in this process; with ``pool``,
    also one supervised worker: start-up over a one-test unit, then the
    same units again through its pipe."""
    from repro.exec.sharding import WorkUnit
    from repro.exec.supervisor import SupervisedPool, SupervisorConfig, WorkerState

    ff = inputs.ff
    args = (ff.app, ff.profile(), wl.PARAM_POLICY, ff.seed, None, inputs.workload.snapshot)
    tasks = [(u, inputs.points[u.point_index]) for u in wl.campaign_units(inputs)[:6]]
    state = WorkerState(*args)
    results = []
    times = budget.timed(lambda task: results.append(state.execute(*task)), tasks)
    tests = results[0][1]
    out = {
        "exec.unit_inproc_ms": (_ms(_p50(times)), "ms"),
        "exec.result_bytes_per_test": (
            len(pickle.dumps(tests, protocol=pickle.HIGHEST_PROTOCOL)) / len(tests), "bytes"),
    }
    if not pool:
        return out
    payload = pickle.dumps(args + ("bitflip", None, None), protocol=pickle.HIGHEST_PROTOCOL)

    def pool_run(units: list) -> float:
        workers = SupervisedPool(payload, jobs=1, config=SupervisorConfig())
        return _clock(lambda: list(workers.run(units)))

    startup_s = pool_run([(WorkUnit(0, 0, 1), inputs.points[0])])
    pool_s = pool_run(tasks[: len(times)])
    out.update({
        "exec.pool_startup_ms": (_ms(startup_s), "ms"),
        "exec.pool_overhead_ms_per_unit": (_ms(pool_s - sum(times)) / len(times), "ms"),
        "exec.payload_bytes": (len(payload), "bytes"),
    })
    return out


def store(inputs: wl.Inputs, executed: list, sweep_wall_s: float, tmp_dir: str) -> Metrics:
    """Write side on the sweep's own units into a fresh DB; read side and
    resume on the DB the sweep itself wrote; and the sweep again without
    a ``db_path`` for the store's share of its wall."""
    from repro import FastFIT
    from repro.report import build_report
    from repro.store.db import CampaignDB

    path = os.path.join(tmp_dir, "probe.db")
    with CampaignDB(path) as db:
        create_s = _clock(lambda: db.create_campaign("perf-probe", fresh=True))
        cid = db.campaign_id("perf-probe")
        records = [
            _clock(lambda u=u: db.record_unit(cid, u[0], u[1], u[2])) for u in executed
        ]
        load_s = _clock(lambda: db.load_units(cid))
    n_tests = sum(len(u[1]) for u in executed)
    bytes_per_test = os.path.getsize(inputs.db_path) / n_tests
    report_s = _clock(lambda: build_report(inputs.db_path, os.path.join(tmp_dir, "report")))

    def facade(seed: int, **kwargs):
        return FastFIT(
            inputs.ff.app, seed=seed, tests_per_point=inputs.ff.tests_per_point,
            param_policy=wl.PARAM_POLICY, snapshot=False, **kwargs,
        )

    resumed = facade(inputs.ff.seed, db_path=inputs.db_path, resume=True)
    resume_s = _clock(lambda: resumed.campaign(inputs.points))
    if resumed.metrics.counter("exec.units").value:
        raise RuntimeError("resume over the finished sweep executed units again")

    def without_db():
        for ff in inputs.ffs:
            facade(ff.seed).campaign(inputs.points)

    bare_s = _clock(without_db)
    return {
        "store.create_campaign_ms": (_ms(create_s), "ms"),
        "store.record_unit_ms_p50": (_ms(_p50(records)), "ms"),
        "store.record_unit_ms_p90": (_ms(_p90(records)), "ms"),
        "store.share": ((sweep_wall_s - bare_s) / sweep_wall_s, "frac"),
        "store.load_units_ms": (_ms(load_s), "ms"),
        "store.resume_ms": (_ms(resume_s), "ms"),
        "store.bytes_per_test": (bytes_per_test, "bytes"),
        "report.build_ms": (_ms(report_s), "ms"),
    }


def ml_and_steer(inputs: wl.Inputs, tested: dict, budget: Budget) -> Metrics:
    """Feature extraction, one forest fit and predict, batch selection
    and the stopping rule, on the steering run's own pool and results."""
    import numpy as np
    from repro.ml.features import features_matrix
    from repro.ml.random_forest import RandomForestClassifier
    from repro.pruning.mldriven import level_labeler
    from repro.steer import SequentialStopper, select_batch, uncertainty_scores

    profile, points = inputs.ff.profile(), inputs.points
    features_s = _clock(lambda: features_matrix(profile, points))
    X_all = features_matrix(profile, points)
    labeler, _ = level_labeler()
    measured = sorted(tested)
    X = features_matrix(profile, measured)
    y = np.array([labeler(tested[p]) for p in measured], dtype=np.int64)
    forest = RandomForestClassifier(n_estimators=24, seed=inputs.ff.seed)
    fit_s = _clock(lambda: forest.fit(X, y))
    predict_s = _clock(lambda: forest.predict_proba(X_all))
    candidates = list(range(len(points)))
    batch = max(4, len(points) // 8)
    select_s = _clock(
        lambda: select_batch(candidates, uncertainty_scores(forest, X_all), batch)
    )
    stopper = SequentialStopper(ci_width=wl.CI_WIDTH)
    prefixes = [pr.tests[:n] for pr in tested.values() for n in range(1, len(pr.tests) + 1)]
    stops = budget.timed(stopper.should_stop, prefixes)
    return {
        "ml.features_ms": (_ms(features_s), "ms"),
        "ml.forest_fit_ms": (_ms(fit_s), "ms"),
        "ml.forest_predict_ms": (_ms(predict_s), "ms"),
        "steer.select_batch_ms": (_ms(select_s), "ms"),
        "steer.stopper_us": (_p50(stops) * 1e6, "us"),
    }


def obs(inputs: wl.Inputs, budget: Budget) -> Metrics:
    """What carrying a ``MetricsRegistry`` costs a scratch campaign, and
    what a ``Tracer`` costs ``run_one``.  Off and on alternate point by
    point and test by test, in alternating order, so a slow moment and
    the warm second run land on both sides."""
    from repro.injection.campaign import Campaign
    from repro.injection.runner import InjectionRunner
    from repro.obs.events import Tracer
    from repro.obs.metrics import MetricsRegistry

    ff = inputs.ff
    tests = min(ff.tests_per_point, 4)

    def campaign(metrics):
        return Campaign(
            ff.app, ff.profile(), tests_per_point=tests, param_policy=wl.PARAM_POLICY,
            seed=ff.seed, snapshot=False, metrics=metrics,
        )

    plain, counted = campaign(None), campaign(MetricsRegistry())
    off_m, on_m = [], []

    def both_campaigns(i: int) -> None:
        sides = ((plain, off_m), (counted, on_m))
        for c, times in sides[:: 1 if i % 2 else -1]:  # the second run is the warmer one
            times.append(_clock(lambda: c.run([inputs.points[i]], point_indices=[i])))

    budget.timed(both_campaigns, range(len(inputs.points)))

    runner = InjectionRunner(ff.app, ff.profile())
    off_t, on_t = [], []

    def both_runs(coords: tuple) -> None:
        sides = ((None, off_t), (Tracer(), on_t))
        for tracer, times in sides[:: 1 if coords[2] % 2 else -1]:
            spec, rng = wl.draw_task(ff.seed, *coords)
            times.append(_clock(lambda: runner.run_one(spec, rng, tracer=tracer)))

    budget.timed(both_runs, first_tasks(inputs, budget.samples))
    return {
        "obs.metrics_on_x": (sum(on_m) / sum(off_m), "x"),
        "obs.tracer_on_x": (sum(on_t) / sum(off_t), "x"),
    }
