"""The campaign engine: one unit stream, one completion path.

Execution model
---------------
The campaign is cut into :class:`~repro.exec.sharding.WorkUnit` slices
(`(point_index, test_range)`) by the campaign's unit plan
(:meth:`Campaign.plan <repro.injection.campaign.Campaign.plan>`) and
every unit goes through one executor,
:meth:`WorkerState.execute <repro.exec.supervisor.WorkerState.execute>`:
in this process when ``jobs == 1`` (the campaign's own, long-lived
``WorkerState``), in pool workers otherwise.  Each worker process is
initialised exactly once with a pickled ``(app, profile, config)``
payload — the expensive
:class:`~repro.profiling.profiler.ApplicationProfile` is never
re-profiled — and then executes units streamed to it.  Every test's RNG
derives only from its ``(point_index, test_index)`` coordinates
(:func:`repro.injection.models.draw_task`), so the assembled result is
**bit-identical** regardless of executor, worker count, unit size, or
completion order.  Batch drivers (ML-driven, adaptive steering) are
schedulers over this engine: they call ``Campaign.run`` once per batch
with the batch's global ``point_indices`` and one shared ``digest``.

Execution is *supervised* (:class:`~repro.exec.supervisor.SupervisedPool`):
a worker that dies or wedges mid-unit is respawned and its unit retried
with backoff; a unit that keeps taking workers down is quarantined —
its tests are recorded as synthetic ``TOOL_ERROR`` results (excluded
from every paper-facing outcome rate) and the campaign finishes instead
of aborting.  Retried units reproduce exactly what an undisturbed run
would have produced, so supervision never perturbs determinism for
successfully-executed units.

The executor records each unit into a private :class:`MetricsRegistry`
snapshot that the engine merges (`campaign.tests`, `campaign.outcome.*`,
`exec.unit_s`); point-level metrics (`campaign.points`,
`campaign.point_error_rate`) are recorded at assembly time, so the
merged registry is the same for every ``jobs``.

A store is opened only when one is configured (``db_path``).  Every
successfully completed unit is committed atomically through the
SQLite-backed :class:`~repro.store.DBCheckpointStore` as queryable
per-test rows, alongside progress telemetry; every stored view of the
campaign is computed from those rows.  A resumed unit is rebuilt from
them, its specs redrawn from their coordinates (:func:`task_spec`).
Quarantined units are deliberately *not* persisted: a later
``resume=True`` run retries them from scratch — self-healing across
restarts when the fault was environmental.  ``KeyboardInterrupt`` tears
the pool down, records the campaign row as incomplete, and re-raises,
so an interrupted campaign is always resumable.

Progress telemetry: when any :class:`~repro.obs.progress.ProgressSink`
is attached (explicitly, or implicitly by the campaign database), the
completion path feeds a :class:`~repro.obs.progress.ProgressTracker`
that emits periodic snapshots — tests/sec, outcome histogram, worker
health, ETA.  Whatever a sink raises, an interrupted or failed campaign
still marks its row resumable and closes the store.
"""

from __future__ import annotations

import pickle
from typing import Sequence

from .. import __version__
from ..injection.campaign import Campaign, CampaignResult, PointResult
from ..injection.models import draw_task
from ..injection.outcome import Outcome
from ..injection.runner import TestResult
from ..injection.space import FaultSpec, InjectionPoint
from ..obs.metrics import MetricsRegistry
from ..obs.progress import ProgressTracker
from .sharding import WorkUnit, make_units, units_of_point
from .supervisor import SupervisedPool, SupervisorConfig


def task_spec(campaign: Campaign, point: InjectionPoint, point_index: int, test_index: int) -> FaultSpec:
    """The spec the executor draws for one test, a pure function of its
    coordinates and the campaign options: stored and abandoned tests
    get theirs back without carrying one."""
    cfg = campaign.config
    return draw_task(
        point, cfg.seed, point_index, test_index,
        policy=cfg.param_policy, model=cfg.fault_model, scenario=cfg.scenario,
    )[0]


def _synthesize_quarantined(
    campaign: Campaign, unit: WorkUnit, point: InjectionPoint, reason: str
) -> list[TestResult]:
    """Synthetic ``TOOL_ERROR`` results for a given-up unit: the specs
    record *which* injections were abandoned, only the verdicts are
    synthetic."""
    detail = f"unit {unit.unit_id} quarantined: {reason}"
    return [
        TestResult(task_spec(campaign, point, unit.point_index, t), Outcome.TOOL_ERROR, None, detail)
        for t in range(unit.test_start, unit.test_stop)
    ]


def run_campaign(
    campaign: Campaign,
    points: Sequence[InjectionPoint],
    point_indices: Sequence[int] | None = None,
    digest: str | None = None,
) -> CampaignResult:
    """Execute ``campaign`` over ``points`` — the body of
    :meth:`Campaign.run <repro.injection.campaign.Campaign.run>`."""
    metrics, cfg = campaign.metrics, campaign.config
    points = list(points)
    # Global point indices: drive the SeedSequence spawn keys and the
    # unit ids, so a batch driver running a subset gets exactly the
    # units a full campaign would have produced at those points.
    if point_indices is None:
        point_indices = list(range(len(points)))
    else:
        point_indices = [int(i) for i in point_indices]
        if len(point_indices) != len(points):
            raise ValueError(
                f"{len(point_indices)} point_indices for {len(points)} points"
            )
        if len(set(point_indices)) != len(point_indices):
            raise ValueError("point_indices must be unique")
    point_of = dict(zip(point_indices, points))
    layout, unit_tests = campaign.plan()
    units = [
        WorkUnit(point_indices[u.point_index], u.test_start, u.test_stop)
        for u in make_units(
            len(points), cfg.tests_per_point, unit_tests,
            points=points, layout=layout,
        )
    ]
    total_tests = len(points) * cfg.tests_per_point
    campaign.quarantined = []

    known = {u.unit_id for u in units}
    store = None
    results: dict[str, list[TestResult]] = {}
    if cfg.db_path is not None:
        # Lazy import: repro.store depends on repro.exec.sharding.
        from ..store import DBCheckpointStore
        from ..store.db import result_from_row

        store = DBCheckpointStore(
            cfg.db_path,
            digest if digest is not None else campaign.digest(points),
            campaign_info=dict(
                app=campaign.app.name,
                nranks=campaign.app.nranks,
                seed=cfg.seed,
                tests_per_point=cfg.tests_per_point,
                param_policy=cfg.param_policy,
                unit_tests=unit_tests,
                algorithms=campaign.algorithms,
                code_version=__version__,
                n_points=len(points),
                total_units=len(units),
            ),
        )
        for unit_id, (rows, registry) in store.load(resume=cfg.resume).items():
            # A batch driver's row also holds other batches' units: only
            # this call's units are resumed (and their metrics merged).
            if unit_id not in known:
                continue
            point = point_of[WorkUnit.from_unit_id(unit_id).point_index]
            results[unit_id] = [
                result_from_row(row, task_spec(campaign, point, row["point_index"], row["test_index"]))
                for row in rows
            ]
            if metrics is not None:
                if registry is not None:
                    metrics.merge(registry)
                metrics.counter("exec.units_resumed").inc()

    # Handed out in execution order (stable: a point's slices stay in
    # test order), so each executor's one fault-free run walks forward
    # from park to park — any subsequence of the list is monotone too.
    reached = campaign.profile.comm.execution_key()
    pending = sorted(
        ((u, point_of[u.point_index]) for u in units if u.unit_id not in results),
        key=lambda task: reached(task[1]),
    )
    sinks = list(campaign.progress_sinks)
    if store is not None:
        sinks.append(store.progress_sink())
    tracker: ProgressTracker | None = None
    if sinks:
        tracker = ProgressTracker(
            total_tests,
            len(units),
            sinks=sinks,
            every_units=cfg.progress_every,
            workers=cfg.jobs,
            metrics=metrics,
        )
        for tests in results.values():
            tracker.seed(tests)

    def complete(unit_id: str, tests: list[TestResult], registry: MetricsRegistry) -> None:
        results[unit_id] = tests
        if store is not None:
            store.record(unit_id, tests, registry)
        if metrics is not None:
            metrics.merge(registry)
            # Counted here, not in the executor's snapshot, so replaying a
            # checkpointed unit never inflates the executed-unit count.
            metrics.counter("exec.units").inc()
            if cfg.jobs == 1:
                # In-process unit time under its old name: frozen
                # perf/child.py derives ``steer.driver_self_s`` from it.
                metrics.timer("campaign.point_s").record(registry.timer("exec.unit_s").total)
        if tracker is not None:
            tracker.unit_done(tests)

    def give_up(unit: WorkUnit, point: InjectionPoint, reason: str) -> None:
        """Record a quarantined unit: synthetic results, no checkpoint.

        Skipping the checkpoint is deliberate — a ``resume=True``
        restart retries the unit from scratch, which heals campaigns
        whose failure cause was environmental.
        """
        tests = _synthesize_quarantined(campaign, unit, point, reason)
        results[unit.unit_id] = tests
        campaign.quarantined.append(unit.unit_id)
        if store is not None:
            store.record_quarantine(unit.unit_id, reason)
        if metrics is not None:
            metrics.counter("campaign.tests").inc(len(tests))
            metrics.counter(
                f"campaign.outcome.{Outcome.TOOL_ERROR.name}"
            ).inc(len(tests))
        if tracker is not None:
            tracker.unit_quarantined(tests)

    # One close rule for every exit, a raising sink's included: the final
    # telemetry snapshot, then the campaign row (resumable unless the run
    # and its assembly finished) and the store's close.
    finished = False
    try:
        if pending and cfg.jobs == 1:
            campaign.worker_state().run(pending, complete)
        elif pending:
            pool = SupervisedPool(
                pickle.dumps(campaign.worker_args(), protocol=pickle.HIGHEST_PROTOCOL),
                jobs=min(cfg.jobs, len(pending)),
                config=SupervisorConfig(
                    unit_timeout=cfg.unit_timeout,
                    max_retries=cfg.max_retries,
                    quarantine=cfg.quarantine,
                ),
                metrics=metrics,
                tracer=campaign.tracer,
            )
            events = pool.run(pending)
            try:
                for event in events:
                    if event[0] == "done":
                        complete(*event[2])
                    else:  # "quarantined"
                        _, att, reason = event
                        give_up(att.unit, att.point, reason)
            finally:
                # Tears the workers down on *any* exit from the
                # consuming loop, KeyboardInterrupt included.
                events.close()

        # -- deterministic assembly: point order, then test order ------
        result = CampaignResult(campaign.app.name, cfg.tests_per_point, cfg.param_policy)
        grouped = units_of_point(units)
        for g, point in zip(point_indices, points):
            pr = PointResult(
                point, [test for unit in grouped.get(g, ()) for test in results[unit.unit_id]]
            )
            result.points[point] = pr
            if metrics is not None:
                metrics.counter("campaign.points").inc()
                metrics.histogram("campaign.point_error_rate").observe(pr.error_rate)
        finished = True
    finally:
        try:
            if tracker is not None:
                tracker.finish()
        finally:
            if store is not None and not store.closed:
                if finished and metrics is not None:
                    store.record_metrics("final", metrics)
                store.write_manifest(
                    total_units=len(units),
                    # Every unit was resumed, executed, or quarantined.
                    complete=finished and not campaign.quarantined,
                    quarantined=campaign.quarantined,
                )
                store.close()
    return result
