"""Command-line interface for FastFIT.

Usage (``python -m repro`` or the ``fastfit`` entry point)::

    fastfit apps
    fastfit profile  --app lammps --problem-class T
    fastfit prune    --app lu     --problem-class S
    fastfit campaign --app mg     --tests 20 --policy buffer
    fastfit campaign --app is     --tests 20 --static-prune
    fastfit run      --db campaigns.sqlite --tests 20
    fastfit run      --adaptive --ci-width 0.25 --budget 2000 --jobs 4
    fastfit analyze  --app lu     --tests 10 --sample 0.2
    fastfit analyze  --lint-only
    fastfit verify   --mutant wrong_root
    fastfit learn    --app lammps --threshold 0.65
    fastfit study    --app lammps --threshold 0.65
    fastfit trace    --app lu     --find-outcome INF_LOOP
    fastfit stats    --app is     --tests 5 --max-points 8
    fastfit stats    --db campaigns.sqlite
    fastfit report   --db campaigns.sqlite --out report/
    fastfit migrate  --checkpoint-dir old-ck/ --db old-ck/campaign.db

Every subcommand prints ASCII tables in the style of the paper's
evaluation section; ``trace --json`` and ``stats --json`` emit
machine-readable JSONL/JSON instead.  All subcommands accept ``-v`` /
``-vv`` (info / debug diagnostics on stderr) and ``-q`` (errors only).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import Field, fields
from typing import Sequence

from .analysis import (
    PAPER_3_LEVELS,
    level_distribution,
    metrics_to_json,
    point_to_dict,
    render_bars,
    render_grouped_bars,
    render_table,
)
from .analyze import StaticPruneError
from .apps import APPLICATIONS, make_app
from .fastfit import FastFIT
from .store import CampaignStoreError, MigrationError
from .injection.campaign import Campaign, CampaignConfig
from .injection.config import ConfigError
from .injection.models import task_rng
from .injection.outcome import OUTCOME_ORDER, Outcome
from .injection.scenario import ScenarioError, load_scenario
from .injection.space import FaultSpec
from .injection.targets import all_targets, pick_target
from .obs import (
    DEFAULT_CAPACITY,
    Tracer,
    build_wait_for_graph,
    format_event,
    setup_logging,
)


#: Each campaign option's ``fastfit`` flag, for config error messages.
_FLAGS = {f.name: f.metadata["flag"] for f in fields(CampaignConfig)}


def _add_option(p: argparse.ArgumentParser, f: Field) -> None:
    """Declare one :class:`CampaignConfig` field's flag from its metadata,
    with the field's default and name (as ``dest``)."""
    kwargs = dict(f.metadata["argparse"])
    if isinstance(f.default, bool):
        if not f.default:
            kwargs["action"] = "store_true"
        elif f.metadata["flag"].startswith("--no-"):
            kwargs["action"] = "store_false"
        else:
            kwargs["action"] = argparse.BooleanOptionalAction
    p.add_argument(
        f.metadata["flag"], dest=f.name, default=f.default, help=f.metadata["help"], **kwargs
    )


def _add_app_args(
    p: argparse.ArgumentParser, required: bool = True, default: str | None = None
) -> None:
    p.add_argument(
        "--app", required=required, default=default, choices=sorted(APPLICATIONS)
    )
    p.add_argument("--problem-class", default="T", choices=("T", "S", "A"))
    _add_option(p, CampaignConfig.__dataclass_fields__["seed"])


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    # Every CampaignConfig field is a flag; --seed is an app argument
    # (every subcommand replays from a seed), declared with --app.
    for f in fields(CampaignConfig):
        if f.name != "seed":
            _add_option(p, f)
    p.add_argument("--max-points", type=int, default=None, help="cap representative points")
    p.add_argument(
        "--progress-jsonl", default=None, metavar="PATH",
        help="append live progress snapshots (tests/sec, outcome histogram, "
        "worker health, ETA) as JSON lines to this file",
    )
    p.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="points per batch for the ML-driven and adaptive loops "
        "(default: len(points) // 8, at least 4)",
    )
    p.add_argument(
        "--adaptive", action="store_true",
        help="adaptive steering: inject in uncertainty-sampled batches "
        "with per-point sequential stopping (campaign/run only; "
        "incompatible with --scenario and --static-prune)",
    )
    p.add_argument(
        "--ci-width", type=float, default=None, metavar="W",
        help="with --adaptive: stop a point's tests once the Wilson "
        "interval over its error rate is narrower than W "
        "(default 0.25; must be in (0, 1])",
    )
    p.add_argument(
        "--budget", type=int, default=None, metavar="TESTS",
        help="with --adaptive: hard cap on total injected tests "
        "(never exceeded; default unlimited)",
    )
    p.add_argument(
        "--accuracy-target", type=float, default=None, metavar="ACC",
        help="with --adaptive: stop steering once the model predicts a "
        "fresh uncertainty-sampled batch this accurately "
        "(default 0.65; must be in (0, 1])",
    )


def _config(args: argparse.Namespace) -> CampaignConfig:
    """The campaign config from every option flag the subcommand
    declares (``dest`` = field name); raises :class:`ConfigError`."""
    given = vars(args)
    values = {f.name: given[f.name] for f in fields(CampaignConfig) if f.name in given}
    if values.get("scenario") is not None:
        # ScenarioError (malformed file, bad task list) propagates to
        # main()'s operator-error handler: one line, exit 2.
        values["scenario"] = load_scenario(values["scenario"])
    return CampaignConfig(**values)


def _tool(args: argparse.Namespace) -> FastFIT:
    config = _config(args)
    sinks = []
    if vars(args).get("progress_jsonl"):
        from .obs.progress import JsonlProgressSink

        sinks.append(JsonlProgressSink(args.progress_jsonl))
    return FastFIT(make_app(args.app, args.problem_class), config, progress_sinks=sinks)


def cmd_apps(_args: argparse.Namespace) -> int:
    rows = []
    for name, cls in sorted(APPLICATIONS.items()):
        for klass in ("T", "S", "A"):
            params = cls.class_params(klass)
            nranks = params.pop("nranks")
            rows.append([name, klass, nranks, ", ".join(f"{k}={v}" for k, v in sorted(params.items()))])
    print(render_table(["app", "class", "ranks", "parameters"], rows, title="registered workloads"))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    ff = _tool(args)
    profile = ff.profile()
    print(
        f"{profile.app_name} ({args.problem_class}): {profile.nranks} ranks, "
        f"{profile.total_injection_points()} injection points, "
        f"{profile.golden_steps} golden events"
    )
    mix = profile.comm.collective_mix()
    total = sum(mix.values()) or 1
    print()
    print(render_bars({k: v / total for k, v in sorted(mix.items())}, title="collective mix"))
    rows = [
        [s.site_key[0], s.site_key[1], s.n_invocations, s.n_diff_stacks, f"{s.avg_stack_depth:.1f}"]
        for s in profile.sites_of_rank(0)
    ]
    print()
    print(render_table(["collective", "site", "nInv", "nDiffStack", "StackDep"], rows, title="rank 0 call sites"))
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    ff = _tool(args)
    pr = ff.prune()
    print(
        render_table(
            ["total points", "MPI (semantic)", "App (context)", "representatives"],
            [
                [
                    pr.total_points,
                    f"{pr.semantic_reduction:.2%}",
                    f"{pr.context_reduction:.2%}",
                    len(pr.representative_points),
                ]
            ],
            title=f"pruning report for {args.app}/{args.problem_class}",
        )
    )
    return 0


def _points(args: argparse.Namespace, ff: FastFIT) -> list:
    """The pruned representatives, capped at ``--max-points``."""
    points = ff.prune().representative_points
    return points if args.max_points is None else points[: args.max_points]


def _print_rounds(res, n_points: int, title: str) -> None:
    """Print a learning-loop run: its per-round trajectory and the
    accuracy-vs-budget summary."""
    rows = []
    spent = 0
    for r in res.rounds:
        spent += r.tests_run
        rows.append([
            r.round_no,
            len(r.point_indices),
            r.tests_run,
            r.tests_saved,
            spent,
            "-" if r.accuracy is None else f"{r.accuracy:.0%}",
            "-" if r.mean_uncertainty is None else f"{r.mean_uncertainty:.3f}",
        ])
    print(
        render_table(
            ["round", "points", "tests", "saved", "budget", "accuracy", "uncertainty"],
            rows,
            title=f"{title} over {n_points} candidate points",
        )
    )
    print(
        f"\nstopped: {res.stop_reason} "
        f"(target {res.accuracy_target:.0%} "
        f"{'reached' if res.reached_target else 'NOT reached'})"
    )
    print(
        f"tested {len(res.tested)} points ({res.tests_run} tests, "
        f"{res.tests_saved} saved by sequential stopping), "
        f"predicted {len(res.predicted)} ({res.test_reduction:.1%} of "
        f"points never injected)"
    )


def _cmd_adaptive(args: argparse.Namespace, ff: FastFIT) -> int:
    """The ``--adaptive`` branch of campaign/run: steer, then report the
    per-round trajectory and the accuracy-vs-budget summary."""
    points = _points(args, ff)
    res = ff.steer(
        accuracy_target=(
            0.65 if args.accuracy_target is None else args.accuracy_target
        ),
        ci_width=0.25 if args.ci_width is None else args.ci_width,
        budget=args.budget,
        batch_size=args.batch_size,
        points=points,
    )
    _print_rounds(res, len(points), "adaptive steering")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    ff = _tool(args)
    if args.adaptive:
        return _cmd_adaptive(args, ff)
    if ff.config.scenario is not None:
        # A scenario brings its own timeline; pruning the parameter
        # fault space would be meaningless.  FastFIT.campaign() resolves
        # the scenario's anchor point when given no point list.
        campaign = ff.campaign()
        points = list(campaign.points)
    else:
        points = _points(args, ff)
        campaign = ff.campaign(points=points)
    print(
        render_bars(
            {o.value: f for o, f in campaign.outcome_fractions().items()},
            title=f"response types ({len(points)} points × {ff.config.tests_per_point} "
            f"tests, policy={ff.config.param_policy})",
        )
    )
    if ff.config.static_prune:
        total = len(points) * ff.config.tests_per_point
        skipped = campaign.predicted_count()
        frac = skipped / total if total else 0.0
        print(
            f"\nstatic prune: {skipped}/{total} tests "
            f"({frac:.1%}) statically proven, dynamic run skipped"
        )
    print()
    groups = {
        coll: level_distribution(sub.error_rates(), PAPER_3_LEVELS)
        for coll, sub in sorted(campaign.by_collective().items())
    }
    print(render_grouped_bars(groups, title="error-rate levels per collective"))
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    ff = _tool(args)
    points = _points(args, ff)
    res = ff.learn(threshold=args.threshold, batch_size=args.batch_size, points=points)
    _print_rounds(res, len(points), "ML-driven learning")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one injection test with full tracing and print/export it."""
    ff = _tool(args)
    points = ff.prune().representative_points
    if not points:
        print("no injection points for this workload", file=sys.stderr)
        return 1
    if not 0 <= args.point < len(points):
        print(
            f"--point {args.point} out of range (0..{len(points) - 1})",
            file=sys.stderr,
        )
        return 2
    point = points[args.point]
    if args.param is not None:
        valid = all_targets(point.collective)
        if args.param not in valid:
            print(
                f"--param {args.param!r} is not a parameter of "
                f"{point.collective} (one of: {', '.join(valid)})",
                file=sys.stderr,
            )
            return 2
    camp = Campaign(
        ff.app,
        ff.profile(),
        tests_per_point=1,
        param_policy=args.policy,
        seed=args.seed,
    )
    runner = camp.runner

    def spec_for(test_index: int):
        # Rebuilding the rng from (point, test) indices replays the exact
        # parameter pick and bit choice of any test of the campaign.
        rng = task_rng(args.seed, args.point, test_index)
        param = args.param or pick_target(rng, point.collective, args.policy)
        return FaultSpec(point, param, args.bit), rng

    test_index = args.test
    if args.find_outcome is not None:
        want = args.find_outcome.upper()
        if want not in {o.name for o in OUTCOME_ORDER}:
            print(f"unknown outcome {args.find_outcome!r}", file=sys.stderr)
            return 2
        found = None
        for t in range(args.max_search):
            spec, rng = spec_for(t)
            if runner.run_one(spec, rng).outcome.name == want:
                found = t
                break
        if found is None:
            print(
                f"no {want} response within {args.max_search} tests at point "
                f"{args.point}; try another --point or raise --max-search",
                file=sys.stderr,
            )
            return 1
        test_index = found

    tracer = Tracer(capacity=args.capacity)
    spec, rng = spec_for(test_index)
    result = runner.run_one(spec, rng, tracer=tracer)
    graph = None
    if result.outcome is Outcome.INF_LOOP and runner.last_exception is not None:
        graph = build_wait_for_graph(runner.last_exception)

    if args.json:
        print(
            json.dumps(
                {
                    "type": "meta",
                    "app": args.app,
                    "problem_class": args.problem_class,
                    "seed": args.seed,
                    "test_index": test_index,
                    "point": point_to_dict(point),
                    "param": spec.param,
                    "bit": spec.bit,
                },
                sort_keys=True,
            )
        )
        for e in tracer:
            print(json.dumps({"type": "event", **e.to_dict()}, sort_keys=True, default=str))
        print(
            json.dumps(
                {
                    "type": "result",
                    "outcome": result.outcome.value,
                    "detail": result.detail,
                    "injected": result.injected,
                    "events_emitted": tracer.emitted,
                    "events_dropped": tracer.dropped,
                    "wait_for": graph.to_dict() if graph is not None else None,
                },
                sort_keys=True,
            )
        )
        return 0

    print(
        f"trace: {args.app}/{args.problem_class} point #{args.point} "
        f"(rank {point.rank}, {point.collective}@{point.site}#inv{point.invocation}), "
        f"param {spec.param}, test {test_index}"
    )
    print(f"outcome: {result.outcome.value}")
    if result.detail:
        print(f"detail: {result.detail}")
    shown = list(tracer)[: args.limit] if args.limit else list(tracer)
    print(f"\n{tracer.emitted} events ({tracer.dropped} dropped by the ring buffer):")
    for e in shown:
        print("  " + format_event(e))
    if len(shown) < len(tracer):
        print(f"  ... {len(tracer) - len(shown)} more (raise --limit or use --json)")
    if graph is not None:
        print("\nwait-for graph:")
        for line in graph.describe().splitlines():
            print("  " + line)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Build the static HTML report tree from a campaign database."""
    from .report import build_report

    index = build_report(args.db, args.out, digest=args.digest)
    print(f"report written to {index}")
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    """Convert a legacy pickle checkpoint directory into the SQLite schema."""
    from .store import migrate_checkpoint

    summary = migrate_checkpoint(
        args.checkpoint_dir, args.db, overwrite=args.overwrite
    )
    print(
        f"migrated campaign {summary['digest'][:12]} into {args.db}: "
        f"{summary['units']} units, {summary['tests']} tests, "
        f"{summary['quarantined']} quarantined, "
        f"{'complete' if summary['complete'] else 'incomplete'}"
    )
    return 0


def _print_snapshot_line(metrics: dict) -> None:
    """The report's snapshot-engine line, when the engine served a test."""
    from .report.builder import snapshot_engine_line

    line = snapshot_engine_line(metrics)
    if line:
        print(f"\n{line}")


def _stats_from_db(args: argparse.Namespace) -> int:
    """The ``stats --db`` path: recompute aggregates from the store."""
    from .store import CampaignDB

    if args.db_path is None:
        print("stats requires --app (live run) or --db (stored campaign)",
              file=sys.stderr)
        return 2
    with CampaignDB(args.db_path) as db:
        c = db.campaign(args.digest)
        if c is None:
            what = f"digest {args.digest!r}" if args.digest else "campaigns"
            print(f"error: no {what} in {args.db_path}", file=sys.stderr)
            return 2
        hist = db.outcome_histogram(c["id"])
        total = sum(hist.values())
        n_quarantined = len(db.quarantine_records(c["id"]))
        metrics = db.metrics_snapshot(c["id"], "final")

        if args.json:
            print(
                json.dumps(
                    {
                        "campaign": {
                            "digest": c["digest"],
                            "app": c["app"],
                            "n_points": c["n_points"],
                            "tests_per_point": c["tests_per_point"],
                            "param_policy": c["param_policy"],
                            "seed": c["seed"],
                            "complete": bool(c["complete"]),
                            "recorded_tests": total,
                            "quarantined_units": n_quarantined,
                        },
                        "outcomes": hist,
                        "metrics": metrics,
                    },
                    sort_keys=True,
                )
            )
            return 0

        # Config fields are unknown ("?") for campaigns migrated from
        # legacy pickle checkpoints, whose headers carry only the digest.
        cfg = {k: "?" if c[k] is None else c[k]
               for k in ("app", "n_points", "tests_per_point", "param_policy", "seed")}
        print(
            f"campaign {c['digest'][:12]}: {cfg['app']}, "
            f"{cfg['n_points']} points × {cfg['tests_per_point']} tests "
            f"(policy={cfg['param_policy']}, seed={cfg['seed']}), "
            f"{'complete' if c['complete'] else 'INCOMPLETE'}"
        )
        print(f"recorded tests: {total}, quarantined units: {n_quarantined}")
        print()
        order = [o.name for o in OUTCOME_ORDER] + [Outcome.TOOL_ERROR.name]
        fractions = {
            name: hist.get(name, 0) / total if total else 0.0
            for name in order
            if name in hist or name in {o.name for o in OUTCOME_ORDER}
        }
        print(render_bars(fractions, title="response types (stored)"))
        if metrics:
            _print_snapshot_line(metrics)
            timers = metrics.get("timers", {})
            rows = [
                [name, t["count"], f"{t['total']:.3f}", f"{t['mean']:.3f}"]
                for name, t in sorted(timers.items())
            ]
            if rows:
                print()
                print(
                    render_table(
                        ["phase", "count", "total_s", "mean_s"],
                        rows,
                        title="phase timings (stored)",
                    )
                )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a campaign and report the collected metrics — or, with
    ``--db`` and no live run, recompute them from a stored campaign."""
    if args.app is None:
        return _stats_from_db(args)
    ff = _tool(args)
    if ff.config.scenario is not None:
        campaign = ff.campaign()
        points = list(campaign.points)
    else:
        points = _points(args, ff)
        campaign = ff.campaign(points=points)
    registry = ff.metrics

    if args.json:
        print(metrics_to_json(registry))
        return 0

    data = registry.to_dict()
    rows = [
        [name, t["count"], f"{t['total']:.3f}", f"{t['mean']:.3f}"]
        for name, t in sorted(data["timers"].items())
    ]
    print(render_table(["phase", "count", "total_s", "mean_s"], rows, title="phase timings"))

    n_tests = data["counters"].get("campaign.tests", 0)
    campaign_s = data["timers"].get("phase.campaign_s", {}).get("total", 0.0)
    if campaign_s > 0:
        print(f"\nthroughput: {n_tests} tests in {campaign_s:.3f}s "
              f"({n_tests / campaign_s:.1f} tests/sec)")
    n_predicted = data["counters"].get("campaign.tests_predicted", 0)
    if n_predicted:
        print(f"static prune: {n_predicted} of {n_tests} tests statically "
              f"proven ({n_predicted / n_tests:.1%} skipped)")
    _print_snapshot_line(data)

    print()
    print(
        render_bars(
            {o.value: f for o, f in campaign.outcome_fractions().items()},
            title=f"response types ({len(points)} points × {campaign.tests_per_point} tests)",
        )
    )

    gauges = {k: v for k, v in sorted(data["gauges"].items()) if k.startswith("prune.")}
    if gauges:
        print()
        print(
            render_table(
                ["metric", "value"],
                [[k, f"{v:.4g}"] for k, v in gauges.items()],
                title="pruning reductions",
            )
        )

    details = campaign.detail_samples()
    if details:
        print("\nsample failure details:")
        for outcome in OUTCOME_ORDER:
            if outcome in details:
                print(f"  {outcome.value}: {details[outcome]}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the verification suite: conformance, sanitizers, replay,
    campaign determinism, snapshot fork-equivalence.  Exit 0 only when
    every phase is clean."""
    from .injection import enumerate_points
    from .verify import (
        FUZZED_COLLECTIVES,
        MUTANTS,
        fork_equivalence,
        model_conformance,
        record_run,
        replay_run,
        run_conformance,
        run_mutant,
        sanitize_sweep,
    )

    if args.list_mutants:
        rows = [
            [m.name, m.layer, ", ".join(m.detected_by), m.description]
            for m in MUTANTS.values()
        ]
        print(render_table(
            ["mutant", "layer", "detected by", "description"], rows, title="seeded mutants"
        ))
        return 0
    # -- operator-error hygiene (exit 2, one line, no traceback) --------
    errors = [
        f"{flag} must be >= {least}, got {value}"
        for flag, value, least in (
            ("--seed", args.seed, 0), ("--draws", args.draws, 1),
            ("--tests", args.tests, 1), ("--max-points", args.max_points, 1),
        )
        if value < least
    ]
    errors += [
        f"unknown collective {name!r}; choices: {', '.join(FUZZED_COLLECTIVES)}"
        for name in args.collective or ()
        if name not in FUZZED_COLLECTIVES
    ]
    if args.mutant is not None and args.mutant not in MUTANTS:
        errors.append(f"unknown mutant {args.mutant!r}; choices: {', '.join(sorted(MUTANTS))}")
    if args.mutant is not None and args.collective:
        errors.append("--collective does not apply with --mutant: its check picks its own")
    if errors:
        print(errors[0], file=sys.stderr)
        return 2

    summary: dict = {"ok": True, "phases": {}}

    def phase(name: str, ok: bool, payload: dict) -> None:
        summary["phases"][name] = {"ok": ok, **payload}
        summary["ok"] = summary["ok"] and ok

    # A seeded mutant runs its layer's check only, with the mutant
    # installed and without it: the check must flip every name the
    # mutant lists, and pass without it.
    if args.mutant is not None:
        run = run_mutant(
            args.mutant, seed=args.seed, draws=args.draws,
            app=make_app(args.app, args.problem_class),
            tests=args.tests, max_points=args.max_points,
        )
        mutant = run.mutant
        phase(mutant.layer, run.detected, {
            "mutant": mutant.name, "detected": run.detected, "clean": run.clean,
            "expected": list(mutant.detected_by), "found": list(run.found),
        })
        print(json.dumps(summary, sort_keys=True) if args.json else run.describe())
        return 0 if summary["ok"] else 1

    # 1. differential conformance.
    conf = run_conformance(
        seed=args.seed,
        draws_per_collective=args.draws,
        collectives=args.collective or None,
    )
    phase("conformance", conf.ok, {
        "cases": conf.total_cases, "checks": conf.total_checks,
        "failures": [f.describe() for f in conf.failures[:20]],
    })
    if not args.json:
        print(conf.describe())

    # 2. sanitizer soak over the registered workloads.
    if not args.skip_sanitize:
        sweep = sanitize_sweep()
        ok = all(r.ok for r in sweep)
        phase("sanitize", ok, {"apps": {r.app: r.ok for r in sweep},
                               "violations": [v for r in sweep for v in r.violations]})
        if not args.json:
            print()
            for r in sweep:
                print("sanitize: " + r.describe())

    # 3. deterministic replay of golden application runs.
    if not args.skip_replay:
        replay_info, ok = {}, True
        for name in ("is", "lu"):
            app = make_app(name, "T")
            _, log = record_run(app.main, app.nranks)
            report = replay_run(app.main, app.nranks, log)
            replay_info[name] = report.detail
            ok = ok and report.identical
            if not args.json:
                print(f"replay: {name}/T {report.detail}")
        phase("replay", ok, {"apps": replay_info})

    # 4. campaign determinism: the same small campaign, serial then
    # sharded, must produce bit-identical TestResult streams.
    if not args.skip_campaign:
        ff = _tool(args)
        points = enumerate_points(ff.profile())[: args.max_points]
        sigs = []
        for jobs in (1, 2):
            campaign = Campaign(
                ff.app, ff.profile(), tests_per_point=args.tests,
                param_policy="all", seed=args.seed, jobs=jobs,
            ).run(points)
            sigs.append(_campaign_signature(campaign))
        ok = sigs[0] == sigs[1]
        phase("campaign", ok, {
            "app": args.app, "points": len(points), "tests": args.tests,
            "identical": ok,
        })
        if not args.json:
            print(
                f"campaign: {args.app}/T {len(points)} points × {args.tests} tests, "
                f"serial vs --jobs 2: " + ("bit-identical" if ok else "DIVERGED")
            )

    # 5. snapshot fork-equivalence: tests served by forking a parked
    # fault-free prefix must fingerprint identically to full replays.
    if not args.skip_snapshot:
        report = fork_equivalence(
            make_app(args.app, args.problem_class),
            seed=args.seed, tests_per_point=args.tests,
            max_points=args.max_points,
        )
        phase("snapshot", report.identical, {
            "app": args.app, "points": report.n_points,
            "tests": report.n_tests, "identical": report.identical,
            "mismatches": report.mismatches[:10],
        })
        if not args.json:
            print(report.describe())

    # 6. fault-model conformance: every composable fault model must
    # produce its expected Table-I response on its witness app.
    if not args.skip_models:
        report = model_conformance(seed=args.seed)
        phase("models", report.ok, {
            "witnesses": {r.witness: r.ok for r in report.results},
            "failures": [r.describe() for r in report.failures],
        })
        if not args.json:
            print()
            print(report.describe())

    if args.json:
        print(json.dumps(summary, sort_keys=True))
    elif summary["ok"]:
        print("\nverify: all phases clean")
    else:
        bad = [k for k, v in summary["phases"].items() if not v["ok"]]
        print(f"\nverify: FAILURES in {', '.join(bad)}", file=sys.stderr)
    return 0 if summary["ok"] else 1


def _campaign_signature(result) -> list:
    """The determinism guarantee, reified: point order, per-test fault
    specs, outcomes, injection records, derived rates."""
    sig = []
    for point, pr in result.points.items():
        sig.append(
            (
                point,
                [
                    (
                        t.spec.point, t.spec.param, t.spec.bit, t.outcome,
                        None if t.record is None else (t.record.bit, t.record.skipped),
                    )
                    for t in pr.tests
                ],
                pr.error_rate,
            )
        )
    return sig


def cmd_analyze(args: argparse.Namespace) -> int:
    """Static analysis over an application's fault space: the
    collective-matching checker, the provable fault-outcome
    pre-classifier (optionally cross-validated against live runs), and
    the determinism/simulator-safety lint.  Exit 0 = clean, 1 =
    findings/mismatches, 2 = operator error."""
    from collections import Counter

    from .analyze import (
        PreClassifier,
        check_skeleton,
        cross_validate,
        extract_skeleton,
        lint_tree,
        predict_tests,
    )
    from .injection import enumerate_points
    from .profiling import profile_application

    # -- operator-error hygiene (exit 2, one line, no traceback) --------
    if args.sample is not None and not 0.0 < args.sample <= 1.0:
        print(f"--sample must be in (0, 1], got {args.sample}", file=sys.stderr)
        return 2
    if args.sample is not None and args.lint_only:
        print("--sample only applies to the full analysis", file=sys.stderr)
        return 2

    lint_findings = lint_tree()
    if args.lint_only:
        for f in lint_findings:
            print(f"{f.path}:{f.line}: {f.rule}: {f.message}")
        if args.json:
            print(json.dumps([
                {"path": f.path, "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in lint_findings
            ]))
        elif not lint_findings:
            print("lint: clean")
        return 1 if lint_findings else 0

    if args.app is None:
        print("analyze requires --app (unless --lint-only)", file=sys.stderr)
        return 2

    app = make_app(args.app, args.problem_class)
    skeleton = extract_skeleton(app)
    match = check_skeleton(skeleton)

    summary: dict = {
        "app": app.name,
        "lint": [
            {"path": f.path, "line": f.line, "rule": f.rule, "message": f.message}
            for f in lint_findings
        ],
        "matching": {
            "ok": match.ok,
            "n_ops": match.n_ops,
            "n_comms": match.n_comms,
            "findings": [
                {"rule": f.rule, "severity": f.severity, "message": f.message}
                for f in match.findings
            ],
        },
    }
    ok = match.ok and not lint_findings

    cv = None
    if match.ok and args.sample is not None:
        # Referee mode: re-run a deterministic stride of the predicted
        # tests in the live simulator; one mismatch fails the analysis.
        cv = cross_validate(
            app, seed=args.seed, tests_per_point=args.tests,
            param_policy=args.policy, sample=args.sample, skeleton=skeleton,
        )
        ok = ok and cv.ok
        summary["crossval"] = {
            "ok": cv.ok, "n_tests": cv.n_tests, "n_predicted": cv.n_predicted,
            "n_checked": cv.n_checked, "coverage": cv.coverage,
            "rules": dict(cv.rules),
            "mismatches": [
                {"param": m.param, "rule": m.rule,
                 "predicted": m.predicted.value, "actual": m.actual.value,
                 "detail": m.detail}
                for m in cv.mismatches
            ],
        }
    elif match.ok:
        # Static-only pass: classify the whole campaign, run nothing.
        pre = PreClassifier(skeleton, seed=args.seed, param_policy=args.policy)
        points = enumerate_points(profile_application(app))
        rules: Counter = Counter()
        n_tests = n_predicted = 0
        for _i, _t, _point, prediction in predict_tests(pre, points, args.tests):
            n_tests += 1
            if prediction is not None:
                n_predicted += 1
                rules[prediction.rule] += 1
        summary["preclassify"] = {
            "n_tests": n_tests, "n_predicted": n_predicted,
            "coverage": n_predicted / n_tests if n_tests else 0.0,
            "rules": dict(rules),
        }

    if args.json:
        summary["ok"] = ok
        print(json.dumps(summary, indent=2))
        return 0 if ok else 1

    print(match.describe())
    for f in lint_findings:
        print(f"{f.path}:{f.line}: {f.rule}: {f.message}")
    print(f"lint: {len(lint_findings)} finding(s)"
          if lint_findings else "lint: clean")
    if cv is not None:
        print()
        print(cv.describe())
    elif "preclassify" in summary:
        pc = summary["preclassify"]
        print()
        rows = [[rule, n] for rule, n in sorted(
            pc["rules"].items(), key=lambda kv: -kv[1])]
        print(render_table(
            ["rule", "tests"], rows,
            title=f"statically proven: {pc['n_predicted']}/{pc['n_tests']} "
            f"tests ({pc['coverage']:.1%}) — not cross-validated "
            f"(use --sample)",
        ))
    return 0 if ok else 1


def cmd_study(args: argparse.Namespace) -> int:
    ff = _tool(args)
    threshold = None if args.no_ml else args.threshold
    # A scenario brings its own anchor point (study --no-ml only).
    points = None if ff.config.scenario is not None else _points(args, ff)
    report = ff.run(threshold=threshold, points=points)
    print(report.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastfit", description="Fast fault injection and sensitivity analysis"
    )
    # Shared verbosity flags, attached to every subcommand so they can
    # go after the command name (fastfit trace -v ...).
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="diagnostics on stderr (-v info, -vv debug)",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true", help="errors only"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apps", help="list registered workloads", parents=[verbosity])
    p.set_defaults(fn=cmd_apps)

    p = sub.add_parser("profile", help="profiling phase: sites, stacks, mix", parents=[verbosity])
    _add_app_args(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("prune", help="semantic + context pruning report", parents=[verbosity])
    _add_app_args(p)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser(
        "campaign", help="fault-injection campaign over representatives", parents=[verbosity]
    )
    _add_app_args(p)
    _add_campaign_args(p)
    p.set_defaults(fn=cmd_campaign)

    # 'run' = 'campaign' with a default app, the natural spelling for
    # store-backed runs: fastfit run --db campaigns.sqlite
    p = sub.add_parser(
        "run", help="alias for 'campaign' (default --app lu)", parents=[verbosity]
    )
    _add_app_args(p, required=False, default="lu")
    _add_campaign_args(p)
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "learn", help="ML-driven campaign (inject → learn → predict)", parents=[verbosity]
    )
    _add_app_args(p)
    _add_campaign_args(p)
    p.add_argument("--threshold", type=float, default=0.65)
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser(
        "analyze",
        help="static analysis: collective-matching checker, provable "
        "fault-outcome pre-classification (cross-validated), and the "
        "determinism lint",
        parents=[verbosity],
    )
    _add_app_args(p, required=False)
    p.add_argument(
        "--tests", type=int, default=10,
        help="tests per injection point to classify (default 10)",
    )
    p.add_argument(
        "--policy", default="all",
        help='fault target policy to classify under (default "all")',
    )
    p.add_argument(
        "--sample", type=float, default=None, metavar="FRACTION",
        help="cross-validate this fraction of the statically predicted "
        "tests against live simulator runs (exit 1 on any mismatch); "
        "must be in (0, 1]",
    )
    p.add_argument(
        "--lint-only", action="store_true",
        help="run only the determinism/simulator-safety lint over the "
        "repro package",
    )
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "study", help="full study: profile → prune → campaign/learn", parents=[verbosity]
    )
    _add_app_args(p)
    _add_campaign_args(p)
    p.add_argument("--threshold", type=float, default=0.65)
    p.add_argument("--no-ml", action="store_true", help="skip the ML stage (NPB-style rows)")
    p.set_defaults(fn=cmd_study)

    p = sub.add_parser(
        "trace", help="trace one injection test (events + failure forensics)",
        parents=[verbosity],
    )
    _add_app_args(p)
    p.add_argument(
        "--point", type=int, default=0,
        help="index into the pruned representative points (see 'prune')",
    )
    p.add_argument("--param", default=None, help="fault parameter (default: policy pick)")
    p.add_argument(
        "--policy", default="buffer",
        help='fault target policy when --param is not given',
    )
    p.add_argument("--bit", type=int, default=None, help="bit to flip (default: random)")
    p.add_argument("--test", type=int, default=0, help="test index within the point")
    p.add_argument(
        "--find-outcome", default=None, metavar="OUTCOME",
        help="search test indices until this response type occurs (e.g. INF_LOOP)",
    )
    p.add_argument(
        "--max-search", type=int, default=200,
        help="max tests to try with --find-outcome",
    )
    p.add_argument(
        "--capacity", type=int, default=DEFAULT_CAPACITY,
        help="trace ring-buffer capacity (events)",
    )
    p.add_argument("--limit", type=int, default=100, help="max events to pretty-print (0 = all)")
    p.add_argument("--json", action="store_true", help="emit JSONL instead of text")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "verify",
        help="verification suite: conformance fuzzing, sanitizers, replay, "
        "campaign determinism, snapshot fork-equivalence",
        parents=[verbosity],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--draws", type=int, default=200,
        help="fuzzed draws per collective for the conformance sweep",
    )
    p.add_argument(
        "--collective", action="append", default=None, metavar="NAME",
        help="restrict conformance to this collective (repeatable)",
    )
    p.add_argument(
        "--mutant", default=None, metavar="NAME",
        help="install a seeded defect and require its layer's check to catch "
        "it (exit 0 = detected); see --list-mutants",
    )
    p.add_argument(
        "--list-mutants", action="store_true", help="list seeded mutants and exit"
    )
    p.add_argument("--skip-sanitize", action="store_true", help="skip the sanitizer soak")
    p.add_argument("--skip-replay", action="store_true", help="skip the replay check")
    p.add_argument(
        "--skip-campaign", action="store_true",
        help="skip the serial-vs-parallel campaign determinism check",
    )
    p.add_argument(
        "--skip-snapshot", action="store_true",
        help="skip the snapshot fork-equivalence check",
    )
    p.add_argument(
        "--skip-models", action="store_true",
        help="skip the fault-model conformance witnesses",
    )
    p.add_argument(
        "--app", default="lu", choices=sorted(APPLICATIONS),
        help="workload for the campaign determinism check",
    )
    p.add_argument("--problem-class", default="T", choices=("T", "S", "A"))
    p.add_argument("--tests", type=int, default=3, help="tests per point for the campaign check")
    p.add_argument("--max-points", type=int, default=4, help="points for the campaign check")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "stats", help="campaign with metrics: phase timings, tests/sec, outcomes "
        "(or recompute them from a stored campaign with --db)",
        parents=[verbosity],
    )
    _add_app_args(p, required=False)
    _add_campaign_args(p)
    p.add_argument(
        "--digest", default=None, metavar="HEX",
        help="campaign digest (or prefix) to read with --db "
        "(default: most recent)",
    )
    p.add_argument("--json", action="store_true", help="dump the metrics registry as JSON")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "report", help="build the static HTML report tree from a campaign database",
        parents=[verbosity],
    )
    p.add_argument("--db", required=True, metavar="PATH", help="campaign database")
    p.add_argument("--out", default="report", metavar="DIR", help="output directory")
    p.add_argument(
        "--digest", default=None, metavar="HEX",
        help="campaign digest (or prefix) to focus index.html on "
        "(default: most recent)",
    )
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "migrate",
        help="convert a legacy pickle checkpoint directory into the SQLite schema",
        parents=[verbosity],
    )
    p.add_argument(
        "--checkpoint-dir", required=True, metavar="DIR",
        help="legacy pickle checkpoint directory to convert",
    )
    p.add_argument("--db", required=True, metavar="PATH", help="target campaign database")
    p.add_argument(
        "--overwrite", action="store_true",
        help="replace an already-migrated campaign with the same digest",
    )
    p.set_defaults(fn=cmd_migrate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(verbose=getattr(args, "verbose", 0), quiet=getattr(args, "quiet", False))
    # Flag combinations the facade never sees; every campaign option is
    # checked by CampaignConfig when the subcommand builds its tool.
    if getattr(args, "resume", False) and not (args.checkpoint_dir or args.db_path):
        print("--resume requires --checkpoint-dir or --db", file=sys.stderr)
        return 2
    if getattr(args, "scenario", None) and (
        args.command == "learn" or (args.command == "study" and not args.no_ml)
    ):
        print(
            "--scenario runs under one anchor point, which leaves the "
            "ML stage nothing to learn (use 'campaign' or 'study --no-ml')",
            file=sys.stderr,
        )
        return 2
    adaptive = getattr(args, "adaptive", False)
    if not adaptive:
        for flag, name in (
            ("ci_width", "--ci-width"),
            ("budget", "--budget"),
            ("accuracy_target", "--accuracy-target"),
        ):
            if getattr(args, flag, None) is not None:
                print(f"{name} requires --adaptive", file=sys.stderr)
                return 2
    else:
        if args.command not in ("campaign", "run"):
            print(
                "--adaptive only applies to 'campaign' and 'run'",
                file=sys.stderr,
            )
            return 2
        if args.scenario:
            print("--adaptive and --scenario are mutually exclusive",
                  file=sys.stderr)
            return 2
        if args.static_prune:
            print(
                "--adaptive is incompatible with --static-prune "
                "(sequential stopping needs every test slot executed)",
                file=sys.stderr,
            )
            return 2
        if args.budget is not None and args.budget < 1:
            print(f"--budget must be >= 1 test, got {args.budget}", file=sys.stderr)
            return 2
    for flag, value in (
        ("--ci-width", getattr(args, "ci_width", None)),
        ("--accuracy-target", getattr(args, "accuracy_target", None)),
        ("--threshold", getattr(args, "threshold", None)),
    ):
        if value is not None and not 0.0 < value <= 1.0:
            print(f"{flag} must be in (0, 1], got {value}", file=sys.stderr)
            return 2
    batch_size = getattr(args, "batch_size", None)
    if batch_size is not None and batch_size < 1:
        print(f"--batch-size must be >= 1, got {batch_size}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(exc.render(_FLAGS), file=sys.stderr)
        return 2
    except (
        CampaignStoreError, MigrationError, StaticPruneError, ScenarioError,
    ) as exc:
        # A legacy checkpoint directory, locked database, or unconvertible
        # directory is an operator error, not a crash: one line, exit 2,
        # no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
