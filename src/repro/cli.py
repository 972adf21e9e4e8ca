"""Command-line interface for FastFIT.

Usage (``python -m repro`` or the ``fastfit`` entry point)::

    fastfit apps
    fastfit profile  --app lammps --problem-class T
    fastfit prune    --app lu     --problem-class S
    fastfit campaign --app mg     --tests 20 --policy buffer
    fastfit campaign --app is     --tests 20 --static-prune
    fastfit campaign --app lu     --tests 20 --db campaigns.sqlite
    fastfit campaign --app lu     --adaptive --ci-width 0.3 --budget 2000 --jobs 4
    fastfit analyze  --app lu     --tests 10 --sample 0.2
    fastfit analyze  --lint-only
    fastfit verify   --mutant wrong_root
    fastfit learn    --app lammps --threshold 0.7
    fastfit study    --app lammps --threshold 0.7
    fastfit trace    --app lu     --find-outcome INF_LOOP
    fastfit stats    --db campaigns.sqlite
    fastfit report   --db campaigns.sqlite --out report/

Every subcommand prints ASCII tables in the style of the paper's
evaluation section; ``trace --json`` and ``stats --json`` emit
machine-readable JSONL/JSON instead.  ``campaign``, ``learn`` and
``study`` run; ``stats`` and ``report`` only read what a ``--db`` run
stored.  All subcommands accept ``-v`` /
``-vv`` (info / debug diagnostics on stderr) and ``-q`` (errors only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from typing import Sequence

from .analyze import StaticPruneError
from .apps import APPLICATIONS, make_app
from .fastfit import FastFIT
from .store import CampaignStoreError
from .injection.campaign import Campaign, CampaignConfig
from .injection.config import ConfigError
from .injection.models import draw_task
from .injection.outcome import OUTCOME_ORDER, Outcome
from .injection.runner import InjectionRunner
from .injection.scenario import ScenarioError, load_scenario
from .injection.targets import all_targets
from .obs import (
    DEFAULT_CAPACITY,
    Tracer,
    build_wait_for_graph,
    format_event,
    setup_logging,
)
from .pruning.mldriven import PAPER_3_LEVELS, level_distribution
from .report.text import render_bars, render_grouped_bars, render_table


#: Every campaign option, by field name.
_FIELDS = CampaignConfig.__dataclass_fields__
#: The learning-loop options only ``campaign --adaptive`` reads.
_ADAPTIVE = ("accuracy_target", "ci_width", "budget")


def _add_option(
    p: argparse.ArgumentParser, name: str, flag: str | None = None, **overrides
) -> None:
    """Declare :class:`CampaignConfig` field ``name``'s flag from its
    metadata, with the field name as ``dest`` and the field's default.
    A subcommand may spell the flag its own way (``flag``) and override
    the default; a ``None`` left in the namespace keeps the field's
    default (see :func:`_config`)."""
    f = _FIELDS[name]
    flag = flag or f.metadata["flag"]
    kwargs = {
        "default": f.default, "help": f.metadata["help"], **f.metadata["argparse"], **overrides
    }
    if isinstance(f.default, bool):
        if not f.default:
            kwargs["action"] = "store_true"
        elif flag.startswith("--no-"):
            kwargs["action"] = "store_false"
        else:
            kwargs["action"] = argparse.BooleanOptionalAction
    p.add_argument(flag, dest=name, **kwargs)
    # ConfigError names each option the way this subcommand spells it.
    p.set_defaults(flags={**(p.get_default("flags") or {}), name: flag})


def _add_app_args(
    p: argparse.ArgumentParser, required: bool = True, default: str | None = None
) -> None:
    p.add_argument(
        "--app", required=required, default=default, choices=sorted(APPLICATIONS)
    )
    p.add_argument("--problem-class", default="T", choices=("T", "S", "A"))
    _add_option(p, "seed")


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    # Every CampaignConfig field is a flag; --seed is an app argument
    # (every subcommand replays from a seed), declared with --app, and
    # the loop's stop rules are declared by the subcommands that run it.
    for name in _FIELDS:
        if name != "seed" and name not in _ADAPTIVE:
            _add_option(p, name)
    p.add_argument(
        "--progress-jsonl", default=None, metavar="PATH",
        help="append live progress snapshots (tests/sec, outcome histogram, "
        "worker health, ETA) as JSON lines to this file",
    )


def _add_adaptive_args(p: argparse.ArgumentParser) -> None:
    """campaign: the campaign flags plus ``--adaptive`` and the stop
    rules only it reads, which default to ``None`` here so that giving
    one without ``--adaptive`` is caught."""
    _add_campaign_args(p)
    p.add_argument(
        "--adaptive", action="store_true",
        help="adaptive steering: inject in uncertainty-sampled batches "
        "with per-point sequential stopping (incompatible with "
        "--scenario and --static-prune)",
    )
    for name in _ADAPTIVE:
        _add_option(p, name, default=None)


def _add_store_args(p: argparse.ArgumentParser, digest_use: str) -> None:
    """The readers of a campaign database (``stats``, ``report``): the
    file, and which of its campaigns."""
    p.add_argument("--db", required=True, metavar="PATH", help="campaign database")
    p.add_argument(
        "--digest", default=None, metavar="HEX",
        help=f"campaign digest (or prefix) {digest_use} (default: most recent)",
    )


def _config(args: argparse.Namespace) -> CampaignConfig:
    """The campaign config from every option flag the subcommand
    declares (``dest`` = field name; ``None`` = not given, so the field
    keeps its default); raises :class:`ConfigError`."""
    values = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    if "scenario" in values:
        # ScenarioError (malformed file, bad task list) propagates to
        # main()'s operator-error handler: one line, exit 2.
        values["scenario"] = load_scenario(values["scenario"])
    return CampaignConfig(**values)


def _check_config(args: argparse.Namespace) -> CampaignConfig:
    """The config of a check subcommand (``analyze``, ``verify``): a
    check over zero tests proves nothing, so ``--tests`` starts at 1."""
    if args.tests_per_point < 1:
        raise ConfigError(
            "tests_per_point", "{tests_per_point} must be >= 1, got {value}",
            value=args.tests_per_point,
        )
    return _config(args)


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


def cmd_campaign(args: argparse.Namespace) -> int:
    ff = _tool(args)
    # A scenario brings its own timeline and runs at its anchor point;
    # pruning the parameter fault space would be meaningless.
    points = ff.points()
    if args.adaptive:
        _print_rounds(ff.steer(points=points), len(points), "adaptive steering")
        return 0
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
    points = ff.points()
    _print_rounds(ff.learn(points=points), len(points), "ML-driven learning")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one injection test with full tracing and print/export it."""
    for flag, value, least in (
        ("--bit", args.bit, 0), ("--test", args.test, 0), ("--limit", args.limit, 0),
        ("--capacity", args.capacity, 1), ("--max-search", args.max_search, 1),
    ):
        if value is not None and value < least:
            print(f"{flag} must be >= {least}, got {value}", file=sys.stderr)
            return 2
    ff = _tool(args)
    points = ff.points()
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
    valid = all_targets(point.collective)
    if args.param is not None and args.param not in valid:
        print(
            f"--param {args.param!r} is not a parameter of "
            f"{point.collective} (one of: {', '.join(valid)})",
            file=sys.stderr,
        )
        return 2
    # Test (point, t) of the campaign over ff.points(): an explicit
    # --param is a one-candidate policy, whose pick draws no state.
    policy = args.param or ff.config.param_policy
    runner = InjectionRunner(ff.app, ff.profile())

    test_index = args.test
    if args.find_outcome is not None:
        want = args.find_outcome.upper()
        if want not in {o.name for o in OUTCOME_ORDER}:
            print(f"unknown outcome {args.find_outcome!r}", file=sys.stderr)
            return 2
        found = None
        for t in range(args.max_search):
            spec, rng = draw_task(point, ff.config.seed, args.point, t, policy=policy)
            if runner.run_one(replace(spec, bit=args.bit), rng).outcome.name == want:
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

    spec, rng = draw_task(point, ff.config.seed, args.point, test_index, policy=policy)
    spec = replace(spec, bit=args.bit)
    tracer = Tracer(capacity=args.capacity)
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
                    "seed": ff.config.seed,
                    "test_index": test_index,
                    "point": asdict(point),
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


def cmd_stats(args: argparse.Namespace) -> int:
    """Print one stored campaign's view: totals and outcome bars, the
    snapshot-engine line, throughput (the final progress row), the phase
    timings and pruning gauges of the final metrics, and a sample
    failure detail per outcome.  Reads ``--db`` only; nothing runs."""
    from .injection.campaign import detail_samples
    from .report.builder import snapshot_engine_line
    from .store import CampaignDB

    with CampaignDB(args.db) as db:
        c = db.campaign(args.digest)
        if c is None:
            what = f"digest {args.digest!r}" if args.digest else "campaigns"
            print(f"error: no {what} in {args.db}", file=sys.stderr)
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
        progress = db.progress_rows(c["id"])
        details = detail_samples(
            (Outcome(row["outcome"]), row["detail"]) for row in db.results(c["id"])
        )

    # Config fields are unknown ("?") for a campaign row created
    # through CampaignDB with its digest alone.
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
    names = [o.name for o in OUTCOME_ORDER]
    if Outcome.TOOL_ERROR.name in hist:
        names.append(Outcome.TOOL_ERROR.name)
    print(render_bars(
        {name: hist.get(name, 0) / total if total else 0.0 for name in names},
        title="response types (stored)",
    ))

    metrics = metrics or {}
    snapshot = snapshot_engine_line(metrics)
    if snapshot:
        print(f"\n{snapshot}")
    if progress:
        last = progress[-1]
        print(f"\nthroughput: {last['tests_per_sec']:.1f} tests/sec (final progress "
              f"snapshot: {last['done_tests']}/{last['total_tests']} tests, "
              f"{last['elapsed_s']:.1f}s elapsed)")
    # A timer still open when the final metrics were stored (the
    # facade's phase.campaign_s) has no sample: not a zero-second phase.
    timers = [
        [name, t["count"], f"{t['total']:.3f}", f"{t['mean']:.3f}"]
        for name, t in sorted(metrics.get("timers", {}).items())
        if t["count"] > 0
    ]
    if timers:
        print()
        print(render_table(
            ["phase", "count", "total_s", "mean_s"], timers, title="phase timings (stored)"
        ))
    gauges = [
        [k, f"{v:.4g}"] for k, v in sorted(metrics.get("gauges", {}).items())
        if k.startswith("prune.")
    ]
    if gauges:
        print()
        print(render_table(["metric", "value"], gauges, title="pruning reductions"))
    if any(o in details for o in OUTCOME_ORDER):
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
    config = _check_config(args)
    errors = [f"--draws must be >= 1, got {args.draws}"] if args.draws < 1 else []
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
            args.mutant, seed=config.seed, draws=args.draws,
            app=make_app(args.app, args.problem_class),
            tests=config.tests_per_point, max_points=config.max_points,
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
        seed=config.seed,
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
    # sharded, must produce identical results, point order included.
    if not args.skip_campaign:
        ff = FastFIT(make_app(args.app, args.problem_class), config)
        points = enumerate_points(ff.profile())[: config.max_points]
        serial, parallel = (
            Campaign(ff.app, ff.profile(), config, param_policy="all", jobs=jobs).run(points)
            for jobs in (1, 2)
        )
        ok = list(serial.points.items()) == list(parallel.points.items())
        tests = config.tests_per_point
        phase("campaign", ok, {
            "app": args.app, "points": len(points), "tests": tests, "identical": ok,
        })
        if not args.json:
            print(
                f"campaign: {args.app}/T {len(points)} points × {tests} tests, "
                f"serial vs --jobs 2: " + ("bit-identical" if ok else "DIVERGED")
            )

    # 5. snapshot fork-equivalence: tests served by forking a parked
    # fault-free prefix must fingerprint identically to full replays.
    if not args.skip_snapshot:
        report = fork_equivalence(
            make_app(args.app, args.problem_class),
            seed=config.seed, tests_per_point=config.tests_per_point,
            max_points=config.max_points,
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
        report = model_conformance(seed=config.seed)
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


def cmd_analyze(args: argparse.Namespace) -> int:
    """Static analysis over an application's fault space: the
    collective-matching checker, the provable fault-outcome
    pre-classifier (optionally cross-validated against live runs), and
    the determinism/simulator-safety lint.  Exit 0 = clean, 1 =
    findings/mismatches, 2 = operator error."""
    from .analyze import check_skeleton, cross_validate, lint_tree, skeleton_from_profile
    from .profiling.profiler import golden_run

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

    config = _check_config(args)
    app = make_app(args.app, args.problem_class)
    # A structurally broken app fails its golden run; the checker then
    # reports on the calls recorded before the failure.
    profile, error = golden_run(app)
    skeleton = skeleton_from_profile(profile)
    match = check_skeleton(skeleton)

    summary: dict = {
        "app": app.name,
        "golden_run": None if error is None else str(error),
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
    clean = match.ok and error is None
    ok = clean and not lint_findings

    cv = None
    if clean:
        # Referee mode (--sample): re-run a deterministic stride of the
        # predicted tests in the live simulator; one mismatch fails the
        # analysis.  Without it, classify the whole campaign, run nothing.
        cv = cross_validate(
            app, seed=config.seed, tests_per_point=config.tests_per_point,
            param_policy=config.param_policy, sample=args.sample, profile=profile,
        )
        ok = ok and cv.ok
        rules = dict(cv.rules)
        if args.sample is None:
            summary["preclassify"] = {
                "n_tests": cv.n_tests, "n_predicted": cv.n_predicted,
                "coverage": cv.coverage, "rules": rules,
            }
        else:
            summary["crossval"] = {
                "ok": cv.ok, "n_tests": cv.n_tests, "n_predicted": cv.n_predicted,
                "n_checked": cv.n_checked, "coverage": cv.coverage, "rules": rules,
                "mismatches": [
                    {"param": m.param, "rule": m.rule,
                     "predicted": m.predicted.value, "actual": m.actual.value,
                     "detail": m.detail}
                    for m in cv.mismatches
                ],
            }

    if args.json:
        summary["ok"] = ok
        print(json.dumps(summary, indent=2))
        return 0 if ok else 1

    if error is not None:
        print(f"golden run of {app.name!r} failed: {error}")
    print(match.describe())
    for f in lint_findings:
        print(f"{f.path}:{f.line}: {f.rule}: {f.message}")
    print(f"lint: {len(lint_findings)} finding(s)"
          if lint_findings else "lint: clean")
    if "crossval" in summary:
        print()
        print(cv.describe())
    elif cv is not None:
        print()
        rows = [[rule, n] for rule, n in sorted(cv.rules.items(), key=lambda kv: -kv[1])]
        print(render_table(
            ["rule", "tests"], rows,
            title=f"statically proven: {cv.n_predicted}/{cv.n_tests} "
            f"tests ({cv.coverage:.1%}) — not cross-validated "
            f"(use --sample)",
        ))
    return 0 if ok else 1


def cmd_study(args: argparse.Namespace) -> int:
    ff = _tool(args)
    # A scenario brings its own anchor point (study --no-ml only).
    points = ff.points()
    report = ff.run(threshold=None, points=points) if args.no_ml else ff.run(points=points)
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
    _add_adaptive_args(p)
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "learn", help="ML-driven campaign (inject → learn → predict)", parents=[verbosity]
    )
    _add_app_args(p)
    _add_campaign_args(p)
    _add_option(p, "accuracy_target", "--threshold")
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser(
        "analyze",
        help="static analysis: collective-matching checker, provable "
        "fault-outcome pre-classification (cross-validated), and the "
        "determinism lint",
        parents=[verbosity],
    )
    _add_app_args(p, required=False)
    _add_option(p, "tests_per_point", default=10)
    _add_option(p, "param_policy", default="all")
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
    _add_option(p, "accuracy_target", "--threshold")
    p.add_argument("--no-ml", action="store_true", help="skip the ML stage (NPB-style rows)")
    p.set_defaults(fn=cmd_study)

    p = sub.add_parser(
        "trace", help="trace one injection test (events + failure forensics)",
        parents=[verbosity],
    )
    _add_app_args(p)
    p.add_argument(
        "--point", type=int, default=0,
        help="index into the campaign's point list (the pruned representatives "
        "the policy covers)",
    )
    p.add_argument("--param", default=None, help="fault parameter (default: policy pick)")
    _add_option(p, "param_policy")
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
    _add_app_args(p, required=False, default="lu")
    _add_option(p, "tests_per_point", default=3)
    _add_option(p, "max_points", default=4)
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
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "stats", help="a stored campaign's outcomes, throughput, phase timings "
        "and failure details (write one with campaign --db)",
        parents=[verbosity],
    )
    _add_store_args(p, "to read")
    p.add_argument(
        "--json", action="store_true",
        help="the campaign row, outcome histogram and final metrics as JSON",
    )
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "report", help="build the static HTML report tree from a campaign database",
        parents=[verbosity],
    )
    _add_store_args(p, "to focus index.html on")
    p.add_argument("--out", default="report", metavar="DIR", help="output directory")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(verbose=getattr(args, "verbose", 0), quiet=getattr(args, "quiet", False))
    # Flag combinations the facade never sees; every option's own check
    # runs in CampaignConfig when the subcommand builds its config.
    adaptive = getattr(args, "adaptive", None)
    for broken, message in (
        (getattr(args, "resume", False) and not args.db_path, "--resume requires --db"),
        (getattr(args, "scenario", None)
         and (args.command == "learn" or (args.command == "study" and not args.no_ml)),
         "--scenario runs under one anchor point, which leaves the ML stage "
         "nothing to learn (use 'campaign' or 'study --no-ml')"),
        (adaptive and args.scenario, "--adaptive and --scenario are mutually exclusive"),
        (adaptive and args.static_prune,
         "--adaptive is incompatible with --static-prune "
         "(sequential stopping needs every test slot executed)"),
        *((adaptive is False and getattr(args, name) is not None,
           f"{_FIELDS[name].metadata['flag']} requires --adaptive") for name in _ADAPTIVE),
    ):
        if broken:
            print(message, file=sys.stderr)
            return 2
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``fastfit trace ... | head``): send the
        # rest of stdout to devnull so the exit flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(exc.render(args.flags), file=sys.stderr)
        return 2
    except (CampaignStoreError, StaticPruneError, ScenarioError) as exc:
        # A locked or unreadable database, an app the pre-classifier
        # cannot prune, or a bad scenario file is an operator error, not
        # a crash: one line, exit 2, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
