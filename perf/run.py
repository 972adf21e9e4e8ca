"""The FastFIT benchmark: one command, six workloads.

    python3 -m perf.run                      # all workloads, 5 interleaved repeats
    python3 -m perf.run --trace              # ... plus the traced pass (per-layer numbers)
    python3 -m perf.run --smoke              # < 30 s self-check of the harness
    python3 -m perf.run --workload W --seed N --seconds S --trace 0|1   # one driver run

A closed loop: one campaign at a time, each in a fresh ``perf.child``
process started from this single harness process, never more worker
processes than cores.  End-to-end metrics are taken with tracing off.
See ``perf/README.md`` for the protocol and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import check
from . import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"
CHILD_TIMEOUT_S = 150
#: Fresh-process repeats of the campaign a driver run makes at least.
MIN_REPEATS = 3
SPOT_SAMPLES = 12


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- one child ---------------------------------------------------------


def spawn(name: str, seed: int, *, trace_out: Path | None = None, spot: int = 0,
          smoke: bool = False) -> dict:
    """Run one ``perf.child`` to the end; its JSON, or ``{"crashed": why}``."""
    tmp = OUT / "tmp" / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, "-m", "perf.child", "--workload", name, "--seed", str(seed),
           "--tmp", str(tmp), "--spot", str(spot)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    # Own session: a timed-out child is killed together with its pool workers.
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(time.time())], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(tmp, ignore_errors=True)  # the child had no chance to
        return {"workload": name, "seed": seed, "crashed": f"timeout after {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0 or not stdout.strip():
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return {"workload": name, "seed": seed,
                "crashed": f"exit code {proc.returncode}: {tail}"}
    run = json.loads(stdout.strip().splitlines()[-1])
    run["process_s"] = time.perf_counter() - started
    return run


# -- metrics -----------------------------------------------------------


def end_to_end_of(run: dict) -> dict[str, tuple[float, str]]:
    """One run's end-to-end values.  Metrics that do not apply to the
    workload (the steering ones, on fixed-size campaigns) are absent."""
    tests = run["tests"]
    out = {
        "tests_per_s": (tests / run["wall_s"], "1/s"),
        "setup_s": (run["setup_s"], "s"),
        "cpu_s_per_test": (run["cpu_s"] / tests, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    facts = run["facts"]
    if facts:
        out["tests_to_target"] = (tests, "count")
        out["accuracy_at_stop"] = (facts["accuracy_at_stop"], "frac")
        if facts["stop_reason"] == "accuracy":
            out["time_to_target_s"] = (run["wall_s"], "s")
    return out


#: Interference on a shared machine only ever slows a run down: children
#: run back to back read 165-176 tests/s with bursts down to 100, so the
#: median of 4 spreads 10-20 % from run to run and the fastest of 4 spreads
#: 3 %.  The timing metrics therefore report the fastest repeat; everything
#: else reports the median.  Every cell also keeps median, min, max, n and
#: the per-repeat values.
BEST_OF = {"tests_per_s": max, "cpu_s_per_test": min, "time_to_target_s": min}


def summarise(per_run: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    """One cell per metric over the repeats."""
    out = {}
    for name in sorted({n for values in per_run for n in values}):
        xs = [values[name][0] for values in per_run if name in values]
        unit = next(values[name][1] for values in per_run if name in values)
        out[name] = {"value": BEST_OF.get(name, statistics.median)(xs), "unit": unit,
                     "median": statistics.median(xs), "min": min(xs), "max": max(xs),
                     "n": len(xs), "runs": xs}
    return out


def per_layer_of(untraced: list[dict], traced: dict) -> dict[str, tuple[float, str]]:
    """Probes and span-derived numbers from the traced run; the program's
    own counters from an untraced one, so they describe the real path."""
    out = {k: tuple(v) for k, v in traced["layer"].items()}
    out.update({k: tuple(v) for k, v in untraced[0]["layer"].items()})
    out["trace.overhead_frac"] = (
        traced["wall_s"] / min(r["wall_s"] for r in untraced) - 1.0, "frac")
    for name, cell in end_to_end_of(untraced[0]).items():
        if name in ("tests_to_target", "accuracy_at_stop", "time_to_target_s"):
            out[f"steer.{name}"] = cell
    return out


def ok_runs(runs: list[dict]) -> list[dict]:
    return [r for r in runs if "crashed" not in r]


def violations_of(runs: list[dict]) -> list[str]:
    out = [v for run in runs for v in check.run_violations(run)]
    return out + check.repeat_violations(runs)


# -- driver mode: one workload, one JSON line ----------------------------


def driver(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    name, traced = args.workload, bool(args.trace)
    runs = [spawn(name, args.seed, spot=SPOT_SAMPLES)]
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        runs.append(spawn(name, args.seed, trace_out=OUT / f"trace-{name}.jsonl"))
    else:
        started = time.perf_counter()
        while len(runs) < MIN_REPEATS or time.perf_counter() - started < args.seconds:
            runs.append(spawn(name, args.seed))
    violations = violations_of(runs)
    attempted, failed = check.tally(runs, broken=bool(check.repeat_violations(runs)))
    for v in violations:
        print(f"perf.run: {name}: {v}", file=sys.stderr)
    if len(ok_runs(runs)) < len(runs):
        return 1  # a crashed run leaves nothing to report
    if traced:
        values = per_layer_of(runs[:1], runs[1])
        unknown = set(values) - {m["name"] for m in bench["per_layer"]}
        if unknown:
            raise SystemExit(f"perf.run: per-layer metrics missing from BENCHMARK.json: {unknown}")
        # The contract wants every per-layer metric on every workload; one
        # whose layer this workload's campaign never enters reads 0.
        metrics = {m["name"]: {"value": values.get(m["name"], (0.0,))[0], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        cells = summarise([end_to_end_of(r) for r in runs])
        metrics = {m["name"]: {"value": cells[m["name"]]["value"], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"correct": not violations and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not violations and failed == 0 else 1


# -- matrix mode: every workload, results file ---------------------------


def _first_line(cmd: list[str]) -> str:
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=10).stdout.strip().splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def header(args: argparse.Namespace, repeats: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": _first_line(["git", "rev-parse", "HEAD"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": args.loadavg_start,
        "repeats": repeats,
        "seed": args.seed,
        "smoke": args.smoke,
        "run_wall_s": {},
    }


def matrix(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    repeats = 1 if args.smoke else args.repeats
    traced = bool(args.trace) or args.smoke
    head = header(args, repeats)
    OUT.mkdir(parents=True, exist_ok=True)
    names = list(wl.WORKLOADS)

    runs: dict[str, list[dict]] = {name: [] for name in names}
    # Round-robin (A B C D E F, A B C ...): a noisy burst is spread over
    # the workloads instead of landing on one.
    for r in range(repeats):
        for name in names:
            spot = 2 if args.smoke else SPOT_SAMPLES if r == 0 else 0
            runs[name].append(spawn(name, args.seed, spot=spot, smoke=args.smoke))
            print(f"  {name} repeat {r + 1}/{repeats}", file=sys.stderr)
    traces: dict[str, dict] = {}
    if traced:
        for name in names:
            traces[name] = spawn(
                name, args.seed, trace_out=OUT / f"trace-{name}.jsonl", smoke=args.smoke)
            print(f"  {name} traced", file=sys.stderr)

    results: dict = {"schema": 1, "header": head, "workloads": {}, "derived": {}}
    all_runs = {name: runs[name] + ([traces[name]] if name in traces else []) for name in names}
    family = check.family_violations(all_runs)
    attempted = failed = 0
    all_violations = list(family)
    for name in names:
        violations = violations_of(all_runs[name])
        broken = bool(check.repeat_violations(all_runs[name])) or (
            bool(family) and name in check.LU_FAMILY)
        a, f = check.tally(all_runs[name], broken)
        attempted, failed = attempted + a, failed + f
        all_violations += [f"{name}: {v}" for v in violations]
        good = ok_runs(runs[name])
        cells = summarise([end_to_end_of(r) for r in good])
        cells["failed_frac"] = summarise([{"failed_frac": (f / a, "frac")}])["failed_frac"]
        entry = {
            "why": wl.WORKLOADS[name].why,
            "fingerprint": good[0]["fingerprint"] if good else None,
            "end_to_end": cells,
            "violations": violations,
        }
        head["run_wall_s"][name] = [round(r.get("process_s", 0.0), 3) for r in all_runs[name]]
        trace_run = traces.get(name)
        if good and trace_run is not None and "crashed" not in trace_run:
            entry["per_layer"] = {
                k: {"value": v[0], "unit": v[1]}
                for k, v in sorted(per_layer_of(good, trace_run).items())
            }
            entry["spans"] = trace_run["spans"]
        results["workloads"][name] = entry

    serial = results["workloads"]["lu_default_serial"]["end_to_end"].get("tests_per_s")
    jobs2 = results["workloads"]["lu_default_jobs2"]["end_to_end"].get("tests_per_s")
    if serial and jobs2:
        jobs = wl.WORKLOADS["lu_default_jobs2"].jobs
        results["derived"]["exec.parallel_efficiency"] = {
            "value": jobs2["value"] / (jobs * serial["value"]), "unit": "frac"}

    names_e2e = [m["name"] for m in bench["end_to_end"]]
    if args.smoke:
        all_violations += check.schema_problems(results, names_e2e)
        for name in names:
            all_violations += check.trace_file_problems(OUT / f"trace-{name}.jsonl")
    results["attempted"], results["failed"] = attempted, failed
    results["violations"] = all_violations
    path = OUT / ("results-smoke.json" if args.smoke else "results.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_results(results)
    print(f"wrote {path.relative_to(ROOT)}")
    for v in all_violations:
        print(f"VIOLATION: {v}")
    return 1 if all_violations or failed else 0


def print_results(results: dict) -> None:
    """Every metric by name and unit, one block per workload."""
    for name, entry in results["workloads"].items():
        print(f"\n== {name}")
        for metric, c in entry["end_to_end"].items():
            print(f"  {metric:<28} {c['value']:>14.6g} {c['unit']:<6} (median {c['median']:.6g}, "
                  f"min {c['min']:.6g}, max {c['max']:.6g}, n={c['n']})")
        for metric, c in entry.get("per_layer", {}).items():
            print(f"  {metric:<28} {c['value']:>14.6g} {c['unit']}")
        for span, row in entry.get("spans", {}).items():
            print(f"  span {span:<23} n={row['n']:<5} total {row['total_s']:.3f} s  "
                  f"self {row['self_s']:.3f} s")
    for metric, c in results["derived"].items():
        print(f"\n{metric} = {c['value']:.4g} {c['unit']}")
    print(f"\nattempted {results['attempted']} tests, failed {results['failed']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m perf.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(wl.WORKLOADS),
                        help="driver mode: measure this one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=2015, help="campaign seed (default 2015)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: keep repeating the campaign for this long")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also (driver mode: only) run the traced pass")
    parser.add_argument("--repeats", type=int, default=5, help="matrix mode: runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="2 points x 4 tests, 1 repeat, traced; validates schema and spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf.run: no FastFIT sources at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    selected = [args.workload] if args.workload else list(wl.WORKLOADS)
    for name in selected:
        if wl.WORKLOADS[name].jobs > nproc:
            print(f"perf.run: {name} wants jobs={wl.WORKLOADS[name].jobs} but this machine "
                  f"has {nproc} core(s); refusing to oversubscribe", file=sys.stderr)
            return 2
    args.loadavg_start = os.getloadavg()[0]
    if args.loadavg_start > 0.5:
        print(f"perf.run: warning: load average {args.loadavg_start:.2f} > 0.5 at start; "
              "timings will be noisy", file=sys.stderr)
    if args.workload:
        if args.seconds is None:
            args.seconds = float(load_benchmark()["run_seconds"])
        return driver(args)
    return matrix(args)


if __name__ == "__main__":
    sys.exit(main())
