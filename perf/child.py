"""One measured run of one workload, in a fresh interpreter.

Users pay a cold start per ``fastfit run``, and fork cost tracks the
parent's resident set, so every measured campaign gets its own process:
``import repro`` -> set-up -> the campaign call -> checks.  Prints one
JSON object as the last line of standard output.  With ``--trace-out``
the campaign is the traced variant and the per-layer probes follow it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

from . import probes, trace
from . import workloads as wl


def _cpu_s() -> float:
    """User + system CPU of this process and its waited-for children
    (``getrusage``: ``os.times`` only ticks every 10 ms)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; children = the largest waited-for child.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def registry_metrics(inputs: wl.Inputs, wall_s: float, facts: dict) -> probes.Metrics:
    """Per-layer numbers the program already counts, read from the
    ``MetricsRegistry`` the harness passed in through ``metrics=``."""
    reg = inputs.ff.metrics.to_dict()
    counters, timers = reg["counters"], reg["timers"]

    def timer_total(name: str) -> float:
        return timers.get(name, {}).get("total", 0.0)

    out: probes.Metrics = {
        f"snapshot.{name}": (counters.get(f"snapshot.{name}", 0), "count")
        for name in ("forks", "hits", "misses", "fallback_tests")
    }
    out["snapshot.cache_bytes"] = (reg["gauges"].get("snapshot.bytes", 0.0), "bytes")
    out["snapshot.fastforward_s"] = (timer_total("snapshot.fastforward_s"), "s")
    for name in ("retries", "worker_deaths", "quarantined"):
        out[f"exec.{name}"] = (counters.get(f"exec.{name}", 0), "count")
    if "exec.unit_s" in timers:
        out["exec.busy_frac"] = (
            timer_total("exec.unit_s") / (inputs.workload.jobs * wall_s), "frac")
    if inputs.workload.steer:
        out["steer.rounds"] = (facts["rounds"], "count")
        out["steer.tests_saved"] = (facts["tests_saved"], "count")
        out["steer.driver_self_s"] = (wall_s - timer_total("campaign.point_s"), "s")
    return out


def run_probes(inputs: wl.Inputs, rec: trace.Recorder, smoke: bool, import_s: float,
               wall_s: float, tested: dict, executed: list, tmp_dir: str) -> probes.Metrics:
    layers = inputs.workload.layers
    budget = probes.Budget(smoke)
    out: probes.Metrics = {"repro.import_ms": (import_s * 1e3, "ms")}

    def probe(name: str, fn, *args) -> None:
        with rec.span(f"probe.{name}"):
            out.update(fn(*args))

    probe("profiling", probes.profiling_and_pruning, inputs)
    probe("simmpi", probes.simmpi, inputs, budget)
    probe("injection", probes.injection, inputs, budget, out["simmpi.golden_run_ms_p50"][0])
    probe("exec", probes.execution, inputs, budget, "pool" in layers)
    if "snapshot" in layers:
        probe("snapshot", probes.snapshot, inputs, budget)
    if "store" in layers:
        probe("store", probes.store, inputs, executed, wall_s, tmp_dir)
    if "steer" in layers:
        probe("steer", probes.ml_and_steer, inputs, tested, budget)
    probe("obs", probes.obs, inputs, budget)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True, help="scratch directory, removed at exit")
    parser.add_argument("--spawned-at", type=float, default=time.time(),
                        help="time.time() when the parent started this process")
    parser.add_argument("--trace-out", default=None, help="run traced; write spans here")
    parser.add_argument("--spot", type=int, default=0,
                        help="tests to re-run through the scratch reference path")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    w = wl.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import repro  # noqa: F401 - timed: the cold start every run pays

    import_s = time.perf_counter() - t0
    os.makedirs(args.tmp, exist_ok=True)
    try:
        inputs = wl.setup(w, args.seed, args.smoke, args.tmp)
        setup_s = time.time() - args.spawned_at

        rec = trace.Recorder(w.name)
        executed: list = []
        cpu0, t0 = _cpu_s(), time.perf_counter()
        if args.trace_out:
            with rec.span(w.name):
                stream, facts, executed = wl.run_traced(inputs, rec)
        else:
            stream, facts = wl.run(inputs)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        rss_mb = _peak_rss_mb()

        tested = facts.pop("tested", {})
        problems = wl.spot_check(inputs, stream, args.spot)
        if args.trace_out:
            layer = run_probes(
                inputs, rec, args.smoke, import_s, wall_s, tested, executed, args.tmp)
            problems += trace.validate(rec.spans)
            rec.write(args.trace_out)
        else:
            layer = registry_metrics(inputs, wall_s, facts)
        result = {
            "workload": w.name,
            "seed": args.seed,
            "traced": bool(args.trace_out),
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": rss_mb,
            "tests": len(stream),
            "expected": inputs.expected_tests,
            "tool_errors": sum(1 for row in stream if row[3].outcome.name == "TOOL_ERROR"),
            "fingerprint": wl.stream_fingerprint(stream),
            "facts": facts,
            "layer": layer,
            "spans": trace.by_name(rec.spans),
            "problems": problems,
        }
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
