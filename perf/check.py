"""Output checks.  A run is one child process's JSON (see ``child.py``);
a run that breaks a rule fails every test it attempted, otherwise it
fails its TOOL_ERROR and missing tests.  ``failed_frac`` is failed over
attempted; any violation makes ``perf.run`` exit non-zero.
"""

from __future__ import annotations

import json

from . import trace
from . import workloads as wl

LU_FAMILY = ("lu_default_serial", "lu_scratch_serial", "lu_default_jobs2")
FAILURE_COUNTERS = ("exec.retries", "exec.worker_deaths", "exec.quarantined")


def run_violations(run: dict) -> list[str]:
    """Rules one run must keep on its own."""
    if "crashed" in run:
        return [f"run crashed: {run['crashed']}"]
    out = list(run["problems"])
    for name in FAILURE_COUNTERS:
        if run["layer"].get(name, (0, ""))[0]:
            out.append(f"{name} = {run['layer'][name][0]}, must be 0")
    facts = run["facts"]
    if facts:
        # The steering loop may end three ways; each has its own proof.
        reason, acc = facts["stop_reason"], facts["accuracy_at_stop"]
        if reason == "accuracy" and acc < wl.ACCURACY_TARGET:
            out.append(f"stopped on accuracy at {acc:.3f} < {wl.ACCURACY_TARGET}")
        elif reason == "budget" and run["tests"] > wl.STEER_BUDGET:
            out.append(f"budget stop after {run['tests']} tests > {wl.STEER_BUDGET}")
        elif reason not in ("accuracy", "budget", "exhausted"):
            out.append(f"unknown stop reason {reason!r}")
    return out


def repeat_violations(runs: list[dict]) -> list[str]:
    """Runs of one workload at one seed must agree test for test."""
    out = []
    by_seed: dict[int, dict] = {}
    for run in runs:
        if "crashed" in run:
            continue
        first = by_seed.setdefault(run["seed"], run)
        if (run["fingerprint"], run["tests"]) != (first["fingerprint"], first["tests"]):
            out.append(
                f"seed {run['seed']}: fingerprint/test count differ between repeats "
                f"({first['tests']} vs {run['tests']} tests)"
            )
    return out


def family_violations(runs_by_workload: dict[str, list[dict]]) -> list[str]:
    """The three class-T LU workloads share (app, points, seed, tests per
    point), so their result streams must be fingerprint-identical."""
    prints: dict[int, set] = {}
    for name in LU_FAMILY:
        for run in runs_by_workload.get(name, []):
            if "crashed" not in run:
                prints.setdefault(run["seed"], set()).add(run["fingerprint"])
    return [
        f"seed {seed}: {', '.join(LU_FAMILY)} disagree ({len(fps)} fingerprints)"
        for seed, fps in prints.items()
        if len(fps) > 1
    ]


def tally(runs: list[dict], broken: bool) -> tuple[int, int]:
    """``(attempted, failed)`` over the runs; ``broken`` fails them all
    (a cross-run rule was violated)."""
    sizes = [r["tests"] for r in runs if "crashed" not in r]
    attempted = failed = 0
    for run in runs:
        if "crashed" in run:
            n = max(sizes, default=1)
            attempted, failed = attempted + n, failed + n
            continue
        n = run["expected"] or run["tests"]
        attempted += n
        if broken or run_violations(run):
            failed += n
        else:
            failed += run["tool_errors"] + (n - run["tests"])
    return max(attempted, 1), failed


def trace_file_problems(path) -> list[str]:
    """Re-read a written span file and validate the tree."""
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    if not spans:
        return [f"{path}: no spans"]
    return [f"{path}: {p}" for p in trace.validate(spans)]


def schema_problems(results: dict, end_to_end: list[str]) -> list[str]:
    """The results file holds what ``compare`` and a reader rely on."""
    out = []
    for key in ("commit", "nproc", "cpu_model", "python", "numpy", "platform",
                "loadavg_start", "repeats", "seed", "run_wall_s"):
        if key not in results.get("header", {}):
            out.append(f"header lacks {key!r}")
    for name in wl.WORKLOADS:
        entry = results.get("workloads", {}).get(name)
        if entry is None:
            out.append(f"workload {name} missing")
            continue
        for metric in end_to_end:
            cell = entry["end_to_end"].get(metric, {})
            if not all(isinstance(cell.get(k), (int, float)) for k in ("value", "min", "max", "n")):
                out.append(f"{name}.{metric}: needs numeric value/min/max/n")
            elif not isinstance(cell.get("unit"), str):
                out.append(f"{name}.{metric}: needs a unit")
        for metric, cell in entry.get("per_layer", {}).items():
            if not isinstance(cell.get("value"), (int, float)) or not isinstance(cell.get("unit"), str):
                out.append(f"{name}.{metric}: needs numeric value and unit")
    return out
