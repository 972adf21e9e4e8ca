"""Compare two results files of ``perf.run``.

    python3 -m perf.compare OLD.json NEW.json

One row per workload and metric, with the base (OLD's value), NEW's
value and the delta.  End-to-end rows get a verdict from the bounds in
``BENCHMARK.json``:

* ``worse`` / ``better`` — the value moved by more than the bound;
* ``same`` — it did not;
* ``unresolved`` — the spread of either side is wider than the bound and
  the two ranges overlap, so the runs cannot tell.  The range of a median
  is min..max; the range of a fastest-of-n timing is fastest..runner-up.

Counts that repeat exactly per seed (``tests_to_target``,
``accuracy_at_stop``) and ``failed_frac`` have bound 0; result
fingerprints must be equal when the seeds are.  Per-layer rows come from
a single traced run, so they are shown for attribution and never gate.
Exits non-zero on any ``worse`` or fingerprint mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .run import BEST_OF, load_benchmark

#: End-to-end metrics of the results file that BENCHMARK.json cannot
#: carry (they do not apply to every workload, or are 0 when healthy):
#: name -> (direction, bound).  ``time_to_target_s`` is a campaign wall
#: like ``tests_per_s`` and shares its bound.
RESULTS_ONLY = {
    "tests_to_target": ("lower", 0.0),
    "accuracy_at_stop": ("higher", 0.0),
    "failed_frac": ("lower", 0.0),
    "time_to_target_s": ("lower", None),
}


def interval(cell: dict, metric: str, better: str) -> tuple[float, float]:
    """The range a cell's value is known to.  A median sits somewhere in
    min..max; a fastest-of-n value (``run.BEST_OF``) is as good as its
    runner-up is close."""
    if metric in BEST_OF and cell["n"] > 1:
        first, second = sorted(cell["runs"], reverse=better == "higher")[:2]
        return min(first, second), max(first, second)
    return cell["min"], cell["max"]


def verdict(metric: str, old: dict, new: dict, better: str, bound: float) -> tuple[float, str]:
    """``(delta, verdict)``; delta is NEW over OLD minus one."""
    base = old["value"]
    delta = (new["value"] - base) / base if base else float(new["value"] != base)
    worse_by = delta if better == "lower" else -delta
    (olo, ohi), (nlo, nhi) = interval(old, metric, better), interval(new, metric, better)
    spread = max((ohi - olo) / abs(base) if base else 0.0,
                 (nhi - nlo) / abs(new["value"]) if new["value"] else 0.0)
    if spread > bound and olo <= nhi and nlo <= ohi:
        return delta, "unresolved"
    if worse_by > bound:
        return delta, "worse"
    if worse_by < -bound:
        return delta, "better"
    return delta, "same"


def compare(old: dict, new: dict, bench: dict) -> tuple[list[str], bool]:
    rules = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for name, (better, bound) in RESULTS_ONLY.items():
        rules[name] = (better, rules["tests_per_s"][1] if bound is None else bound)
    layer_better = {m["name"]: m["better"] for m in bench["per_layer"]}
    same_seed = old["header"]["seed"] == new["header"]["seed"]
    lines, bad = [], False
    for name, o in old["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            lines.append(f"{name}: missing from NEW")
            bad = True
            continue
        lines.append(f"\n== {name}")
        if same_seed:
            equal = o["fingerprint"] == n["fingerprint"]
            bad |= not equal
            lines.append(f"  {'fingerprint':<30} {'identical' if equal else 'DIFFERENT'}")
        for metric, oc in o["end_to_end"].items():
            nc = n["end_to_end"].get(metric)
            if nc is None or metric not in rules:
                continue
            delta, v = verdict(metric, oc, nc, *rules[metric])
            bad |= v == "worse"
            lines.append(
                f"  {metric:<30} {oc['value']:>12.5g} -> {nc['value']:>12.5g} {oc['unit']:<6}"
                f"{delta:>+9.1%}  {v}")
        for metric, oc in o.get("per_layer", {}).items():
            nc = n.get("per_layer", {}).get(metric)
            if nc is None:
                continue
            base = oc["value"]
            delta = (nc["value"] - base) / base if base else float(nc["value"] != base)
            lines.append(
                f"  {metric:<30} {base:>12.5g} -> {nc['value']:>12.5g} {oc['unit']:<6}"
                f"{delta:>+9.1%}  ({layer_better.get(metric, '?')} is better)")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf.compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    lines, bad = compare(old, new, load_benchmark())
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
