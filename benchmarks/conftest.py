"""Benchmark-harness hooks: observability fields in the emitted JSON.

Every benchmark record saved with ``--benchmark-json`` gains:

* ``wall_clock_s`` — total measured wall-clock across all rounds;
* ``tests_per_sec`` — injection-test throughput, for benchmarks that
  declared how many tests they ran via ``common.once(..., n_tests=N)``
  (or set ``benchmark.extra_info["n_tests"]`` themselves).

These fields live in each record's ``extra_info``, so downstream JSON
consumers need no schema change.
"""

from __future__ import annotations


def pytest_benchmark_update_json(config, benchmarks, output_json):
    for record in output_json.get("benchmarks", []):
        stats = record.get("stats") or {}
        extra = record.setdefault("extra_info", {})
        total = stats.get("total")
        if total is not None:
            extra["wall_clock_s"] = total
        n_tests = extra.get("n_tests")
        mean = stats.get("mean")
        if n_tests and mean:
            extra["tests_per_sec"] = n_tests / mean
