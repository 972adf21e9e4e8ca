"""The layered FastFIT benchmark: six workloads, end-to-end and per-layer
metrics, and a traced run.  See ``perf/README.md``; entry point
``python3 -m perf.run``."""
