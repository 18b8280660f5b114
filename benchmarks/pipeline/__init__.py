"""The pipeline ledger: one benchmark for the §5 process flow.

Four workloads drive ``repro`` through its public API only; every
repetition is timed as a whole (end-to-end metrics, tracing off) and, in
a separate traced run, split into the ``repro.*`` layers it crosses.
``README.md`` in this directory has the metric and workload tables;
``BENCHMARK.json`` at the repo root is the contract the driver runs.
"""
