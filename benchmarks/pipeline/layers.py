"""Where the benchmark puts spans: ``repro``'s public entry points.

One span name per layer boundary.  Time spent in private helpers, in
catalog subscribers and in the instrumentation itself is charged to
the innermost public call that encloses it; time under no span at all
is the workload's ``unattributed_s``.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from benchmarks.pipeline.trace import (
    Patch,
    Tracer,
    first_call,
    patch_function,
    patch_method,
)


def _digest_bytes(args: tuple, _result: Any) -> dict[str, float]:
    return {"durability.digest.bytes": float(os.stat(args[0]).st_size)}


def _journal_commit(_args: tuple, _result: Any) -> dict[str, float]:
    return {"durability.journal.commits": 1.0}


def install(tracer: Tracer) -> list[Patch]:
    """Wrap every entry point listed below; returns the undo list for
    :func:`benchmarks.pipeline.trace.unpatch`."""
    from repro.analysis.incremental import IncrementalAnalyzer
    from repro.catalog.base import VirtualDataCatalog
    from repro.catalog.filetree import FileTreeCatalog
    from repro.catalog.sqlite import SQLiteCatalog
    from repro.durability import checksum
    from repro.durability.journal import IntentJournal
    from repro.durability.recovery import RecoveryManager
    from repro.estimator.cost import Estimator
    from repro.executor.grid_executor import GridExecutor
    from repro.executor.local import LocalExecutor
    from repro.grid.gram import GridExecutionService
    from repro.grid.simulator import Simulator
    from repro.observability import analysis as obs_analysis
    from repro.observability import export as obs_export
    from repro.observability.recorder import FlightRecorder
    from repro.planner.dag import Frontier, Plan, Planner
    from repro.planner.scheduler import WorkflowScheduler
    from repro.planner.strategies import SiteSelector
    from repro.provenance import lineage
    from repro.provenance.graph import DerivationGraph
    from repro.resilience.faults import FaultInjector
    from repro.vdl import parser, semantics

    undo: list[Patch] = []

    def span(name) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.wrap(name, fn)

    def methods(owner: type, name, *attrs: str) -> None:
        for attr in attrs:
            undo.extend(patch_method(owner, attr, span(name)))

    def function(func: Callable, name: str, measure=None) -> None:
        undo.extend(
            patch_function(func, lambda fn: tracer.wrap(name, fn, measure))
        )

    # vdl
    function(parser.parse, "vdl.parse")
    function(semantics.analyze, "vdl.analyze")

    # catalog
    methods(VirtualDataCatalog, "catalog.define", "define")
    methods(VirtualDataCatalog, "catalog.add_derivation", "add_derivation")
    methods(VirtualDataCatalog, "catalog.add_dataset", "add_dataset")
    methods(VirtualDataCatalog, "catalog.add_replica", "add_replica")
    methods(VirtualDataCatalog, "catalog.add_invocation", "add_invocation")
    methods(
        VirtualDataCatalog, "catalog.read",
        "get_dataset", "get_replica", "get_transformation", "get_derivation",
        "get_invocation", "replicas_of", "producers_of", "consumers_of",
        "invocations_of",
    )
    methods(VirtualDataCatalog, "catalog.find_datasets", "find_datasets")
    undo.extend(
        patch_method(
            VirtualDataCatalog, "transaction",
            lambda fn: tracer.wrap_context("catalog.commit", fn),
        )
    )
    methods(SQLiteCatalog, "catalog.open", "__init__")
    methods(FileTreeCatalog, "catalog.open", "__init__")

    # provenance
    methods(DerivationGraph, "provenance.graph_build", "from_catalog")
    function(lineage.lineage_report, "provenance.lineage")

    # planner
    methods(Planner, first_call("planner.plan_cold", "planner.replan"), "plan")
    methods(Frontier, "planner.frontier", "__init__", "ready", "complete")
    methods(Plan, "planner.topo", "topological_order")
    methods(WorkflowScheduler, "planner.scheduler", "run")
    methods(SiteSelector, "planner.select_site", "choose")

    # estimator
    methods(
        Estimator, "estimator.estimate",
        "estimate_derivation", "estimate_output_bytes",
    )

    # executor (registered bodies are wrapped by the workloads)
    methods(LocalExecutor, "executor.materialize", "materialize")
    methods(GridExecutor, "executor.materialize", "materialize")
    methods(LocalExecutor, "executor.execute", "execute")

    # grid and resilience
    methods(GridExecutionService, "grid.submit", "submit")
    methods(Simulator, "grid.sim_run", "run")
    methods(
        FaultInjector, "resilience.inject",
        "outage", "outage_overlapping", "next_outage_end", "site_down",
        "run_fault", "slowdown", "transfer_fault", "job_fault",
        "corrupt_output",
    )

    # durability
    methods(
        IntentJournal, "durability.journal",
        "begin", "record", "checkpoint", "close", "scan",
    )
    undo.extend(
        patch_method(
            IntentJournal, "commit",
            lambda fn: tracer.wrap("durability.journal", fn, _journal_commit),
        )
    )
    function(checksum.file_digest, "durability.digest", _digest_bytes)
    function(checksum.verify_file, "durability.digest")
    methods(RecoveryManager, "durability.fsck", "fsck")

    # analysis
    methods(IncrementalAnalyzer, "analysis.cold", "__init__")
    methods(
        IncrementalAnalyzer,
        first_call("analysis.cold", "analysis.incremental"),
        "diagnostics",
    )

    # observability
    methods(
        FlightRecorder, "observability.record",
        "__init__", "event", "sample", "plan", "invocation", "step",
        "finalize",
    )
    function(obs_export.write_snapshot, "observability.record")
    function(obs_analysis.compute_slack, "observability.slack")
    return undo
