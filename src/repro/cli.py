"""Command-line interface to a persistent virtual data workspace.

Gives the virtual data catalog the ``make``-like ergonomics the paper
gestures at ("the similarity of our system for tracking data
dependencies and those for tracking code ... e.g., 'make'", §8)::

    python -m repro init
    python -m repro define pipeline.vdl
    python -m repro lint pipeline.vdl   # or bare: lint the workspace
    python -m repro list derivations
    python -m repro plan result.dat
    python -m repro materialize result.dat
    python -m repro lineage result.dat
    python -m repro invalidate --dataset raw.dat
    python -m repro export --format vdl
    python -m repro stats            # metrics from the last run
    python -m repro trace            # span tree from the last run
    python -m repro runs             # list recorded runs
    python -m repro runs prune --keep 20
    python -m repro diff RUN_A RUN_B # run-over-run comparison
    python -m repro regress          # latest run vs pooled baseline
    python -m repro health           # per-site SLO scorecards
    python -m repro metrics --openmetrics  # scrapeable exposition

State lives in a :class:`~repro.catalog.filetree.FileTreeCatalog`
under ``.vdg/catalog`` plus a ``.vdg/sandbox`` for materialized files,
so every command sees the same workspace across invocations.
Transformations whose executables exist on this machine really run
(via the local executor's subprocess path).

Commands that execute work (``materialize``, ``run``) are traced: the
span tree and metrics snapshot of each run are written under
``.vdg/observability`` for ``stats`` and ``trace`` to read back.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from typing import Optional

from repro.catalog.filetree import FileTreeCatalog
from repro.durability.atomic import atomic_write_json
from repro.durability.journal import IntentJournal
from repro.durability.recovery import RecoveryManager
from repro.errors import VDLSemanticError, VDLSyntaxError, VirtualDataError
from repro.executor.local import LocalExecutor
from repro.observability import (
    FlightRecorder,
    HistoryStore,
    Instrumentation,
    ProgressSink,
    ProgressTicker,
    RunRecord,
    SamplingProfiler,
    chrome_trace,
    diff_records,
    find_run,
    grid_health,
    health_metrics,
    list_runs,
    openmetrics_snapshot,
    prune_runs,
    read_snapshot,
    regression_report,
    render_metrics,
    render_profile,
    render_report,
    render_span_tree,
    report_dict,
    validate_openmetrics,
    write_snapshot,
)
from repro.observability.health import SLOPolicy
from repro.provenance.invalidation import invalidated_by
from repro.provenance.lineage import lineage_report

DEFAULT_WORKSPACE = ".vdg"


class Workspace:
    """One on-disk virtual data workspace."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.catalog_dir = self.root / "catalog"
        self.sandbox_dir = self.root / "sandbox"
        self.observability_dir = self.root / "observability"
        self.runs_dir = self.root / "runs"
        self.journal_dir = self.root / "journal"
        self.quarantine_dir = self.root / "quarantine"
        self.rescue_dir = self.root / "rescue"
        self.history_path = self.root / "history.sqlite"

    @property
    def exists(self) -> bool:
        return self.catalog_dir.is_dir()

    def create(self) -> None:
        self.catalog_dir.mkdir(parents=True, exist_ok=True)
        self.sandbox_dir.mkdir(parents=True, exist_ok=True)

    def catalog(self) -> FileTreeCatalog:
        if not self.exists:
            raise VirtualDataError(
                f"no workspace at {self.root}; run 'init' first"
            )
        catalog = FileTreeCatalog(self.catalog_dir)
        # Journaled commits: executors wrap provenance write-back in
        # catalog.transaction(), so a kill mid-commit is recoverable —
        # 'fsck' (or the preflight) rolls the partial batch back.
        catalog.attach_journal(
            IntentJournal(self.journal_dir, instrumentation=catalog.obs)
        )
        return catalog

    def executor(
        self, instrumentation: Optional[Instrumentation] = None
    ) -> LocalExecutor:
        return LocalExecutor(
            self.catalog(),
            self.sandbox_dir,
            instrumentation=instrumentation,
            quarantine_dir=self.quarantine_dir,
        )

    def recovery(self, catalog=None, instrumentation=None) -> RecoveryManager:
        """A RecoveryManager over this workspace's stores."""
        return RecoveryManager(
            catalog if catalog is not None else self.catalog(),
            sandbox_dir=self.sandbox_dir,
            journal_dir=self.journal_dir,
            rescue_dir=self.rescue_dir,
            runs_dir=self.runs_dir,
            quarantine_dir=self.quarantine_dir,
            instrumentation=instrumentation,
        )

    def save_snapshot(self, obs: Instrumentation) -> None:
        """Persist this run's spans + metrics for ``stats``/``trace``."""
        write_snapshot(obs, self.observability_dir)

    def load_snapshot(self):
        if not self.observability_dir.is_dir():
            raise VirtualDataError(
                f"no observability snapshot under {self.root}; run "
                "'materialize' or 'run' first"
            )
        return read_snapshot(self.observability_dir)

    def start_recorder(self, command: str) -> FlightRecorder:
        """Open a new flight record under ``<workspace>/runs/``."""
        return FlightRecorder.start(self.runs_dir, command=command)

    def list_runs(self) -> list[RunRecord]:
        return list_runs(self.runs_dir)

    def load_run(self, run_id: str) -> RunRecord:
        try:
            return find_run(self.runs_dir, run_id)
        except FileNotFoundError as exc:
            raise VirtualDataError(str(exc)) from None

    def history(self, ingest: bool = True) -> HistoryStore:
        """The workspace's run-history metastore.

        With ``ingest`` (the default), every new or changed flight
        record under ``runs/`` is pulled in first, so queries always
        see current history.
        """
        if not self.exists:
            raise VirtualDataError(
                f"no workspace at {self.root}; run 'init' first"
            )
        store = HistoryStore(self.history_path)
        if ingest:
            store.ingest_dir(self.runs_dir)
        return store


def _cmd_init(ws: Workspace, args, out) -> int:
    ws.create()
    out(f"initialized virtual data workspace at {ws.root}")
    return 0


def _cmd_define(ws: Workspace, args, out) -> int:
    source = Path(args.file).read_text()
    catalog = ws.catalog()
    before = catalog.counts()
    try:
        catalog.define(source, replace=args.replace)
    except (VDLSyntaxError, VDLSemanticError) as exc:
        # Front-end errors carry positions: render them compiler-style.
        location = f"{args.file}:{exc.line}" if exc.line else args.file
        out(f"{location}: error: {exc.bare_message}")
        return 1
    after = catalog.counts()
    added = {k: after[k] - before[k] for k in after if after[k] != before[k]}
    out(f"defined {added or 'nothing new'} from {args.file}")
    return 0


def _cmd_lint(ws: Workspace, args, out) -> int:
    """Whole-program static analysis (``docs/LINTING.md`` has the codes)."""
    from repro.analysis import Linter, default_rules
    from repro.analysis.reporters import exit_code, render_json, render_text

    registry = default_rules()
    if args.no_rule:
        registry.disable(*args.no_rule)
    obs = Instrumentation()
    linter = Linter(registry=registry, obs=obs)
    if args.files:
        results = [linter.lint_file(path) for path in args.files]
    else:
        results = [
            linter.lint_catalog(ws.catalog(), incremental=args.incremental)
        ]
    if ws.exists:
        ws.save_snapshot(obs)
    render = render_json if args.format == "json" else render_text
    for result in results:
        out(render(result))
    codes = [exit_code(r) for r in results]
    if 1 in codes:
        return 1
    if 2 in codes:
        return 2
    return 0


def _cmd_analyze(ws: Workspace, args, out) -> int:
    """Whole-graph dataflow analysis over the workspace catalog."""
    from repro.analysis.linter import LintResult
    from repro.analysis.reporters import exit_code, render_json, render_text

    obs = Instrumentation()
    catalog = ws.catalog()
    analyzer = catalog.live_analyzer()
    analyzer.obs = obs  # surface solver spans in `repro trace`/`stats`
    try:
        diagnostics = analyzer.diagnostics(passes=args.passes)
    except KeyError as exc:
        out(f"analyze: {exc.args[0]}")
        return 1
    result = LintResult(file=analyzer.file, diagnostics=diagnostics)
    if ws.exists:
        ws.save_snapshot(obs)
    render = render_json if args.format == "json" else render_text
    out(render(result))
    if args.stats:
        stats = analyzer.stats()
        out(
            f"graph: {stats['nodes']} nodes "
            f"({stats['derivations']} derivations), "
            f"{stats['events']} events observed, "
            f"{stats['solves']} solves"
        )
        for name, info in sorted(stats["passes"].items()):
            out(
                f"  {name}: mode={info['mode']} seeds={info['seeds']} "
                f"visited={info['visited']} changed={info['changed']}"
            )
    return exit_code(result)


def _cmd_list(ws: Workspace, args, out) -> int:
    catalog = ws.catalog()
    kind = args.kind
    if kind == "datasets":
        for ds in catalog.datasets():
            state = "virtual" if ds.is_virtual else "materialized"
            producer = f" <- {ds.producer}" if ds.producer else ""
            out(f"{ds.name}  [{state}]{producer}")
    elif kind == "transformations":
        for tr in catalog.transformations():
            shape = "compound" if tr.is_compound else "simple"
            out(f"{tr.qualified_name}  [{shape}] "
                f"({tr.signature.type_signature()})")
    elif kind == "derivations":
        for dv in catalog.derivations():
            out(f"{dv.name} -> {dv.transformation.vdl_text()} "
                f"(in: {', '.join(dv.inputs()) or '-'}; "
                f"out: {', '.join(dv.outputs()) or '-'})")
    elif kind == "invocations":
        for iid in catalog.invocation_ids():
            out(str(catalog.get_invocation(iid)))
    return 0


def _cmd_plan(ws: Workspace, args, out) -> int:
    from repro.planner.dag import Planner
    from repro.planner.request import MaterializationRequest

    obs = Instrumentation()
    if getattr(args, "profile", False):
        profiler = SamplingProfiler(memory=True)
        obs.attach_profiler(profiler)
        profiler.start()
    catalog = ws.catalog()
    if args.strict:
        from repro.analysis import Linter

        # The incremental path reuses (or seeds) the catalog's live
        # analysis context instead of re-exporting and re-parsing.
        with obs.phase("analyze"):
            result = Linter().lint_catalog(catalog, incremental=True)
        if result.errors:
            for diag in result.errors:
                out(diag.render())
            out(
                f"plan aborted: {len(result.errors)} lint error(s) in the "
                f"catalog (run 'lint' for details, or drop --strict)"
            )
            _finish_profile(obs, None, out)
            return 1
    executor = ws.executor()
    planner = Planner(catalog, has_replica=executor.is_materialized)
    with obs.phase("plan"):
        plan = planner.plan(
            MaterializationRequest(targets=(args.dataset,), reuse=args.reuse)
        )
    _finish_profile(obs, None, out)
    if not plan.steps:
        out(f"{args.dataset}: nothing to do "
            f"(reused: {', '.join(sorted(plan.reused)) or 'n/a'})")
        return 0
    out(f"plan for {args.dataset}: {len(plan)} steps, depth {plan.depth()}")
    for name in plan.topological_order():
        step = plan.steps[name]
        deps = ", ".join(sorted(plan.dependencies[name])) or "-"
        out(f"  {name}: {step.transformation.name} (after: {deps})")
    return 0


def _instrument_run(ws: Workspace, command: str, args):
    """Build the (obs, recorder, ticker) triple for an executing command.

    Recording is on by default (``--no-record`` opts out); the live
    progress ticker and the sampling profiler are opt-in
    (``--progress``, ``--profile``).
    """
    from contextlib import nullcontext

    obs = Instrumentation()
    recorder = None
    if not getattr(args, "no_record", False):
        recorder = ws.start_recorder(command)
        obs.attach_recorder(recorder)
    ticker = nullcontext()
    if getattr(args, "progress", False):
        sink = ProgressSink()
        obs.attach_progress(sink)
        ticker = ProgressTicker(sink)
    if getattr(args, "profile", False):
        profiler = SamplingProfiler(memory=True)
        obs.attach_profiler(profiler)
        profiler.start()
    return obs, recorder, ticker


def _finish_profile(obs, recorder, out) -> None:
    """Stop an attached profiler, persist and render its profile."""
    profiler = getattr(obs, "profiler", None)
    if profiler is None:
        return
    if profiler.running:
        profiler.stop()
    profile = profiler.to_dict()
    if recorder is not None:
        recorder.profile(profile)
    out(render_profile(profile))


def _finalize_run(ws: Workspace, obs, recorder, out, status, **fields) -> None:
    # The profile line must land before finalize (finalize seals the
    # record), so stop the profiler first.
    _finish_profile(obs, recorder, out)
    ws.save_snapshot(obs)
    if recorder is not None:
        recorder.finalize(obs, status=status, **fields)
        out(f"run record: {recorder.run_id}")


def _cmd_fsck(ws: Workspace, args, out) -> int:
    """Reconcile catalog, sandbox files, journal, rescues and records.

    Exit 0 when the workspace is clean (or every finding was repaired),
    2 when unrepaired error-severity corruption remains — mirroring
    classic fsck semantics so scripts and CI can gate on it.
    """
    import json

    obs = Instrumentation()
    catalog = ws.catalog()
    recovery = ws.recovery(catalog=catalog, instrumentation=obs)
    report = recovery.fsck(
        checksums=not args.no_checksums, repair=args.repair
    )
    if ws.exists:
        ws.save_snapshot(obs)
    if args.format == "json":
        out(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        out(report.render())
    return 2 if report.corrupted else 0


def _preflight(ws: Workspace, args, out) -> Optional[int]:
    """Cheap consistency check before an executing command.

    Journal findings repair themselves (that *is* crash recovery);
    anything worse refuses the run with exit 2 so a half-committed
    catalog is never planned against.  ``--no-verify`` skips it.
    """
    if getattr(args, "no_verify", False) or not ws.exists:
        return None
    catalog = ws.catalog()
    report = ws.recovery(catalog=catalog).preflight()
    repaired = [f for f in report.findings if f.repaired]
    if repaired:
        out(
            f"recovered from crash: {len(repaired)} journal "
            f"finding(s) repaired (see 'fsck' for details)"
        )
    if report.corrupted:
        for finding in report.unrepaired("error"):
            out(finding.render())
        out(
            "workspace failed its consistency preflight; run "
            "'fsck --repair' (or pass --no-verify to proceed anyway)"
        )
        return 2
    return None


def _cmd_materialize(ws: Workspace, args, out) -> int:
    return _materialize_local(
        ws, args.dataset, args.reuse, getattr(args, "workers", 1), out,
        args=args, backend=getattr(args, "backend", "thread"),
    )


def _materialize_local(
    ws: Workspace, dataset: str, reuse: str, workers: int, out, args=None,
    backend: str = "thread",
) -> int:
    blocked = _preflight(ws, args, out)
    if blocked is not None:
        return blocked
    obs, recorder, ticker = _instrument_run(
        ws, f"materialize {dataset}", args
    )
    executor = ws.executor(instrumentation=obs)
    status = "error"
    try:
        with ticker:
            invocations = executor.materialize(
                dataset, reuse=reuse, workers=workers, backend=backend
            )
        status = "ok"
    finally:
        _finalize_run(ws, obs, recorder, out, status)
    if not invocations:
        out(f"{dataset} is already materialized")
    for inv in invocations:
        out(f"ran {inv.derivation_name}: {inv.status} "
            f"({inv.usage.wall_seconds * 1e3:.1f} ms)")
    path = executor.path_for(dataset)
    if path.exists():
        out(f"{dataset} -> {path} ({path.stat().st_size} bytes)")
    return 0


def _cmd_run(ws: Workspace, args, out) -> int:
    """Ad-hoc execution: synthesize and run a derivation (§5.1).

    With ``--target`` the command instead materializes a dataset on a
    simulated grid (``--grid``), with optional fault injection
    (``--fault-plan``, ``--failure-rate``), recovery knobs
    (``--failure-policy``, ``--step-timeout``) and rescue-file resume
    (``--rescue``, ``--kill-at``).
    """
    from repro.executor.session import InteractiveSession

    if args.target:
        if args.grid == "local":
            # Local mode: the in-process executor's thread pool stands
            # in for the grid; --workers sizes it.
            return _materialize_local(
                ws, args.target, "always", args.workers, out, args=args,
                backend=getattr(args, "backend", "thread"),
            )
        return _cmd_run_grid(ws, args, out)
    if not args.transformation:
        out("error: provide a transformation name, or --target DATASET "
            "for a grid workflow run")
        return 1
    blocked = _preflight(ws, args, out)
    if blocked is not None:
        return blocked
    obs, recorder, _ = _instrument_run(
        ws, f"run {args.transformation}", args
    )
    executor = ws.executor(instrumentation=obs)
    session = InteractiveSession(executor, prefix=args.session)
    # Continue numbering from previous CLI invocations of this session.
    existing = [
        name
        for name in executor.catalog.derivation_names()
        if name.startswith(f"{args.session}.")
    ]
    session._counter = len(existing)
    bindings = {}
    for binding in args.binding:
        if "=" not in binding:
            out(f"error: binding {binding!r} is not name=value")
            return 1
        key, _, value = binding.partition("=")
        bindings[key] = value
    status = "error"
    try:
        outputs = session.run(args.transformation, **bindings)
        status = "ok"
    finally:
        _finalize_run(ws, obs, recorder, out, status)
    entry = session.log[-1]
    out(f"ran {entry.derivation.name}: {entry.invocation.status}")
    for name in outputs:
        path = executor.path_for(name)
        out(f"  {name} -> {path} ({path.stat().st_size} bytes)")
    return 0


def _parse_grid(spec: str) -> dict[str, int]:
    """Parse ``site=hosts,site=hosts`` grid specs."""
    sites: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition("=")
        try:
            sites[name.strip()] = int(count) if count else 4
        except ValueError:
            raise VirtualDataError(
                f"bad --grid entry {part!r}; expected site=hosts"
            ) from None
    if not sites:
        raise VirtualDataError("--grid needs at least one site=hosts entry")
    return sites


def _cmd_run_grid(ws: Workspace, args, out) -> int:
    """Materialize ``--target`` on a simulated grid with recovery."""
    from repro.errors import WorkflowError
    from repro.resilience import FaultPlan, RecoveryConfig, RescueFile
    from repro.system import VirtualDataSystem

    blocked = _preflight(ws, args, out)
    if blocked is not None:
        return blocked
    sites = _parse_grid(args.grid)
    fault_plan = FaultPlan.load(args.fault_plan) if args.fault_plan else None
    recovery = RecoveryConfig.hardened(
        seed=args.seed,
        failure_policy=args.failure_policy,
        step_timeout=args.step_timeout,
    )
    obs, recorder, ticker = _instrument_run(
        ws, f"run --target {args.target} --grid {args.grid}", args
    )
    vds = VirtualDataSystem.with_grid(
        sites,
        catalog=ws.catalog(),
        failure_rate=args.failure_rate,
        seed=args.seed,
        instrumentation=obs,
        fault_plan=fault_plan,
        recovery=recovery,
    )
    vds.executor.max_retries = args.max_retries

    # Raw sources must pre-exist on the grid: seed them at the first
    # site using catalog size estimates.
    preview = vds.plan(args.target, pattern=args.pattern)
    seed_site = sorted(sites)[0]
    for name in sorted(preview.sources | preview.reused):
        size = 1_000_000
        if vds.catalog.has_dataset(name):
            size = vds.catalog.get_dataset(name).size_estimate(
                default=1_000_000
            )
        vds.seed_dataset(name, seed_site, size)

    resume = args.rescue is not None
    rescue_path = (
        Path(args.rescue)
        if args.rescue
        else ws.rescue_dir / f"{args.target}.rescue.json"
    )
    base = None
    if resume and rescue_path.exists():
        base = RescueFile.load(rescue_path)
        out(f"resuming from rescue file {rescue_path} "
            f"({len(base.completed)} completed steps recorded)")

    status = 0
    result = None
    try:
        with ticker:
            result = vds.materialize(
                args.target,
                pattern=args.pattern,
                rescue=base,
                until=args.kill_at,
            )
    except WorkflowError as exc:
        out(exc.render_summary())
        result = exc.result
        status = 1
    finally:
        fields = {}
        if result is not None:
            fields["makespan"] = result.makespan
            fields["failed_steps"] = sorted(result.failed_steps)
            fields["interrupted"] = result.interrupted
        _finalize_run(
            ws, obs, recorder, out,
            status="ok" if status == 0 and result is not None else "error",
            **fields,
        )

    if result is None:
        return status
    restore = vds.executor.last_restore
    if restore is not None and restore.quarantined:
        for lfn, site in restore.quarantined:
            out(f"quarantined corrupt replica {lfn} at {site}")
    if result.succeeded:
        resumed = len(result.pre_completed)
        retried = sum(
            o.attempts - 1 for o in result.outcomes.values() if o.attempts > 1
        )
        notes = []
        if resumed:
            notes.append(f"{resumed} resumed from rescue")
        if retried:
            notes.append(f"{retried} retried attempt(s) recovered")
        suffix = f" ({'; '.join(notes)})" if notes else ""
        out(f"materialized {args.target}: {len(result.outcomes)} steps, "
            f"makespan {result.makespan:.1f}s{suffix}")
    elif result.interrupted:
        finished = len(result.outcomes) + len(result.pre_completed)
        out(f"run killed at t={args.kill_at:g}: {finished} of "
            f"{len(result.plan.steps)} steps finished")
    if not result.succeeded or resume:
        rescue = vds.executor.rescue_file(result, base=base)
        rescue_path.parent.mkdir(parents=True, exist_ok=True)
        rescue.save(rescue_path)
        out(f"rescue file written to {rescue_path} "
            f"(resume with --target {args.target} --rescue)")
    return status


def _cmd_lineage(ws: Workspace, args, out) -> int:
    report = lineage_report(ws.catalog(), args.dataset)
    out(report.render())
    return 0


def _cmd_invalidate(ws: Workspace, args, out) -> int:
    report = invalidated_by(
        ws.catalog().derivation_graph(),
        bad_datasets=args.dataset or (),
        bad_transformations=args.transformation or (),
    )
    out(f"tainted datasets ({len(report.tainted_datasets)}):")
    for name in sorted(report.tainted_datasets):
        out(f"  {name}")
    out(f"derivations to re-run ({len(report.rerun_derivations)}):")
    for name in sorted(report.rerun_derivations):
        out(f"  {name}")
    return 0


def _cmd_export(ws: Workspace, args, out) -> int:
    catalog = ws.catalog()
    if args.format == "vdl":
        out(catalog.export_vdl())
    else:
        from repro.vdl.xml_io import to_xml

        out(
            to_xml(
                list(catalog.transformations()), list(catalog.derivations())
            )
        )
    return 0


def _render_run_list(ws: Workspace, out) -> int:
    runs = ws.list_runs()
    if not runs:
        out(f"no recorded runs under {ws.runs_dir}")
        return 0
    out("available runs (oldest first):")
    for record in runs:
        command = f"  command={record.command}" if record.command else ""
        out(f"  {record.run_id}  status={record.status}{command}")
    return 0


def _cmd_stats(ws: Workspace, args, out) -> int:
    """Metrics from the last run, or from a recorded run (``--run``)."""
    import json

    if args.run == "":
        return _render_run_list(ws, out)
    if args.run is not None:
        record = ws.load_run(args.run)
        if args.format == "prom":
            out("error: --format prom needs the live snapshot; run "
                "'stats' without --run")
            return 1
        if args.format == "json":
            out(json.dumps(record.metrics, indent=2, sort_keys=True))
        else:
            rendered = render_metrics(record.metrics)
            out(rendered if rendered else "no metrics recorded")
        return 0
    _, metrics, prom = ws.load_snapshot()
    if args.format == "prom":
        out(prom.rstrip("\n"))
    elif args.format == "json":
        out(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        rendered = render_metrics(metrics)
        out(rendered if rendered else "no metrics recorded")
    return 0


def _cmd_trace(ws: Workspace, args, out) -> int:
    """Span tree from the last run; ``--run`` selects a recorded run,
    ``--chrome`` exports a Perfetto-loadable Chrome trace instead."""
    import json

    if args.run == "":
        return _render_run_list(ws, out)
    if args.chrome:
        record = ws.load_run(args.run or "latest")
        trace = chrome_trace(record)
        target = args.output
        if target == "-":
            out(json.dumps(trace, indent=2, sort_keys=True))
            return 0
        if target is None:
            target = record.path.parent / "trace.json"
        target = Path(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(target, trace, indent=None)
        out(f"chrome trace written to {target} "
            f"({len(trace['traceEvents'])} events); load it in Perfetto "
            "(ui.perfetto.dev) or chrome://tracing")
        return 0
    if args.run is not None:
        spans = ws.load_run(args.run).spans
    else:
        spans, _, _ = ws.load_snapshot()
    if not spans:
        out("no spans recorded")
        return 0
    out(render_span_tree(spans))
    return 0


def _cmd_report(ws: Workspace, args, out) -> int:
    """Critical-path and profile report for a recorded run."""
    import json

    if not args.run_id:
        _render_run_list(ws, out)
        runs = ws.list_runs()
        if runs:
            out(f"(report one with: report {runs[-1].run_id})")
        return 0
    record = ws.load_run(args.run_id)
    if args.json:
        out(json.dumps(report_dict(record), indent=2, sort_keys=True))
    else:
        out(render_report(record).rstrip("\n"))
    return 0


def _cmd_profile(ws: Workspace, args, out) -> int:
    """Phase/hot-frame report from a recorded run's profile line."""
    import json

    from repro.observability import collapsed_stacks

    if not args.run_id:
        _render_run_list(ws, out)
        runs = ws.list_runs()
        if runs:
            out(f"(profile one with: profile {runs[-1].run_id})")
        return 0
    record = ws.load_run(args.run_id)
    if record.profile is None:
        out(
            f"run {record.run_id} has no profile "
            f"(re-run with --profile to sample it)"
        )
        return 1
    if args.json:
        out(json.dumps(record.profile, indent=2, sort_keys=True))
    elif args.collapsed:
        for line in collapsed_stacks(record.profile):
            out(line)
    else:
        out(render_profile(record.profile, top=args.top))
    return 0


def _fmt_stamp(epoch) -> str:
    import time as _time

    if not epoch:
        return "?"
    return _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(epoch))


def _fmt_makespan(value) -> str:
    return f"{value:.3f}s" if value is not None else "-"


def _cmd_runs(ws: Workspace, args, out) -> int:
    """List recorded runs, or prune old ones (``runs prune --keep N``)."""
    if getattr(args, "runs_command", None) == "prune":
        if args.keep < 0:
            raise VirtualDataError(
                f"--keep must be >= 0, got {args.keep}"
            )
        # Aggregates outlive the raw records: ingest before deleting.
        ws.history().close()
        pruned = prune_runs(ws.runs_dir, args.keep)
        if not pruned:
            out("nothing to prune")
            return 0
        for run_id in pruned:
            out(f"pruned {run_id}")
        out(f"pruned {len(pruned)} run(s), kept the {args.keep} newest "
            "(aggregates retained in the history store)")
        return 0
    runs = ws.list_runs()
    if not runs:
        out(f"no recorded runs under {ws.runs_dir}")
        return 0
    out(f"{len(runs)} recorded run(s), oldest first:")
    for record in runs:
        flags = " [truncated]" if record.truncated else ""
        out(
            f"  {record.run_id}  "
            f"started={_fmt_stamp(record.meta.get('started_at'))}  "
            f"status={record.status}  "
            f"makespan={_fmt_makespan(record.makespan())}  "
            f"{record.command or '-'}{flags}"
        )
    return 0


def _cmd_diff(ws: Workspace, args, out) -> int:
    """Compare two recorded runs end to end."""
    import json

    base = ws.load_run(args.base)
    cand = ws.load_run(args.candidate)
    diff = diff_records(base, cand, threshold_pct=args.threshold)
    if args.json:
        out(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        out(diff.render())
    return 0


def _cmd_regress(ws: Workspace, args, out) -> int:
    """Gate one run against the pooled historical baseline.

    Exit code 0 means clean, 2 means significant regressions were
    found (1 is reserved for operational errors), so CI can use this
    directly.
    """
    import json

    candidate = ws.load_run(args.run)
    with ws.history() as history:
        try:
            diff = regression_report(
                history,
                candidate,
                baseline_ids=args.baseline or None,
                window=args.window,
                threshold_pct=args.threshold,
            )
        except ValueError as exc:
            raise VirtualDataError(str(exc)) from None
    if args.json:
        out(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        out(diff.render())
    return 0 if diff.clean else 2


def _cmd_health(ws: Workspace, args, out) -> int:
    """Per-site SLO scorecards over recent recorded runs.

    With ``--check``, exit 2 unless every site is within SLO (for
    CI/cron gating); without it, reporting is always exit 0.
    """
    import json

    policy = SLOPolicy(success_target=args.slo)
    with ws.history() as history:
        if not len(history):
            raise VirtualDataError(
                f"no recorded runs under {ws.runs_dir}; health needs "
                "at least one recorded 'materialize' or 'run'"
            )
        report = grid_health(history, policy=policy, window=args.window)
    if args.json:
        out(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        out(report.render())
    if args.check and report.status != "ok":
        return 2
    return 0


def _cmd_metrics(ws: Workspace, args, out) -> int:
    """Metrics exposition: the scrape surface for the grid.

    Reads the latest snapshot (or ``--run`` record) metrics, merges in
    health gauges when run history exists, and prints either the
    OpenMetrics text exposition (``--openmetrics``) or the human
    rendering.
    """
    if args.run is not None:
        metrics = ws.load_run(args.run or "latest").metrics
    else:
        _, metrics, _ = ws.load_snapshot()
    health_report = None
    if ws.exists and ws.list_runs():
        with ws.history() as history:
            if len(history):
                health_report = grid_health(history)
    if args.openmetrics:
        text = openmetrics_snapshot(metrics, health_report=health_report)
        problems = validate_openmetrics(text)
        if problems:
            raise VirtualDataError(
                "internal error: invalid OpenMetrics exposition: "
                + "; ".join(problems)
            )
        out(text.rstrip("\n"))
        return 0
    merged = dict(health_metrics(health_report)) if health_report else {}
    merged.update(metrics)
    rendered = render_metrics(merged)
    out(rendered if rendered else "no metrics recorded")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdg",
        description="virtual data grid workspace (Chimera reproduction)",
    )
    parser.add_argument(
        "--workspace",
        default=DEFAULT_WORKSPACE,
        help=f"workspace directory (default: {DEFAULT_WORKSPACE})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create a workspace").set_defaults(
        fn=_cmd_init
    )

    define = sub.add_parser("define", help="register VDL definitions")
    define.add_argument("file")
    define.add_argument("--replace", action="store_true")
    define.set_defaults(fn=_cmd_define)

    lint = sub.add_parser(
        "lint", help="static analysis of VDL files or the workspace"
    )
    lint.add_argument(
        "files",
        nargs="*",
        help="VDL files to lint (default: the workspace catalog)",
    )
    lint.add_argument("--format", default="text", choices=("text", "json"))
    lint.add_argument(
        "--no-rule",
        action="append",
        default=[],
        metavar="RULE",
        help="suppress a rule name (output-race) or code (VDG201); repeatable",
    )
    lint.add_argument(
        "--incremental",
        action="store_true",
        help="catalog mode only: run the rules over the live analysis "
        "context instead of re-exporting and re-parsing the VDL",
    )
    lint.set_defaults(fn=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="whole-graph dataflow analysis: staleness, dead data, "
        "type flow, output conflicts",
    )
    analyze.add_argument(
        "--stale",
        action="append_const",
        const="staleness",
        dest="passes",
        help="only staleness propagation (VDG601/VDG602)",
    )
    analyze.add_argument(
        "--dead",
        action="append_const",
        const="dead-data",
        dest="passes",
        help="only dead-data detection (VDG611/VDG612)",
    )
    analyze.add_argument(
        "--types",
        action="append_const",
        const="type-flow",
        dest="passes",
        help="only interprocedural type flow (VDG621)",
    )
    analyze.add_argument(
        "--conflicts",
        action="append_const",
        const="output-conflict",
        dest="passes",
        help="only interprocedural output conflicts (VDG631)",
    )
    analyze.add_argument(
        "--format", default="text", choices=("text", "json")
    )
    analyze.add_argument(
        "--stats",
        action="store_true",
        help="also print solver statistics (nodes, visits, mode)",
    )
    analyze.set_defaults(fn=_cmd_analyze)

    lister = sub.add_parser("list", help="list catalog objects")
    lister.add_argument(
        "kind",
        choices=("datasets", "transformations", "derivations", "invocations"),
    )
    lister.set_defaults(fn=_cmd_list)

    plan = sub.add_parser("plan", help="show the workflow for a dataset")
    plan.add_argument("dataset")
    plan.add_argument("--reuse", default="always",
                      choices=("never", "always", "cost"))
    plan.add_argument(
        "--strict",
        action="store_true",
        help="lint the catalog first; abort on any error-level finding",
    )
    plan.add_argument(
        "--profile",
        action="store_true",
        help="sample stacks while planning; print a per-phase profile",
    )
    plan.set_defaults(fn=_cmd_plan)

    mat = sub.add_parser("materialize", help="produce a dataset")
    mat.add_argument("dataset")
    mat.add_argument("--reuse", default="always",
                     choices=("never", "always", "cost"))
    mat.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run up to N independent plan steps concurrently",
    )
    mat.add_argument(
        "--backend",
        default="thread",
        choices=("thread", "process"),
        help="worker pool type: threads (default; I/O-bound steps) or "
        "processes (CPU-bound Python bodies scale past the GIL)",
    )
    mat.add_argument(
        "--progress",
        action="store_true",
        help="show a live steps-done/running/failed ticker with ETA",
    )
    mat.add_argument(
        "--profile",
        action="store_true",
        help="run the sampling profiler; the profile rides in the run "
        "record (read back with 'profile RUN_ID')",
    )
    mat.add_argument(
        "--no-record",
        action="store_true",
        help="skip writing a flight record under <workspace>/runs/",
    )
    mat.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the crash-consistency preflight check",
    )
    mat.set_defaults(fn=_cmd_materialize)

    run = sub.add_parser(
        "run",
        help="run a transformation ad hoc, or a grid workflow (--target)",
    )
    run.add_argument("transformation", nargs="?")
    run.add_argument(
        "binding", nargs="*", help="formal=value bindings", default=[]
    )
    run.add_argument("--session", default="cli")
    run.add_argument(
        "--target",
        metavar="DATASET",
        help="materialize DATASET on a simulated grid instead",
    )
    run.add_argument(
        "--grid",
        default="site-a=4,site-b=4",
        metavar="SITE=HOSTS,...",
        help="grid sites for --target (default: site-a=4,site-b=4); "
        "'local' runs --target with the in-process executor instead",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="with --grid local: run up to N plan steps concurrently",
    )
    run.add_argument(
        "--backend",
        default="thread",
        choices=("thread", "process"),
        help="with --grid local: thread (default) or process workers",
    )
    run.add_argument(
        "--pattern",
        default="ship-data",
        choices=("collocate", "ship-procedure", "ship-data", "ship-both"),
    )
    run.add_argument("--max-retries", type=int, default=2)
    run.add_argument(
        "--failure-rate",
        type=float,
        default=0.0,
        help="uniform transient job failure probability",
    )
    run.add_argument(
        "--fault-plan",
        metavar="FILE",
        help="JSON FaultPlan (outages, transfer faults, corruption, ...)",
    )
    run.add_argument(
        "--failure-policy",
        default="run-what-you-can",
        choices=("fail-fast", "run-what-you-can"),
    )
    run.add_argument(
        "--step-timeout",
        type=float,
        metavar="SECONDS",
        help="kill straggler attempts after this much sim time",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--rescue",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="resume from (and update) a rescue file; without FILE, "
        "the workspace default under <workspace>/rescue/ is used",
    )
    run.add_argument(
        "--kill-at",
        type=float,
        metavar="T",
        help="kill the run at sim time T (writes a rescue file)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="show a live steps-done/running/failed ticker with ETA",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="run the sampling profiler; the profile rides in the run "
        "record (read back with 'profile RUN_ID')",
    )
    run.add_argument(
        "--no-record",
        action="store_true",
        help="skip writing a flight record under <workspace>/runs/",
    )
    run.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the crash-consistency preflight check",
    )
    run.set_defaults(fn=_cmd_run)

    fsck = sub.add_parser(
        "fsck",
        help="check (and repair) workspace crash consistency",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="apply each finding's deterministic repair",
    )
    fsck.add_argument(
        "--no-checksums",
        action="store_true",
        help="structural check only; skip content digest verification",
    )
    fsck.add_argument("--format", default="text", choices=("text", "json"))
    fsck.set_defaults(fn=_cmd_fsck)

    lineage = sub.add_parser("lineage", help="audit trail of a dataset")
    lineage.add_argument("dataset")
    lineage.set_defaults(fn=_cmd_lineage)

    invalidate = sub.add_parser(
        "invalidate", help="blast radius of bad data or code"
    )
    invalidate.add_argument("--dataset", action="append")
    invalidate.add_argument("--transformation", action="append")
    invalidate.set_defaults(fn=_cmd_invalidate)

    export = sub.add_parser("export", help="dump definitions")
    export.add_argument("--format", default="vdl", choices=("vdl", "xml"))
    export.set_defaults(fn=_cmd_export)

    stats = sub.add_parser("stats", help="metrics from the last traced run")
    stats.add_argument(
        "--format", default="text", choices=("text", "prom", "json")
    )
    stats.add_argument(
        "--run",
        nargs="?",
        const="",
        default=None,
        metavar="RUN_ID",
        help="read a recorded run instead of the latest snapshot; "
        "without RUN_ID, list available runs ('latest' also works)",
    )
    stats.set_defaults(fn=_cmd_stats)

    trace = sub.add_parser("trace", help="span tree from the last traced run")
    trace.add_argument(
        "--run",
        nargs="?",
        const="",
        default=None,
        metavar="RUN_ID",
        help="read a recorded run instead of the latest snapshot; "
        "without RUN_ID, list available runs ('latest' also works)",
    )
    trace.add_argument(
        "--chrome",
        action="store_true",
        help="export a Chrome-trace (Perfetto) JSON file instead of text",
    )
    trace.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="with --chrome: destination file ('-' prints to stdout; "
        "default <run dir>/trace.json)",
    )
    trace.set_defaults(fn=_cmd_trace)

    report = sub.add_parser(
        "report",
        help="critical path + latency/throughput profiles of a recorded run",
    )
    report.add_argument(
        "run_id",
        nargs="?",
        help="run id under <workspace>/runs ('latest' works); "
        "omit to list available runs",
    )
    report.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    report.set_defaults(fn=_cmd_report)

    profile = sub.add_parser(
        "profile",
        help="per-phase time/memory/hot-frame report of a profiled run",
    )
    profile.add_argument(
        "run_id",
        nargs="?",
        help="run id under <workspace>/runs ('latest' works); "
        "omit to list available runs",
    )
    profile.add_argument(
        "--json", action="store_true", help="dump the raw profile dict"
    )
    profile.add_argument(
        "--collapsed",
        action="store_true",
        help="collapsed-stack lines for flamegraph.pl / speedscope",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="hot frames shown per phase (default 10)",
    )
    profile.set_defaults(fn=_cmd_profile)

    runs = sub.add_parser(
        "runs", help="list recorded runs, or prune old ones"
    )
    runs_sub = runs.add_subparsers(dest="runs_command")
    prune = runs_sub.add_parser(
        "prune",
        help="delete all but the newest N recorded runs "
        "(aggregates are ingested into the history store first)",
    )
    prune.add_argument(
        "--keep",
        type=int,
        required=True,
        metavar="N",
        help="number of newest runs to keep (0 deletes all)",
    )
    runs.set_defaults(fn=_cmd_runs)

    diff = sub.add_parser(
        "diff", help="compare two recorded runs end to end"
    )
    diff.add_argument("base", help="baseline run id ('latest' works)")
    diff.add_argument("candidate", help="candidate run id")
    diff.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="relative change (%%) considered significant (default 25)",
    )
    diff.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    diff.set_defaults(fn=_cmd_diff)

    regress = sub.add_parser(
        "regress",
        help="check one run against the pooled historical baseline "
        "(exit 2 on regression)",
    )
    regress.add_argument(
        "--run",
        default="latest",
        metavar="RUN_ID",
        help="candidate run (default: latest)",
    )
    regress.add_argument(
        "--baseline",
        action="append",
        metavar="RUN_ID",
        help="explicit baseline run id; repeatable "
        "(default: the last --window ingested runs)",
    )
    regress.add_argument(
        "--window",
        type=int,
        default=20,
        metavar="N",
        help="baseline window when --baseline is not given (default 20)",
    )
    regress.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="relative change (%%) considered significant (default 25)",
    )
    regress.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    regress.set_defaults(fn=_cmd_regress)

    health = sub.add_parser(
        "health", help="per-site SLO scorecards over recent runs"
    )
    health.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="how many recent runs to score (default: policy window)",
    )
    health.add_argument(
        "--slo",
        type=float,
        default=0.95,
        metavar="RATE",
        help="success-rate objective in (0, 1) (default 0.95)",
    )
    health.add_argument(
        "--check",
        action="store_true",
        help="exit 2 unless every site is within SLO",
    )
    health.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    health.set_defaults(fn=_cmd_health)

    metrics = sub.add_parser(
        "metrics",
        help="metrics exposition (with health gauges) for scraping",
    )
    metrics.add_argument(
        "--openmetrics",
        action="store_true",
        help="emit the OpenMetrics text exposition format",
    )
    metrics.add_argument(
        "--run",
        nargs="?",
        const="latest",
        default=None,
        metavar="RUN_ID",
        help="read a recorded run's metrics instead of the latest "
        "snapshot (default when given without RUN_ID: latest)",
    )
    metrics.set_defaults(fn=_cmd_metrics)

    return parser


def main(argv: list[str] | None = None, out=print, err=None) -> int:
    """CLI entry point; returns the process exit code.

    Normal output goes through ``out``; operational errors (unknown
    run ids, missing workspaces, ...) are printed once through ``err``
    — stderr when running as a real process — and exit 1, never as
    tracebacks.  Callers that capture ``out`` (tests, embedding) get
    errors on the same channel unless they pass their own ``err``.
    """
    if err is None:
        if out is print:
            def err(text=""):
                print(text, file=sys.stderr)
        else:
            err = out
    args = build_parser().parse_args(argv)
    ws = Workspace(args.workspace)
    try:
        return args.fn(ws, args, out)
    except VirtualDataError as exc:
        err(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
