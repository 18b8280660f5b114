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
import functools
import json
import os
import sys
import time
from pathlib import Path

from typing import Optional

from repro.durability.atomic import atomic_write_json
from repro.errors import VDLSemanticError, VDLSyntaxError, VirtualDataError
from repro.observability import (
    Instrumentation,
    RunRecord,
    chrome_trace,
    diff_records,
    grid_health,
    health_metrics,
    openmetrics_snapshot,
    prune_runs,
    regression_report,
    render_metrics,
    render_profile,
    render_report,
    render_span_tree,
    report_dict,
    to_openmetrics,
    validate_openmetrics,
)
from repro.observability.health import SLOPolicy
from repro.provenance.invalidation import invalidated_by
from repro.provenance.lineage import lineage_report
from repro.system import VirtualDataSystem, Workspace

DEFAULT_WORKSPACE = ".vdg"


def _cmd_init(ws: Workspace, args, out) -> int:
    ws.create()
    out(f"initialized virtual data workspace at {ws.root}")
    return 0


def _read_source(path: str) -> str:
    """A VDL file's text; an unreadable file is an operational error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise VirtualDataError(f"cannot read {path}: {exc.strerror}") from exc


def _cmd_define(ws: Workspace, args, out) -> int:
    source = _read_source(args.file)
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
    if args.files:
        # Files need no workspace; one that exists keeps the snapshot.
        linter = Linter(registry=registry, obs=Instrumentation())
        results = [
            linter.lint_source(_read_source(path), file=path)
            for path in args.files
        ]
        if ws.exists:
            ws.save_snapshot(linter.obs)
    else:
        session = VirtualDataSystem.open(ws)
        results = [session.lint(incremental=args.incremental, rules=registry)]
        session.save_snapshot()
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
    from repro.analysis.reporters import exit_code, render_json, render_text

    session = VirtualDataSystem.open(ws)
    result = session.analyze(passes=args.passes)
    session.save_snapshot()
    render = render_json if args.format == "json" else render_text
    out(render(result))
    if args.stats:
        stats = session.catalog.live_analyzer().stats()
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
            state = (
                "materialized" if catalog.is_materialized(ds.name) else "virtual"
            )
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


def _render_profile(profile: Optional[dict], out) -> None:
    if profile is not None:
        out(render_profile(profile))


def _cmd_plan(ws: Workspace, args, out) -> int:
    session = VirtualDataSystem.open(ws)
    session.start_run(profile=args.profile)
    try:
        if args.strict:
            # The incremental path checks the catalog's own graph
            # instead of re-exporting and re-parsing it.
            with session.obs.phase("analyze"):
                errors = session.lint(incremental=True).errors
            for diag in errors:
                out(diag.render())
            if errors:
                out(
                    f"plan aborted: {len(errors)} lint error(s) in the "
                    f"catalog (run 'lint' for details, or drop --strict)"
                )
                return 1
        plan = session.plan(args.dataset, reuse=args.reuse)
    finally:
        _render_profile(session.stop_profile(), out)
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


def _open_run(ws: Workspace, args, out, command) -> Optional[VirtualDataSystem]:
    """The session for an executing command, its run started; ``None``
    when the preflight refuses the run (exit 2; ``--no-verify`` skips
    it), so a half-committed catalog is never planned against."""
    session = VirtualDataSystem.open(ws)
    if not args.no_verify:
        report = session.preflight()
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
            return None
    session.start_run(
        None if args.no_record else command,
        progress=args.progress,
        profile=args.profile,
    )
    return session


def _finish_run(session: VirtualDataSystem, out, status, result=None) -> None:
    _render_profile(session.finish_run(status, result), out)
    if session.recorder is not None:
        out(f"run record: {session.recorder.run_id}")


def _cmd_fsck(ws: Workspace, args, out) -> int:
    """Reconcile catalog, sandbox files, journal, rescues and records.

    Exit 0 when the workspace is clean (or every finding was repaired),
    2 when unrepaired error-severity corruption remains — mirroring
    classic fsck semantics so scripts and CI can gate on it.
    """
    session = VirtualDataSystem.open(ws)
    report = session.fsck(checksums=not args.no_checksums, repair=args.repair)
    session.save_snapshot()
    if args.format == "json":
        out(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        out(report.render())
    return 2 if report.corrupted else 0


def _cmd_materialize(ws: Workspace, args, out) -> int:
    return _materialize_local(ws, args, out, args.dataset, args.reuse)


def _materialize_local(ws: Workspace, args, out, dataset, reuse) -> int:
    session = _open_run(ws, args, out, f"materialize {dataset}")
    if session is None:
        return 2
    status = "error"
    try:
        invocations = session.local.materialize(
            dataset, reuse=reuse, workers=args.workers, backend=args.backend
        )
        status = "ok"
    finally:
        _finish_run(session, out, status)
    if not invocations:
        out(f"{dataset} is already materialized")
    for inv in invocations:
        out(f"ran {inv.derivation_name}: {inv.status} "
            f"({inv.usage.wall_seconds * 1e3:.1f} ms)")
    path = session.local.path_for(dataset)
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
            return _materialize_local(ws, args, out, args.target, "always")
        return _cmd_run_grid(ws, args, out)
    if not args.transformation:
        out("error: provide a transformation name, or --target DATASET "
            "for a grid workflow run")
        return 1
    bindings = {}
    for binding in args.binding:
        if "=" not in binding:
            out(f"error: binding {binding!r} is not name=value")
            return 1
        key, _, value = binding.partition("=")
        bindings[key] = value
    session = _open_run(ws, args, out, f"run {args.transformation}")
    if session is None:
        return 2
    interactive = InteractiveSession(session.local, prefix=args.session)
    status = "error"
    try:
        outputs = interactive.run(args.transformation, **bindings)
        status = "ok"
    finally:
        _finish_run(session, out, status)
    entry = interactive.log[-1]
    out(f"ran {entry.derivation.name}: {entry.invocation.status}")
    for name in outputs:
        path = session.local.path_for(name)
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
    from repro.resilience import FaultPlan, RecoveryConfig

    sites = _parse_grid(args.grid)
    fault_plan = FaultPlan.load(args.fault_plan) if args.fault_plan else None
    session = _open_run(
        ws, args, out, f"run --target {args.target} --grid {args.grid}"
    )
    if session is None:
        return 2
    status = 0
    result = None
    resume = args.rescue is not None
    rescue_path = session.rescue_path(args.target, args.rescue)
    base = None
    try:
        session.attach_grid(
            sites,
            failure_rate=args.failure_rate,
            seed=args.seed,
            fault_plan=fault_plan,
            recovery=RecoveryConfig.hardened(
                seed=args.seed,
                failure_policy=args.failure_policy,
                step_timeout=args.step_timeout,
            ),
            max_retries=args.max_retries,
        )
        session.seed_sources(args.target, pattern=args.pattern)
        base = session.load_rescue(rescue_path) if resume else None
        if base is not None:
            out(f"resuming from rescue file {rescue_path} "
                f"({len(base.completed)} completed steps recorded)")
        result = session.materialize(
            args.target, pattern=args.pattern, rescue=base, until=args.kill_at
        )
    except WorkflowError as exc:
        out(exc.render_summary())
        result = exc.result
        status = 1
    finally:
        ok = status == 0 and result is not None
        _finish_run(session, out, "ok" if ok else "error", result)

    if result is None:
        return status
    restore = session.executor.last_restore
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
        session.save_rescue(result, rescue_path, base)
        out(f"rescue file written to {rescue_path} "
            f"(resume with --target {args.target} --rescue)")
    return status


def _cmd_lineage(ws: Workspace, args, out) -> int:
    report = lineage_report(ws.catalog(), args.dataset)
    out(report.render())
    return 0


def _cmd_invalidate(ws: Workspace, args, out) -> int:
    catalog = ws.catalog()  # its graph reads derivations through it
    report = invalidated_by(
        catalog.derivation_graph(),
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


def _render_run_list(ws: Workspace, out, verb: str = "") -> int:
    """List the recorded runs; ``verb`` adds how to pick the newest."""
    runs = ws.list_runs()
    if not runs:
        out(f"no recorded runs under {ws.runs_dir}")
        return 0
    out("available runs (oldest first):")
    for record in runs:
        command = f"  command={record.command}" if record.command else ""
        out(f"  {record.run_id}  status={record.status}{command}")
    if verb:
        out(f"({verb} one with: {verb} {runs[-1].run_id})")
    return 0


def _load_metrics(ws: Workspace, run: Optional[str]) -> dict:
    """A recorded run's metrics (``""`` is the latest), or without
    ``run`` the last snapshot's."""
    if run is not None:
        return ws.load_run(run or "latest").metrics
    return ws.load_snapshot()[1]


def _cmd_stats(ws: Workspace, args, out) -> int:
    """Metrics from the last run, or from a recorded run (``--run``)."""
    if args.run == "":
        return _render_run_list(ws, out)
    metrics = _load_metrics(ws, args.run)
    if args.format == "prom":
        out(to_openmetrics(metrics).rstrip("\n"))
    elif args.format == "json":
        out(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        rendered = render_metrics(metrics)
        out(rendered if rendered else "no metrics recorded")
    return 0


def _cmd_trace(ws: Workspace, args, out) -> int:
    """Span tree from the last run; ``--run`` selects a recorded run,
    ``--chrome`` exports a Perfetto-loadable Chrome trace instead."""
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
        spans, _ = ws.load_snapshot()
    if not spans:
        out("no spans recorded")
        return 0
    out(render_span_tree(spans))
    return 0


def _cmd_report(ws: Workspace, args, out) -> int:
    """Critical-path and profile report for a recorded run."""
    if not args.run_id:
        return _render_run_list(ws, out, verb="report")
    record = ws.load_run(args.run_id)
    if args.json:
        out(json.dumps(report_dict(record), indent=2, sort_keys=True))
    else:
        out(render_report(record).rstrip("\n"))
    return 0


def _cmd_profile(ws: Workspace, args, out) -> int:
    """Phase/hot-frame report from a recorded run's profile line."""
    from repro.observability import collapsed_stacks

    if not args.run_id:
        return _render_run_list(ws, out, verb="profile")
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
    if not epoch:
        return "?"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(epoch))


def _fmt_makespan(value) -> str:
    return f"{value:.3f}s" if value is not None else "-"


def _require_nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise VirtualDataError(f"{flag} must be >= 0, got {value}")


def _cmd_runs(ws: Workspace, args, out) -> int:
    """List recorded runs, or prune old ones (``runs prune --keep N``)."""
    if getattr(args, "runs_command", None) == "prune":
        _require_nonnegative("--keep", args.keep)
        pruned = prune_runs(ws.runs_dir, args.keep, ws.history_dir)
        if not pruned:
            out("nothing to prune")
            return 0
        for run_id in pruned:
            out(f"pruned {run_id}")
        out(f"pruned {len(pruned)} run(s), kept the {args.keep} newest "
            "(regress, health and training still read them from history/)")
        return 0
    runs = ws.list_runs()
    if not runs:
        out(f"no recorded runs under {ws.runs_dir}")
        return 0
    out(f"{len(runs)} recorded run(s), oldest first:")
    for record in runs:
        if "makespan" not in record.result:
            # A crashed run's makespan comes from its step timings.
            record = RunRecord.load(record.path)
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
    _require_nonnegative("--window", args.window)
    history = ws.history()
    candidate = ws.load_run(args.run, among=history)
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
    if args.window is not None:
        _require_nonnegative("--window", args.window)
    if not 0.0 < args.slo < 1.0:
        raise VirtualDataError(f"--slo must be in (0, 1), got {args.slo}")
    history = ws.history()
    if not history:
        raise VirtualDataError(
            f"no recorded runs under {ws.runs_dir}; health needs "
            "at least one recorded 'materialize' or 'run'"
        )
    report = grid_health(
        history,
        policy=SLOPolicy(success_target=args.slo),
        window=args.window,
    )
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
    health gauges when recorded runs exist, and prints either the
    OpenMetrics text exposition (``--openmetrics``) or the human
    rendering.
    """
    metrics = _load_metrics(ws, args.run)
    history = ws.history() if ws.exists else []
    health_report = grid_health(history) if history else None
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
        help="catalog mode only: check the catalog's own graph instead "
        "of re-exporting and re-parsing the VDL",
    )
    lint.set_defaults(fn=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="whole-graph dataflow analysis: staleness, dead data, "
        "type flow, output conflicts",
    )
    for flag, analysis, what in (
        ("--stale", "staleness", "staleness propagation (VDG601/VDG602)"),
        ("--dead", "dead-data", "dead-data detection (VDG611/VDG612)"),
        ("--types", "type-flow", "interprocedural type flow (VDG621)"),
        (
            "--conflicts",
            "output-conflict",
            "interprocedural output conflicts (VDG631)",
        ),
    ):
        analyze.add_argument(
            flag,
            action="append_const",
            const=analysis,
            dest="passes",
            help=f"only {what}",
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
    mat = sub.add_parser("materialize", help="produce a dataset")
    for planned in (plan, mat):
        planned.add_argument("dataset")
        planned.add_argument(
            "--reuse", default="always", choices=("never", "always", "cost")
        )
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
    run.set_defaults(fn=_cmd_run)
    # The flags every executing command takes, last in its help.
    for executing in (mat, run):
        for flag, what in (
            ("--progress", "show a live steps-done/running/failed ticker "
             "with ETA"),
            ("--profile", "run the sampling profiler; the profile rides in "
             "the run record (read back with 'profile RUN_ID')"),
            ("--no-record", "skip writing a flight record under "
             "<workspace>/runs/"),
            ("--no-verify", "skip the crash-consistency preflight check"),
        ):
            executing.add_argument(flag, action="store_true", help=what)

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

    # What stats and trace read: the snapshot, or a recorded run.
    recorded_run = dict(
        nargs="?",
        const="",
        default=None,
        metavar="RUN_ID",
        help="read a recorded run instead of the latest snapshot; "
        "without RUN_ID, list available runs ('latest' also works)",
    )
    stats = sub.add_parser("stats", help="metrics from the last traced run")
    stats.add_argument(
        "--format", default="text", choices=("text", "prom", "json")
    )
    stats.add_argument("--run", **recorded_run)
    stats.set_defaults(fn=_cmd_stats)

    trace = sub.add_parser("trace", help="span tree from the last traced run")
    trace.add_argument("--run", **recorded_run)
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
    report.set_defaults(fn=_cmd_report)
    profile = sub.add_parser(
        "profile",
        help="per-phase time/memory/hot-frame report of a profiled run",
    )
    for reader in (report, profile):
        reader.add_argument(
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
        help="delete all but the newest N recorded runs (each leaves "
        "a compacted copy under history/ that regress, health and "
        "training still read)",
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
        "(default: the last --window recorded runs)",
    )
    regress.add_argument(
        "--window",
        type=int,
        default=20,
        metavar="N",
        help="baseline window when --baseline is not given "
        "(default 20; 0 takes every run)",
    )
    regress.set_defaults(fn=_cmd_regress)
    for comparing in (diff, regress):
        comparing.add_argument(
            "--threshold",
            type=float,
            default=25.0,
            metavar="PCT",
            help="relative change (%%) considered significant (default 25)",
        )

    health = sub.add_parser(
        "health", help="per-site SLO scorecards over recent runs"
    )
    health.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="how many recent runs to score "
        "(default: policy window; 0 scores every run)",
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
    health.set_defaults(fn=_cmd_health)
    for reporting in (report, diff, regress, health):
        reporting.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

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


#: The argument tree, built once per process: it is large and cyclic.
_parser = functools.cache(build_parser)


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
    args = _parser().parse_args(argv)
    ws = Workspace(args.workspace)
    try:
        code = args.fn(ws, args, out)
        # A reader that went away early (``| head``) fails this flush
        # here rather than the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except VirtualDataError as exc:
        err(f"error: {exc}")
        return 1
    except BrokenPipeError:
        # Stop quietly; with stdout on devnull the exit flush cannot
        # fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
