"""The virtual data system: the Fig 5 process flow in one session object.

Wires a catalog, the planner, the estimator and an executor into the
six facets the paper names — **composition**, **planning**,
**estimation**, **derivation**, **discovery**, and **sharing** — so
applications, examples and the ``vdg`` CLI drive the whole stack
through one object, built in memory, on a simulated grid, or over a
workspace on disk::

    vds = VirtualDataSystem()
    vds = VirtualDataSystem.with_grid(sites={"anl": 64, "uc": 32})
    vds = VirtualDataSystem.open(".vdg")

    vds.define(VDL_TEXT)                    # composition
    plan = vds.plan("result")               # planning
    estimate = vds.estimate(plan)           # estimation
    result = vds.materialize("result")      # derivation (on the grid)
    hits = vds.discover_datasets("run*")    # discovery
    vds.share_with(other_vds.catalog)       # sharing

An on-disk session keeps one handle on the workspace's file tree and
journal, and owns what surrounds a run on it: the sandbox executor,
the preflight and fsck, the instrumentation, flight record and
snapshot, and a grid run's sources and rescue file.
"""

from __future__ import annotations

from contextlib import ExitStack
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.catalog.base import VirtualDataCatalog
from repro.catalog.federation import FederatedIndex
from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.resolver import CatalogNetwork, ReferenceResolver
from repro.core.attributes import AttributeSet
from repro.core.dataset import Dataset
from repro.core.transformation import Transformation
from repro.core.types import DatasetType
from repro.durability.journal import IntentJournal
from repro.durability.recovery import FsckReport, RecoveryManager
from repro.errors import PlanningError, VirtualDataError
from repro.estimator.cost import Estimator
from repro.estimator.workflow import WorkflowEstimate, estimate_plan
from repro.executor.grid_executor import GridExecutor
from repro.executor.local import LocalExecutor
from repro.grid.gram import GridExecutionService
from repro.grid.network import NetworkTopology, uniform_topology
from repro.grid.replica_catalog import ReplicaLocationService
from repro.grid.simulator import Simulator
from repro.grid.site import Site
from repro.observability import (
    FlightRecorder,
    ProgressSink,
    ProgressTicker,
    RunRecord,
    SamplingProfiler,
    find_run,
    list_runs,
    read_snapshot,
    write_snapshot,
)
from repro.observability.health import HealthReport
from repro.observability.instrument import NULL, Instrumentation
from repro.observability.recorder import load_runs
from repro.planner.dag import Plan, Planner
from repro.planner.request import MaterializationRequest
from repro.planner.scheduler import WorkflowResult
from repro.planner.strategies import ProcedureRegistry, SiteSelector
from repro.provenance.lineage import LineageReport, lineage_report
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.policies import RecoveryConfig
from repro.resilience.rescue import RescueFile

if TYPE_CHECKING:
    from repro.analysis.linter import LintResult
    from repro.analysis.registry import RuleRegistry


class Workspace:
    """Where an on-disk workspace keeps each store, and how each opens.

    Every opener returns a fresh handle; :meth:`VirtualDataSystem.open`
    opens the catalog once and keeps it for the whole session.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.catalog_dir = self.root / "catalog"
        self.sandbox_dir = self.root / "sandbox"
        self.observability_dir = self.root / "observability"
        self.runs_dir = self.root / "runs"
        self.journal_dir = self.root / "journal"
        self.quarantine_dir = self.root / "quarantine"
        self.rescue_dir = self.root / "rescue"
        self.history_dir = self.root / "history"

    @property
    def exists(self) -> bool:
        return self.catalog_dir.is_dir()

    def create(self) -> None:
        self.catalog_dir.mkdir(parents=True, exist_ok=True)
        self.sandbox_dir.mkdir(parents=True, exist_ok=True)

    def _require(self) -> None:
        if not self.exists:
            raise VirtualDataError(
                f"no workspace at {self.root}; run 'init' first"
            )

    def catalog(self) -> FileTreeCatalog:
        self._require()
        catalog = FileTreeCatalog(self.catalog_dir)
        # Journaled commits: executors wrap provenance write-back in
        # catalog.transaction(), so a kill mid-commit is recoverable —
        # 'fsck' (or the preflight) rolls the partial batch back.
        catalog.attach_journal(
            IntentJournal(self.journal_dir, instrumentation=catalog.obs)
        )
        return catalog

    def executor(
        self,
        instrumentation: Optional[Instrumentation] = None,
        catalog: Optional[VirtualDataCatalog] = None,
    ) -> LocalExecutor:
        return LocalExecutor(
            catalog if catalog is not None else self.catalog(),
            self.sandbox_dir,
            instrumentation=instrumentation,
            quarantine_dir=self.quarantine_dir,
        )

    def recovery(
        self,
        catalog: Optional[VirtualDataCatalog] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> RecoveryManager:
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

    def load_snapshot(self) -> tuple[list[dict[str, Any]], dict[str, Any]]:
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

    def load_run(
        self, run_id: str, among: Optional[list[RunRecord]] = None
    ) -> RunRecord:
        try:
            return find_run(self.runs_dir, run_id, among)
        except FileNotFoundError as exc:
            raise VirtualDataError(str(exc)) from None

    def history(self) -> list[RunRecord]:
        """Every recorded run, loaded, oldest first: the records under
        ``runs/`` and the compacted copies ``runs prune`` leaves under
        ``history/``.  What regress, health and training read."""
        self._require()
        return load_runs(self.runs_dir, self.history_dir)


class VirtualDataSystem:
    """One community's virtual data system instance."""

    def __init__(
        self,
        catalog: Optional[VirtualDataCatalog] = None,
        authority: Optional[str] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        # A caller's catalog joins this scope only through the
        # executors that run on it, which adopt it unless it has its own.
        self.obs = instrumentation or NULL
        self.catalog = catalog or MemoryCatalog(
            authority=authority, instrumentation=self.obs
        )
        self.network: Optional[NetworkTopology] = None
        self.simulator: Optional[Simulator] = None
        self.grid: Optional[GridExecutionService] = None
        self.selector: Optional[SiteSelector] = None
        self.executor: Optional[GridExecutor] = None
        self.estimator = Estimator(self.catalog, instrumentation=self.obs)
        self.catalogs = CatalogNetwork()
        self.resolver = ReferenceResolver(self.catalog, self.catalogs)
        self.workspace: Optional[Workspace] = None
        self.recorder: Optional[FlightRecorder] = None
        self._run = ExitStack()  # what finish_run closes

    # -- construction -----------------------------------------------------------

    @classmethod
    def with_grid(
        cls,
        sites: dict[str, int],
        authority: Optional[str] = None,
        catalog: Optional[VirtualDataCatalog] = None,
        instrumentation: Optional[Instrumentation] = None,
        **grid: Any,
    ) -> "VirtualDataSystem":
        """A system on a fresh simulated grid (see :meth:`attach_grid`)."""
        vds = cls(catalog, authority, instrumentation)
        vds.attach_grid(sites, **grid)
        return vds

    @classmethod
    def open(cls, workspace: Workspace | str | Path) -> "VirtualDataSystem":
        """The traced session over an on-disk workspace: its catalog is
        opened once, and joins the trace with :attr:`local` or
        :meth:`attach_grid` (a preflight, lint or fsck reads untraced)."""
        if not isinstance(workspace, Workspace):
            workspace = Workspace(workspace)
        vds = cls(workspace.catalog(), instrumentation=Instrumentation())
        vds.workspace = workspace
        return vds

    def attach_grid(
        self,
        sites: dict[str, int],
        bandwidth: float = 10e6,
        host_speed: float = 1.0,
        failure_rate: float = 0.0,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryConfig] = None,
        max_retries: int = 2,
    ) -> None:
        """Run this system's derivations on a fresh simulated grid.

        ``sites`` maps site names to host counts — e.g. the paper's
        SDSS testbed is ``{"anl": 200, "uc": 200, "uw": 200,
        "ufl": 200}`` (four sites, ~800 hosts).

        ``fault_plan`` attaches a deterministic
        :class:`~repro.resilience.FaultInjector` to the grid (outages,
        transfer faults, stragglers, corruption); ``recovery`` sets the
        scheduler's recovery posture (backoff, breakers, failover —
        see :meth:`~repro.resilience.RecoveryConfig.hardened`) and
        ``max_retries`` how often a failed step is tried again.

        The system's :class:`~repro.observability.Instrumentation`
        threads one tracer + metrics registry through the catalog,
        planner, scheduler, executor and grid, with spans stamped in
        both wall and simulation time.
        """
        self.simulator = Simulator(instrumentation=self.obs)
        self.obs.bind_simulator(self.simulator)
        self.network = uniform_topology(sorted(sites), bandwidth=bandwidth)
        self.network.obs = self.obs
        site_objects = {
            name: Site(name, hosts=count, speed=host_speed)
            for name, count in sites.items()
        }
        replicas = ReplicaLocationService(self.network)
        injector = None
        if fault_plan is not None and not fault_plan.is_null:
            injector = FaultInjector(fault_plan, instrumentation=self.obs)
        self.grid = GridExecutionService(
            self.simulator,
            site_objects,
            self.network,
            replicas,
            failure_rate=failure_rate,
            seed=seed,
            instrumentation=self.obs,
            injector=injector,
        )
        self.selector = SiteSelector(
            site_objects, self.network, replicas, ProcedureRegistry()
        )
        self.executor = GridExecutor(
            self.catalog,
            self.grid,
            self.selector,
            estimator=self.estimator,
            max_retries=max_retries,
            instrumentation=self.obs,
            recovery=recovery,
        )

    @property
    def replicas(self) -> ReplicaLocationService:
        return self._require_grid().grid.replicas

    def _require_grid(self) -> GridExecutor:
        if self.executor is None:
            raise PlanningError(
                "this VirtualDataSystem has no grid; build it with "
                "VirtualDataSystem.with_grid(...)"
            )
        return self.executor

    def _require_workspace(self) -> Workspace:
        if self.workspace is None:
            raise VirtualDataError(
                "this VirtualDataSystem has no workspace; open one with "
                "VirtualDataSystem.open(path)"
            )
        return self.workspace

    @cached_property
    def local(self) -> LocalExecutor:
        """The workspace's sandbox executor, over the session's catalog."""
        return self._require_workspace().executor(self.obs, self.catalog)

    # -- a run on disk: preflight, instrumentation, record ----------------------

    def preflight(self) -> FsckReport:
        """The cheap check before a run (before :meth:`start_run`):
        journal findings are repaired through the session's catalog."""
        return self._require_workspace().recovery(self.catalog).preflight()

    def fsck(self, checksums: bool = True, repair: bool = False) -> FsckReport:
        recovery = self._require_workspace().recovery(self.catalog, self.obs)
        return recovery.fsck(checksums=checksums, repair=repair)

    def start_run(
        self,
        command: Optional[str] = None,
        progress: bool = False,
        profile: bool = False,
    ) -> None:
        """Instrument what runs until :meth:`finish_run`: a flight
        record of ``command`` under ``runs/`` (``None`` records
        nothing), a live progress ticker, the sampling profiler."""
        if command is not None:
            self.recorder = self._require_workspace().start_recorder(command)
            self.obs.attach_recorder(self.recorder)
        if progress:
            sink = ProgressSink()
            self.obs.attach_progress(sink)
            self._run.enter_context(ProgressTicker(sink))
        if profile:
            profiler = SamplingProfiler(memory=True)
            self.obs.attach_profiler(profiler)
            profiler.start()

    def stop_profile(self) -> Optional[dict[str, Any]]:
        """Stop the profiler; its profile rides in the run record."""
        profiler = self.obs.profiler
        if profiler is None:
            return None
        if profiler.running:
            profiler.stop()
        profile: dict[str, Any] = profiler.to_dict()
        if self.recorder is not None:
            self.recorder.profile(profile)
        return profile

    def finish_run(
        self, status: str, result: Optional[WorkflowResult] = None
    ) -> Optional[dict[str, Any]]:
        """Seal the run, a grid run's record with its ``result``;
        returns the run's profile, if one was taken."""
        self._run.close()
        # The profile line must land before finalize seals the record.
        profile = self.stop_profile()
        self.save_snapshot()
        if self.recorder is not None:
            fields: dict[str, Any] = {}
            if result is not None:
                fields.update(
                    makespan=result.makespan,
                    failed_steps=sorted(result.failed_steps),
                    interrupted=result.interrupted,
                )
            self.recorder.finalize(self.obs, status=status, **fields)
        return profile

    def save_snapshot(self) -> None:
        """Persist the session's spans and metrics for ``stats``/``trace``."""
        self._require_workspace().save_snapshot(self.obs)

    # -- a grid run's sources and rescue file ------------------------------------

    def seed_sources(
        self, targets: str | tuple[str, ...], pattern: str = "ship-data"
    ) -> None:
        """Place what a request reads but does not derive at the first
        grid site, sized from the catalog (raw sources must pre-exist)."""
        preview = self.plan(targets, pattern=pattern)
        site = sorted(self._require_grid().grid.sites)[0]
        for name in sorted(preview.sources | preview.reused):
            size = self.catalog.dataset_size(name, 1_000_000)
            self.seed_dataset(name, site, size)

    def rescue_path(self, target: str, path: Optional[str] = None) -> Path:
        """``path``, or where the workspace keeps ``target``'s rescue file."""
        if path:
            return Path(path)
        return self._require_workspace().rescue_dir / f"{target}.rescue.json"

    @staticmethod
    def load_rescue(path: Path) -> Optional[RescueFile]:
        return RescueFile.load(path) if path.exists() else None

    def save_rescue(
        self,
        result: WorkflowResult,
        path: Path,
        base: Optional[RescueFile] = None,
    ) -> None:
        """Write what ``result`` (and the run it resumed) finished."""
        rescue = self._require_grid().rescue_file(result, base=base)
        path.parent.mkdir(parents=True, exist_ok=True)
        rescue.save(path)

    # -- composition (§5.1) -------------------------------------------------------

    def define(self, vdl_source: str, replace: bool = False) -> "VirtualDataSystem":
        """Register VDL definitions (transformations and derivations)."""
        with self.obs.span("vds.define"):
            self.catalog.define(vdl_source, replace=replace)
        return self

    def lint(
        self,
        source: Optional[str] = None,
        incremental: bool = False,
        rules: Optional[RuleRegistry] = None,
    ) -> LintResult:
        """Statically analyze VDL ``source``, or the whole catalog.

        Returns a :class:`repro.analysis.LintResult`; see
        ``docs/LINTING.md`` for the diagnostic codes (``rules`` narrows
        them).  With ``incremental=True`` (catalog mode only) the
        catalog's incremental analyzer checks its own graph, re-checking
        only what changed since its last lint, instead of re-exporting
        and re-parsing the VDL.
        """
        from repro.analysis import Linter

        linter = Linter(registry=rules, obs=self.obs)
        if source is None:
            return linter.lint_catalog(self.catalog, incremental=incremental)
        return linter.lint_source(source, catalog=self.catalog)

    def analyze(self, passes: Optional[Sequence[str]] = None) -> LintResult:
        """Whole-graph dataflow analysis of the catalog.

        Runs the incremental analyzer's passes (staleness, dead-data,
        type-flow, output-conflict — or the subset named in
        ``passes``) and returns a :class:`repro.analysis.LintResult`.
        Repeated calls after catalog mutations re-solve only the dirty
        region of the derivation graph.
        """
        from repro.analysis.linter import LintResult

        analyzer = self.catalog.live_analyzer()
        if self.obs.enabled:
            analyzer.obs = self.obs  # solver spans join this trace
        result = LintResult(file=analyzer.file)
        result.diagnostics = analyzer.diagnostics(passes=passes)
        return result

    def seed_dataset(self, name: str, site: str, size: int) -> None:
        """Place a raw source dataset on the grid (and in the catalog)."""
        grid = self._require_grid().grid
        grid.sites[site].storage.store(name, size, grid.simulator.now)
        grid.replicas.register(name, site, size)
        if not self.catalog.has_dataset(name):
            self.catalog.add_dataset(
                Dataset(name=name, attributes=AttributeSet({"size": size}))
            )

    # -- planning (§5.2) -------------------------------------------------------------

    def plan(
        self,
        targets: str | tuple[str, ...],
        reuse: str = "cost",
        pattern: str = "ship-data",
        max_hosts: Optional[int] = None,
    ) -> Plan:
        """Expand a materialization request into a workflow DAG.

        On a workspace the plan predicts what a local materialize
        reuses: a sandbox copy counts only if it matches its checksum,
        and the probe leaves a corrupt copy in place.
        """
        request = MaterializationRequest(
            targets=targets if not isinstance(targets, str) else (targets,),
            reuse=reuse,
            pattern=pattern,
            max_hosts=max_hosts,
        )
        with self.obs.span("vds.plan"), self.obs.phase("plan"):
            if self.executor is not None:
                return self.executor.plan(request)
            if self.workspace is not None:
                planner = Planner(
                    self.catalog,
                    has_replica=self.local.verify_replica,
                    instrumentation=self.obs,
                )
            else:
                planner = Planner(
                    self.catalog,
                    cpu_estimate=self.estimator.estimate_derivation,
                    instrumentation=self.obs,
                )
            return planner.plan(request)

    # -- estimation (§5.3) ---------------------------------------------------------------

    def estimate(
        self, plan: Plan, host_count: Optional[int] = None
    ) -> WorkflowEstimate:
        """Predict a plan's cost before committing resources."""
        if host_count is None:
            if self.grid is not None:
                host_count = sum(
                    s.compute.host_count for s in self.grid.sites.values()
                )
            else:
                host_count = 1
        with self.obs.span("vds.estimate", steps=len(plan.steps)):
            return estimate_plan(
                plan, host_count=host_count, include_intermediates=True
            )

    def can_meet_deadline(self, targets: str, deadline_seconds: float) -> bool:
        """The §5.3 interactive feasibility query."""
        return self.estimate(self.plan(targets)).meets_deadline(deadline_seconds)

    def train_on_history(self, history: list[RunRecord]) -> dict[str, Any]:
        """Refit cost models from recorded runs.

        ``history`` is a list of
        :class:`~repro.observability.recorder.RunRecord` (what
        :meth:`Workspace.history` returns); every successful planned
        invocation in it feeds the per-transformation fits (see
        :meth:`~repro.estimator.cost.Estimator.train_on_history`).
        """
        return self.estimator.train_on_history(history)

    def apply_site_health(
        self, health: HealthReport | dict[str, float], scale: float = 60.0
    ) -> dict[str, float]:
        """Feed observed grid health into site selection.

        ``health`` is either a
        :class:`~repro.observability.health.HealthReport` or an
        already-computed ``{site: penalty_seconds}`` mapping.  The
        penalties are installed on this system's
        :class:`~repro.planner.strategies.SiteSelector` as soft
        phantom queue time: degraded sites are avoided when
        alternatives exist but remain usable — the closing of the
        history → planning feedback loop.  Returns the applied table.
        """
        selector = self._require_grid().selector
        if isinstance(health, dict):
            penalties = dict(health)
        else:
            from repro.observability.health import health_penalties

            penalties = health_penalties(health, scale=scale)
        known = {s: p for s, p in penalties.items() if s in selector.sites}
        selector.set_penalties(known)
        if self.obs.enabled:
            for site, seconds in sorted(known.items()):
                self.obs.gauge(
                    "planner.site.penalty",
                    seconds,
                    site=site,
                    help="health-derived soft site penalty (seconds)",
                )
        return known

    # -- derivation (§5.4) ----------------------------------------------------------------

    def materialize(
        self,
        targets: str | tuple[str, ...],
        reuse: str = "cost",
        pattern: str = "ship-data",
        max_hosts: Optional[int] = None,
        rescue: Optional[RescueFile | str] = None,
        until: Optional[float] = None,
    ) -> WorkflowResult:
        """Plan and execute on the grid, recording full provenance.

        ``rescue`` resumes a killed/failed run from a rescue file
        (only unfinished steps re-execute); ``until`` kills this run
        at that simulation time and returns the partial result.  On a
        workspace without a grid, :attr:`local` materializes instead.
        """
        executor = self._require_grid()
        request = MaterializationRequest(
            targets=targets if not isinstance(targets, str) else (targets,),
            reuse=reuse,
            pattern=pattern,
            max_hosts=max_hosts,
        )
        with self.obs.span(
            "vds.materialize",
            targets=",".join(request.targets),
            reuse=reuse,
            pattern=pattern,
        ), self.obs.phase("schedule"):
            # The grid path plans, selects sites and dispatches inside
            # WorkflowExecutor.materialize — profile it as the
            # scheduling phase (sim-time execution costs no wall time).
            return executor.materialize(request, rescue=rescue, until=until)

    # -- discovery (§5.5) ---------------------------------------------------------------------

    def discover_datasets(
        self,
        name_glob: Optional[str] = None,
        conforms_to: Optional[DatasetType] = None,
        attributes: Optional[dict[str, Any]] = None,
    ) -> list[Dataset]:
        return self.catalog.find_datasets(
            name_glob=name_glob,
            conforms_to=conforms_to,
            attributes=attributes,
        )

    def discover_transformations(self, **kwargs: Any) -> list[Transformation]:
        return self.catalog.find_transformations(**kwargs)

    def lineage(self, dataset_name: str) -> LineageReport:
        """The complete audit trail of a dataset (§2 Provenance)."""
        return lineage_report(self.catalog, dataset_name)

    # -- sharing (Fig 3/4) --------------------------------------------------------------------

    def share_with(self, other: VirtualDataCatalog) -> None:
        """Make another community catalog reachable for resolution."""
        self.catalogs.register(other)  # refuses one without an authority
        if other.authority and other.authority not in self.resolver.scope_chain:
            self.resolver.scope_chain.append(other.authority)

    def build_index(
        self, name: str, depth: str = "shallow", mode: str = "live"
    ) -> FederatedIndex:
        """A federated index over this catalog plus all shared ones."""
        index = FederatedIndex(name, depth=depth, mode=mode)
        if self.catalog.authority:
            index.attach(self.catalog)
        for catalog in self.catalogs:
            index.attach(catalog)
        return index
