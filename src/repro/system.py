"""The virtual data system facade: the Fig 5 process flow in one object.

Wires a catalog, a simulated grid, the planner, the estimator and the
executors into the six facets the paper names — **composition**,
**planning**, **estimation**, **derivation**, **discovery**, and
**sharing** — so applications and examples drive the whole stack
through one coherent API::

    vds = VirtualDataSystem.with_grid(sites={"anl": 64, "uc": 32})
    vds.define(VDL_TEXT)                    # composition
    plan = vds.plan("result")               # planning
    estimate = vds.estimate(plan)           # estimation
    result = vds.materialize("result")      # derivation
    hits = vds.discover_datasets("run*")    # discovery
    vds.share_with(other_vds.catalog)       # sharing
"""

from __future__ import annotations

from typing import Any, Optional

from repro.catalog.base import VirtualDataCatalog
from repro.catalog.federation import FederatedIndex
from repro.catalog.memory import MemoryCatalog
from repro.catalog.resolver import CatalogNetwork, ReferenceResolver
from repro.core.dataset import Dataset
from repro.core.types import DatasetType
from repro.errors import PlanningError
from repro.estimator.cost import Estimator
from repro.estimator.workflow import WorkflowEstimate, estimate_plan
from repro.executor.grid_executor import GridExecutor
from repro.grid.gram import GridExecutionService
from repro.grid.network import NetworkTopology, uniform_topology
from repro.grid.replica_catalog import ReplicaLocationService
from repro.grid.simulator import Simulator
from repro.grid.site import Site
from repro.observability.instrument import NULL, Instrumentation
from repro.planner.dag import Plan
from repro.planner.request import MaterializationRequest
from repro.planner.scheduler import WorkflowResult
from repro.planner.strategies import ProcedureRegistry, SiteSelector
from repro.provenance.lineage import LineageReport, lineage_report
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.policies import RecoveryConfig
from repro.resilience.rescue import RescueFile


class VirtualDataSystem:
    """One community's virtual data system instance."""

    def __init__(
        self,
        catalog: Optional[VirtualDataCatalog] = None,
        authority: Optional[str] = None,
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.obs = instrumentation or NULL
        self.catalog = catalog or MemoryCatalog(
            authority=authority, instrumentation=self.obs
        )
        if catalog is not None and self.obs.enabled:
            # Adopt a caller-supplied catalog into this system's
            # observability scope unless it already has its own.
            if not self.catalog.obs.enabled:
                self.catalog.obs = self.obs
        self.network: Optional[NetworkTopology] = None
        self.simulator: Optional[Simulator] = None
        self.grid: Optional[GridExecutionService] = None
        self.selector: Optional[SiteSelector] = None
        self.executor: Optional[GridExecutor] = None
        self.estimator = Estimator(self.catalog, instrumentation=self.obs)
        self.catalogs = CatalogNetwork()
        self.resolver = ReferenceResolver(self.catalog, self.catalogs)

    # -- construction -----------------------------------------------------------

    @classmethod
    def with_grid(
        cls,
        sites: dict[str, int],
        authority: Optional[str] = None,
        catalog: Optional[VirtualDataCatalog] = None,
        bandwidth: float = 10e6,
        host_speed: float = 1.0,
        failure_rate: float = 0.0,
        seed: int = 0,
        instrumentation: Optional[Instrumentation] = None,
        fault_plan: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryConfig] = None,
    ) -> "VirtualDataSystem":
        """Build a system attached to a fresh simulated grid.

        ``sites`` maps site names to host counts — e.g. the paper's
        SDSS testbed is ``{"anl": 200, "uc": 200, "uw": 200,
        "ufl": 200}`` (four sites, ~800 hosts).

        ``fault_plan`` attaches a deterministic
        :class:`~repro.resilience.FaultInjector` to the grid (outages,
        transfer faults, stragglers, corruption); ``recovery`` sets the
        scheduler's recovery posture (backoff, breakers, failover —
        see :meth:`~repro.resilience.RecoveryConfig.hardened`).

        Passing an :class:`~repro.observability.Instrumentation`
        threads one tracer + metrics registry through the catalog,
        planner, scheduler, executor and grid, with spans stamped in
        both wall and simulation time.
        """
        vds = cls(
            catalog=catalog,
            authority=authority,
            instrumentation=instrumentation,
        )
        vds.simulator = Simulator(instrumentation=vds.obs)
        vds.obs.bind_simulator(vds.simulator)
        vds.network = uniform_topology(sorted(sites), bandwidth=bandwidth)
        vds.network.obs = vds.obs
        site_objects = {
            name: Site(name, hosts=count, speed=host_speed)
            for name, count in sites.items()
        }
        replicas = ReplicaLocationService(vds.network)
        injector = None
        if fault_plan is not None and not fault_plan.is_null:
            injector = FaultInjector(fault_plan, instrumentation=vds.obs)
        vds.grid = GridExecutionService(
            vds.simulator,
            site_objects,
            vds.network,
            replicas,
            failure_rate=failure_rate,
            seed=seed,
            instrumentation=vds.obs,
            injector=injector,
        )
        vds.selector = SiteSelector(
            site_objects, vds.network, replicas, ProcedureRegistry()
        )
        vds.executor = GridExecutor(
            vds.catalog,
            vds.grid,
            vds.selector,
            estimator=vds.estimator,
            instrumentation=vds.obs,
            recovery=recovery,
        )
        return vds

    @property
    def replicas(self) -> ReplicaLocationService:
        self._require_grid()
        return self.grid.replicas

    def _require_grid(self) -> None:
        if self.grid is None:
            raise PlanningError(
                "this VirtualDataSystem has no grid; build it with "
                "VirtualDataSystem.with_grid(...)"
            )

    # -- composition (§5.1) -------------------------------------------------------

    def define(self, vdl_source: str, replace: bool = False) -> "VirtualDataSystem":
        """Register VDL definitions (transformations and derivations)."""
        with self.obs.span("vds.define"):
            self.catalog.define(vdl_source, replace=replace)
        return self

    def lint(self, source: Optional[str] = None, incremental: bool = False):
        """Statically analyze VDL ``source``, or the whole catalog.

        Returns a :class:`repro.analysis.LintResult`; see
        ``docs/LINTING.md`` for the diagnostic codes.  With
        ``incremental=True`` (catalog mode only) the catalog's
        incremental analyzer checks its own graph, re-checking only what
        changed since its last lint, instead of re-exporting and
        re-parsing the VDL.
        """
        from repro.analysis import Linter

        linter = Linter(obs=self.obs)
        if source is None:
            return linter.lint_catalog(self.catalog, incremental=incremental)
        return linter.lint_source(source, catalog=self.catalog)

    def analyze(self, passes: Optional[tuple[str, ...]] = None):
        """Whole-graph dataflow analysis of the catalog.

        Runs the incremental analyzer's passes (staleness, dead-data,
        type-flow, output-conflict — or the subset named in
        ``passes``) and returns a :class:`repro.analysis.LintResult`.
        Repeated calls after catalog mutations re-solve only the dirty
        region of the derivation graph.
        """
        from repro.analysis.linter import LintResult

        analyzer = self.catalog.live_analyzer()
        result = LintResult(file=analyzer.file)
        result.diagnostics = analyzer.diagnostics(passes=passes)
        return result

    def seed_dataset(self, name: str, site: str, size: int) -> None:
        """Place a raw source dataset on the grid (and in the catalog)."""
        self._require_grid()
        site_obj = self.grid.sites[site]
        site_obj.storage.store(name, size, self.simulator.now)
        self.replicas.register(name, site, size)
        if not self.catalog.has_dataset(name):
            self.catalog.add_dataset(Dataset(name=name, attributes={"size": size}))

    # -- planning (§5.2) -------------------------------------------------------------

    def plan(
        self,
        targets: str | tuple[str, ...],
        reuse: str = "cost",
        pattern: str = "ship-data",
        max_hosts: Optional[int] = None,
    ) -> Plan:
        """Expand a materialization request into a workflow DAG."""
        request = MaterializationRequest(
            targets=targets if not isinstance(targets, str) else (targets,),
            reuse=reuse,
            pattern=pattern,
            max_hosts=max_hosts,
        )
        with self.obs.span("vds.plan"), self.obs.phase("plan"):
            if self.executor is not None:
                return self.executor.plan(request)
            from repro.planner.dag import Planner

            return Planner(
                self.catalog,
                cpu_estimate=self.estimator.estimate_derivation,
                instrumentation=self.obs,
            ).plan(request)

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

    def train_on_history(self, history) -> dict[str, Any]:
        """Refit cost models from a run-history metastore.

        ``history`` is a
        :class:`~repro.observability.history.HistoryStore`; every
        successful invocation it has ingested feeds the per-
        transformation fits (see
        :meth:`~repro.estimator.cost.Estimator.train_on_history`).
        """
        return self.estimator.train_on_history(history)

    def apply_site_health(
        self, health, scale: float = 60.0
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
        self._require_grid()
        if isinstance(health, dict):
            penalties = dict(health)
        else:
            from repro.observability.health import health_penalties

            penalties = health_penalties(health, scale=scale)
        known = {s: p for s, p in penalties.items() if s in self.selector.sites}
        self.selector.set_penalties(known)
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
        at that simulation time and returns the partial result.
        """
        self._require_grid()
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
            return self.executor.materialize(
                request, rescue=rescue, until=until
            )

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

    def discover_transformations(self, **kwargs):
        return self.catalog.find_transformations(**kwargs)

    def lineage(self, dataset_name: str) -> LineageReport:
        """The complete audit trail of a dataset (§2 Provenance)."""
        return lineage_report(self.catalog, dataset_name)

    # -- sharing (Fig 3/4) --------------------------------------------------------------------

    def share_with(self, other: VirtualDataCatalog) -> None:
        """Make another community catalog reachable for resolution."""
        self.catalogs.register(other)
        if other.authority not in self.resolver.scope_chain:
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
