"""The four workloads of the pipeline ledger.

Each drives ``repro`` through its public API only and stresses a
different set of layers (``README.md`` says why each was chosen).  A
workload builds its inputs in :meth:`setup` (untimed), runs its timed
sections against a :class:`~benchmarks.pipeline.harness.Rep` in
:meth:`run`, and applies its correctness gates in :meth:`verify`.
Sizes were chosen so one repetition takes a few seconds on two cores:
the driver's time cap leaves about half a minute per process.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Any, Optional

from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.cli import Workspace
from repro.core.derivation import Derivation
from repro.durability.checksum import file_digest
from repro.executor.local import LocalExecutor
from repro.observability import Instrumentation
from repro.observability import analysis as obs_analysis
from repro.planner.dag import Frontier, Planner
from repro.planner.request import MaterializationRequest
from repro.provenance import lineage
from repro.resilience import FaultPlan, RecoveryConfig
from repro.system import VirtualDataSystem
from repro.workloads import canonical

from benchmarks.pipeline.harness import Context, Rep, latency_rows, summarize
from benchmarks.pipeline.trace import Tracer

#: Never more threads or processes than the two cores of the box.
WORKERS = 2


# -- shared helpers ----------------------------------------------------------


def canonical_vdl(nodes: int, layers: int, seed: int):
    """A canonical graph as (description, VDL text)."""
    scratch = MemoryCatalog()
    info = canonical.generate_graph(
        scratch, nodes=nodes, layers=layers, max_fanin=3, seed=seed, fast=True
    )
    return info, scratch.export_vdl()


def retag(catalog, name: str, tag: str, **options: Any) -> None:
    """Redefine derivation ``name`` with a new ``tag`` actual."""
    old = catalog.get_derivation(name)
    actuals = dict(old.actuals)
    actuals["tag"] = tag
    catalog.add_derivation(
        Derivation(
            name=name, transformation=old.transformation, actuals=actuals
        ),
        replace=True,
        **options,
    )


class _TracedBodies:
    """Stands in for an executor during ``register_bodies`` so every
    registered body gets an ``executor.body`` span."""

    def __init__(self, executor: LocalExecutor, tracer: Tracer):
        self._executor = executor
        self._tracer = tracer

    def register(self, executable: str, body) -> None:
        self._executor.register(
            executable, self._tracer.wrap("executor.body", body)
        )


def register_bodies(executor: LocalExecutor, tracer: Optional[Tracer]) -> None:
    canonical.register_bodies(
        executor if tracer is None else _TracedBodies(executor, tracer)
    )


def dispatch_overhead_us(seconds: float, invocations) -> float:
    """(leg wall - sum of body wall) / steps, in microseconds."""
    body = sum(inv.usage.wall_seconds for inv in invocations)
    return (seconds - body) / len(invocations) * 1e6


class CacheProbe:
    """Cache hit ratios over the timed region of a traced repetition,
    read from ``cache_stats()``, the graph cache and the counters of the
    live ``Instrumentation`` the workload passed in."""

    _COUNTERS = {
        "catalog.index.hit_ratio": "catalog.index",
        "planner.plan_cache.hit_ratio": "planner.plan.cache",
    }

    def __init__(self, obs: Instrumentation, catalogs: list):
        self._obs = obs
        self._catalogs = catalogs
        self._before = self._read()

    def _read(self) -> dict[str, tuple[float, float]]:
        cache = [c.cache_stats() for c in self._catalogs]
        graph = [c.graph_cache().stats() for c in self._catalogs]
        out = {
            "catalog.cache.hit_ratio": (
                sum(s["hits"] for s in cache), sum(s["misses"] for s in cache)
            ),
            "provenance.graphcache.hit_ratio": (
                sum(s["hits"] for s in graph), sum(s["misses"] for s in graph)
            ),
        }
        for name, counter in self._COUNTERS.items():
            out[name] = (
                self._obs.metrics.counter(f"{counter}.hits").total(),
                self._obs.metrics.counter(f"{counter}.misses").total(),
            )
        return out

    def finish(self, rep: Rep, opened_since=()) -> None:
        """Write the ratios; ``opened_since`` are catalogs opened inside
        the timed region (all their traffic counts)."""
        self._catalogs = [*self._catalogs, *opened_since]
        for name, (hits, misses) in self._read().items():
            hits -= self._before[name][0]
            misses -= self._before[name][1]
            rep.counts[name] = hits / (hits + misses) if hits + misses else 0.0


def cache_probe(ctx: Context, obs, catalogs: list) -> Optional[CacheProbe]:
    return CacheProbe(obs, catalogs) if ctx.tracer is not None else None


def live_obs(ctx: Context) -> Optional[Instrumentation]:
    """A live Instrumentation on traced repetitions only."""
    return Instrumentation() if ctx.tracer is not None else None


class Workload:
    """What the harness calls, in this order, once per repetition."""

    name: str

    def setup(self, ctx: Context) -> Any:
        """Build the inputs under ``ctx.dir`` (untimed); returns the
        state the other methods get."""
        raise NotImplementedError

    def run(self, state: Any, rep: Rep) -> None:
        """The timed sections, each inside ``rep.phase``/``rep.sample``."""
        raise NotImplementedError

    def verify(self, state: Any, rep: Rep) -> None:
        """Correctness gates too costly to sit between timed sections."""

    def close(self, state: Any) -> None:
        """Release handles the state holds open."""

    def metrics(self, reps: list[Rep]) -> dict[str, dict]:
        """This workload's own end-to-end metrics."""
        raise NotImplementedError


# -- campaign-cold -----------------------------------------------------------


class CampaignCold(Workload):
    """The write-heavy full §5 flow on the CLI's own wiring."""

    name = "campaign-cold"

    def __init__(self, nodes: int = 800, layers: int = 12):
        self.nodes = nodes
        self.layers = layers

    def setup(self, ctx: Context):
        info, text = canonical_vdl(self.nodes, self.layers, ctx.seed)
        vdl_path = ctx.dir / "campaign.vdl"
        vdl_path.write_text(text)
        ws = Workspace(ctx.dir / "ws")
        ws.create()
        return SimpleNamespace(
            ctx=ctx, info=info, vdl_path=vdl_path, ws=ws, catalogs=[]
        )

    def _catalog(self, state):
        # Each CLI command opens the workspace afresh; so does each phase.
        catalog = state.ws.catalog()
        state.catalogs.append(catalog)
        return catalog

    def run(self, state, rep: Rep) -> None:
        ws, info = state.ws, state.info
        with rep.phase("define"):
            self._catalog(state).define(state.vdl_path.read_text())
        with rep.phase("materialize"):
            obs = Instrumentation()
            recorder = ws.start_recorder("bench campaign-cold")
            obs.attach_recorder(recorder)
            executor = ws.executor(instrumentation=obs)
            state.catalogs.append(executor.catalog)
            register_bodies(executor, rep.tracer)
            probe = cache_probe(state.ctx, obs, [executor.catalog])
            invocations = []
            for sink in info.sink_datasets:
                invocations.extend(executor.materialize(sink, workers=1))
            ws.save_snapshot(obs)
            recorder.finalize(obs, status="ok")
        with rep.phase("analyze"):
            catalog = self._catalog(state)
            diagnostics = catalog.live_analyzer().diagnostics()
        with rep.phase("fsck"):
            report = ws.recovery(catalog=catalog).fsck(checksums=True)
        if probe is not None:
            probe.finish(rep)
        rep.ops = self.nodes
        rep.counts["analysis.diagnostics.count"] = len(diagnostics)
        rep.counts["durability.fsck.findings"] = len(report.findings)
        rep.counts["executor.sequential.overhead_us_per_step"] = (
            dispatch_overhead_us(rep.phases["materialize"], invocations)
        )
        state.executor = executor
        state.catalog = catalog
        state.invocations = invocations

    def verify(self, state, rep: Rep) -> None:
        info, catalog = state.info, state.catalog
        rep.check(
            len(state.invocations) == self.nodes
            and catalog.counts()["invocation"] == self.nodes,
            f"campaign-cold: {len(state.invocations)} invocations, "
            f"expected {self.nodes}",
        )
        missing = [
            sink for sink in info.sink_datasets
            if not state.executor.path_for(sink).exists()
        ]
        rep.check(not missing, f"campaign-cold: sinks not written: {missing[:3]}")
        rep.check(
            rep.counts["durability.fsck.findings"] == 0,
            "campaign-cold: fsck reported findings",
        )
        sources = set(info.derivations[: len(info.source_datasets)])
        trail = lineage.lineage_report(catalog, info.sink_datasets[-1])
        rep.check(
            bool(trail.all_derivations() & sources),
            "campaign-cold: a sink's lineage does not reach a canon0 source",
        )

    def close(self, state) -> None:
        for catalog in state.catalogs:
            catalog.journal.close()

    def metrics(self, reps: list[Rep]) -> dict[str, dict]:
        return {
            "define_per_s": summarize(
                [self.nodes / rep.phases["define"] for rep in reps]
            ),
            "steps_per_s": summarize(
                [self.nodes / rep.phases["materialize"] for rep in reps]
            ),
        }


# -- plan-scale --------------------------------------------------------------


class _PlanRecord:
    """Unit-duration timings over a plan, so ``compute_slack`` can run
    on a plan that was never executed."""

    def __init__(self, plan, order):
        self._timings = {
            name: {"step": name, "start": float(i), "end": float(i) + 1.0}
            for i, name in enumerate(order)
        }
        self._deps = plan.dependencies

    def step_timings(self):
        return self._timings

    def dependencies(self):
        return self._deps


class PlanScale(Workload):
    """Catalog store, graph build, planner and analysis; nothing runs."""

    name = "plan-scale"

    def __init__(self, nodes: int = 15_000, layers: int = 25,
                 mutations: int = 40):
        self.nodes = nodes
        self.layers = layers
        self.mutations = mutations

    def setup(self, ctx: Context):
        obs = live_obs(ctx)
        catalog = MemoryCatalog(instrumentation=obs)
        canonical.define_transformations(catalog)
        rng = random.Random(ctx.seed)
        # Derivation names are fixed by the generator: cg.n<index>.
        victims = [
            f"cg.n{index:06d}"
            for index in rng.sample(
                range(self.nodes // 2, self.nodes), self.mutations + 1
            )
        ]
        return SimpleNamespace(
            ctx=ctx, obs=obs, catalog=catalog, victims=victims
        )

    def run(self, state, rep: Rep) -> None:
        catalog, nodes = state.catalog, self.nodes
        probe = cache_probe(state.ctx, state.obs, [catalog])
        with rep.phase("store"):
            info = canonical.generate_graph(
                catalog, nodes=nodes, layers=self.layers, max_fanin=3,
                seed=state.ctx.seed, fast=True,
            )
        planner = Planner(
            catalog, incremental=True, instrumentation=state.obs
        )
        request = MaterializationRequest(
            targets=tuple(sorted(info.sink_datasets)), reuse="never"
        )
        with rep.phase("plan"):
            plan = planner.plan(request)
        rep.check(len(plan.steps) == nodes, "plan-scale: cold plan size")
        with rep.phase("drain"):
            order = plan.topological_order()
            frontier = Frontier(plan)
            drained = 0
            while True:
                ready = frontier.ready()
                if not ready:
                    break
                for name in ready:
                    frontier.complete(name)
                    drained += 1
        rep.check(drained == nodes, "plan-scale: frontier drained every step")
        with rep.phase("slack"):
            slack = obs_analysis.compute_slack(_PlanRecord(plan, order))
        rep.check(len(slack) == nodes, "plan-scale: slack covers every step")
        mutate = dict(validate=False, auto_declare=False)
        for round_no, victim in enumerate(state.victims[:-1]):
            with rep.sample("mutate"):
                retag(catalog, victim, f"mut-{round_no}", **mutate)
            with rep.sample("replan"):
                patched = planner.plan(request)
            rep.check(len(patched.steps) == nodes, "plan-scale: replan size")
        with rep.phase("analyze_cold"):
            analyzer = catalog.live_analyzer()
            diagnostics = analyzer.diagnostics()
        with rep.sample("mutate"):
            retag(catalog, state.victims[-1], "mut-last", **mutate)
        with rep.phase("analyze_incremental"):
            again = analyzer.diagnostics()
        if probe is not None:
            probe.finish(rep)
        rep.ops = nodes
        rep.counts["analysis.diagnostics.count"] = len(diagnostics) + len(again)

    def metrics(self, reps: list[Rep]) -> dict[str, dict]:
        rows = {
            "store_nodes_per_s": summarize(
                [self.nodes / rep.phases["store"] for rep in reps]
            ),
            "plan_steps_per_s": summarize(
                [self.nodes / rep.phases["plan"] for rep in reps]
            ),
            "analyze_cold_s": summarize(
                [rep.phases["analyze_cold"] for rep in reps]
            ),
        }
        rows.update(latency_rows(reps, "replan", "replan"))
        rows.pop("replan_p95_ms", None)
        return rows


# -- reuse-session -----------------------------------------------------------


class ReuseSession(Workload):
    """One long-lived SQLite handle serving point reads, cache hits and
    small incremental writes (the §6 interactive-analysis session)."""

    name = "reuse-session"
    #: Request mix, in fortieths: reuse, lineage, rederive, discover.
    MIX = (("reuse", 20), ("lineage", 11), ("rederive", 8), ("discover", 1))

    def __init__(self, nodes: int = 1000, layers: int = 12,
                 requests: int = 1600):
        self.nodes = nodes
        self.layers = layers
        self.requests = requests

    def setup(self, ctx: Context):
        obs = live_obs(ctx)
        db_path = ctx.dir / "vdc.sqlite"
        catalog = SQLiteCatalog(str(db_path), instrumentation=obs)
        info = canonical.generate_graph(
            catalog, nodes=self.nodes, layers=self.layers, max_fanin=3,
            seed=ctx.seed, fast=True,
        )
        executor = LocalExecutor(
            catalog, ctx.dir / "sandbox", instrumentation=obs
        )
        register_bodies(executor, ctx.tracer)
        for sink in info.sink_datasets:
            executor.materialize(sink)
        analyzer = catalog.live_analyzer()
        analyzer.diagnostics()
        rng = random.Random(ctx.seed)
        kinds = [
            kind for kind, share in self.MIX
            for _ in range(self.requests * share // 40)
        ]
        rng.shuffle(kinds)
        upper = info.derivations[self.nodes // 2:]
        plan = []
        for number, kind in enumerate(kinds):
            if kind == "reuse":
                plan.append((kind, rng.choice(info.sink_datasets)))
            elif kind == "lineage":
                plan.append((kind, rng.choice(info.all_datasets)))
            elif kind == "rederive":
                plan.append((kind, (rng.choice(upper), f"re-{number}")))
            else:
                hundreds = max(1, self.nodes // 100)
                plan.append((kind, f"cg.n{rng.randrange(hundreds):04d}*"))
        return SimpleNamespace(
            ctx=ctx, obs=obs, db_path=db_path, catalog=catalog, info=info,
            executor=executor, analyzer=analyzer, plan=plan, reopened=None,
        )

    def run(self, state, rep: Rep) -> None:
        catalog, executor, analyzer = (
            state.catalog, state.executor, state.analyzer
        )
        probe = cache_probe(state.ctx, state.obs, [catalog])
        for kind, arg in state.plan:
            if kind == "reuse":
                with rep.sample("reuse"):
                    invocations = executor.materialize(arg)
                rep.check(not invocations, f"reuse-session: reuse of {arg} ran")
            elif kind == "lineage":
                with rep.sample("lineage"):
                    lineage.lineage_report(catalog, arg)
            elif kind == "rederive":
                name, tag = arg
                output = catalog.get_derivation(name).outputs()[0]
                path = executor.path_for(output)
                before = path.read_bytes()
                with rep.sample("rederive"):
                    retag(catalog, name, tag)
                    analyzer.diagnostics(passes=("staleness",))
                    path.unlink()
                    invocations = executor.materialize(output)
                rep.check(
                    len(invocations) == 1 and path.read_bytes() != before,
                    f"reuse-session: rederive of {name} ran "
                    f"{len(invocations)} steps or left its bytes unchanged",
                )
            else:
                with rep.sample("discover"):
                    found = catalog.find_datasets(name_glob=arg)
                rep.check(bool(found), f"reuse-session: {arg} matched nothing")
        with rep.phase("reopen"):
            state.reopened = SQLiteCatalog(
                str(state.db_path), instrumentation=state.obs
            )
            lineage.lineage_report(state.reopened, state.info.sink_datasets[0])
        if probe is not None:
            probe.finish(rep, opened_since=[state.reopened])
        rep.ops = len(state.plan) + 1

    def verify(self, state, rep: Rep) -> None:
        rep.check(
            state.reopened.counts() == state.catalog.counts(),
            "reuse-session: reopened catalog disagrees with the live one",
        )

    def close(self, state) -> None:
        if state.reopened is not None:
            state.reopened.close()
        state.catalog.close()

    def metrics(self, reps: list[Rep]) -> dict[str, dict]:
        rows = {}
        for kind in ("reuse", "lineage", "rederive", "discover"):
            rows.update(latency_rows(reps, kind, kind))
        for extra in ("lineage_p95_ms", "rederive_p95_ms", "discover_p95_ms"):
            rows.pop(extra, None)
        rows["reopen_s"] = summarize([rep.phases["reopen"] for rep in reps])
        return rows


# -- dispatch-loops ----------------------------------------------------------


class DispatchLoops(Workload):
    """One plan through the thread pool, the process pool and the
    simulated grid's scheduler."""

    name = "dispatch-loops"
    #: The paper's 120 hosts.
    SITES = {"anl": 30, "uc": 30, "ufl": 30, "uw": 30}
    LEGS = ("thread", "process", "grid")

    def __init__(self, nodes: int = 500, layers: int = 6):
        self.nodes = nodes
        self.layers = layers

    def _vdl(self, seed: int) -> tuple[str, str, int]:
        """Canonical graph plus a canon4 reduction tree over its sinks:
        (VDL text, the single target, step count)."""
        info, text = canonical_vdl(self.nodes, self.layers, seed)
        level = list(info.sink_datasets)
        chunks = [text]
        count = 0
        while len(level) > 1:
            merged = []
            for start in range(0, len(level), canonical.MAX_FANIN):
                group = level[start:start + canonical.MAX_FANIN]
                name = f"red.n{count:05d}"
                bindings = "".join(
                    f'i{k}=@{{input:"{ds}"}}, ' for k, ds in enumerate(group)
                )
                chunks.append(
                    f'DV {name}->canon{len(group)}( '
                    f'o=@{{output:"{name}.out"}}, {bindings}tag="r{count}" );\n'
                )
                merged.append(f"{name}.out")
                count += 1
            level = merged
        return "".join(chunks), level[0], self.nodes + count

    def setup(self, ctx: Context):
        text, target, steps = self._vdl(ctx.seed)
        obs = live_obs(ctx)
        catalogs = {}
        for leg in self.LEGS:
            catalogs[leg] = MemoryCatalog(instrumentation=obs)
            catalogs[leg].define(text)
        executors = {}
        for leg in ("thread", "process"):
            executors[leg] = LocalExecutor(
                catalogs[leg], ctx.dir / leg, instrumentation=obs
            )
        # Process-pool bodies are pickled by reference, so that leg
        # registers the plain module-level bodies.
        register_bodies(executors["thread"], ctx.tracer)
        register_bodies(executors["process"], None)
        vds = VirtualDataSystem.with_grid(
            dict(self.SITES),
            catalog=catalogs["grid"],
            instrumentation=obs,
            fault_plan=FaultPlan(seed=ctx.seed, transient_rate=0.05),
            recovery=RecoveryConfig.hardened(seed=ctx.seed),
        )
        # Enough resubmissions that a 5 % transient rate never exhausts
        # them: the workload must not fail by chance.
        vds.executor.max_retries = 10
        return SimpleNamespace(
            ctx=ctx, obs=obs, target=target, steps=steps, catalogs=catalogs,
            executors=executors, vds=vds,
        )

    def run(self, state, rep: Rep) -> None:
        probe = cache_probe(
            state.ctx, state.obs, list(state.catalogs.values())
        )
        ran = {}
        for leg in ("thread", "process"):
            with rep.phase(leg):
                ran[leg] = state.executors[leg].materialize(
                    state.target, workers=WORKERS, backend=leg
                )
            rep.counts[f"executor.{leg}.overhead_us_per_step"] = (
                dispatch_overhead_us(rep.phases[leg], ran[leg])
            )
        with rep.phase("grid"):
            result = state.vds.materialize(state.target, reuse="never")
        if probe is not None:
            probe.finish(rep)
        rep.ops = state.steps * len(self.LEGS)
        rep.counts["plan.steps"] = state.steps
        attempts = sum(o.attempts for o in result.outcomes.values())
        rep.counts["grid.sim_makespan_s"] = result.makespan
        rep.counts["grid.sim_events.calls"] = (
            state.vds.simulator.events_processed
        )
        rep.counts["resilience.retries.calls"] = attempts - len(result.outcomes)
        state.ran = ran
        state.result = result

    def verify(self, state, rep: Rep) -> None:
        catalogs, executors = state.catalogs, state.executors
        for leg in ("thread", "process"):
            rep.check(
                len(state.ran[leg]) == state.steps,
                f"dispatch-loops: {leg} leg ran {len(state.ran[leg])} of "
                f"{state.steps} steps",
            )
        rep.check(
            catalogs["thread"].counts() == catalogs["process"].counts(),
            "dispatch-loops: thread and process catalogs differ",
        )
        digests = {
            leg: file_digest(executors[leg].path_for(state.target))
            for leg in ("thread", "process")
        }
        rep.check(
            digests["thread"] == digests["process"],
            "dispatch-loops: thread and process target files differ",
        )
        rep.check(
            state.result.succeeded
            and len(state.result.outcomes) == state.steps,
            "dispatch-loops: grid leg did not succeed",
        )

    def metrics(self, reps: list[Rep]) -> dict[str, dict]:
        return {
            f"{leg}_steps_per_s": summarize(
                [rep.counts["plan.steps"] / rep.phases[leg] for rep in reps]
            )
            for leg in self.LEGS
        }


#: name -> (measured workload, reduced-size warm-up).  ``BENCHMARK.json``
#: and ``README.md`` record why each was chosen.
WORKLOADS: dict[str, tuple[Workload, Workload]] = {
    "campaign-cold": (CampaignCold(), CampaignCold(nodes=60, layers=6)),
    "plan-scale": (PlanScale(), PlanScale(nodes=400, layers=8, mutations=4)),
    "reuse-session": (
        ReuseSession(), ReuseSession(nodes=80, layers=6, requests=80)
    ),
    "dispatch-loops": (DispatchLoops(), DispatchLoops(nodes=60, layers=4)),
}
