"""Tests for the DAGMan-style workflow scheduler (§5.4)."""

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.errors import ExecutionError
from repro.grid.gram import GridExecutionService
from repro.grid.network import uniform_topology
from repro.grid.replica_catalog import ReplicaLocationService
from repro.grid.simulator import Simulator
from repro.grid.site import Site
from repro.observability.instrument import Instrumentation
from repro.observability.recorder import FlightRecorder, RunRecord
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest
from repro.planner.scheduler import WorkflowScheduler
from repro.planner.strategies import SiteSelector
from repro.resilience import (
    FAIL_FAST,
    RUN_WHAT_YOU_CAN,
    ExponentialBackoff,
    RecoveryConfig,
)
from tests.conftest import DIAMOND_VDL
from tests.resilience.conftest import TWO_BRANCH_VDL, StepKiller
from tests.resilience.conftest import make_world as make_fault_world


def make_world(hosts=4, failure_rate=0.0, seed=3):
    catalog = MemoryCatalog().define(DIAMOND_VDL)
    sim = Simulator()
    net = uniform_topology(["a", "b"])
    sites = {"a": Site("a", hosts=hosts), "b": Site("b", hosts=hosts)}
    rls = ReplicaLocationService(net)
    grid = GridExecutionService(
        sim, sites, net, rls, failure_rate=failure_rate, seed=seed
    )
    selector = SiteSelector(sites, net, rls)
    planner = Planner(catalog, has_replica=rls.has, cpu_estimate=lambda dv: 10.0)
    plan = planner.plan(
        MaterializationRequest(targets=("final",), reuse="never")
    )
    return catalog, sim, grid, selector, plan, rls


class TestExecution:
    def test_runs_whole_dag(self):
        _, _, grid, selector, plan, rls = make_world()
        result = WorkflowScheduler(grid, selector).run(plan)
        assert result.succeeded
        assert set(result.outcomes) == set(plan.steps)
        assert rls.has("final")

    def test_dependency_order_respected(self):
        _, _, grid, selector, plan, _ = make_world()
        result = WorkflowScheduler(grid, selector).run(plan)
        starts = {n: o.record.start_time for n, o in result.outcomes.items()}
        ends = {n: o.record.end_time for n, o in result.outcomes.items()}
        assert starts["s1"] >= ends["g1"]
        assert starts["a1"] >= max(ends["s1"], ends["s2"])

    def test_parallel_branches_overlap(self):
        _, _, grid, selector, plan, _ = make_world()
        result = WorkflowScheduler(grid, selector).run(plan)
        # g1 and g2 have no mutual dependency: same start time.
        assert (
            result.outcomes["g1"].record.start_time
            == result.outcomes["g2"].record.start_time
        )
        # 3 levels of 10s work
        assert result.makespan == pytest.approx(30.0)

    def test_makespan_with_width_one(self):
        _, _, grid, selector, plan, _ = make_world()
        scheduler = WorkflowScheduler(grid, selector, max_hosts=1)
        result = scheduler.run(plan)
        # Serialized on one host per site... width cap applies per site;
        # with the default ship-data both sites are usable, so at least
        # the chain length bound holds.
        assert result.makespan >= 30.0

    def test_total_metrics(self):
        _, _, grid, selector, plan, _ = make_world()
        result = WorkflowScheduler(grid, selector).run(plan)
        assert result.total_cpu_seconds() == pytest.approx(50.0)
        assert result.total_queue_seconds() >= 0.0
        assert result.sites_used() <= {"a", "b"}
        assert 1 <= len(result.hosts_used()) <= 8

    def test_missing_source_detected_before_dispatch(self):
        catalog, sim, grid, selector, _, rls = make_world()
        planner = Planner(catalog, has_replica=lambda lfn: lfn == "ghost")
        catalog.define(
            """
            TR use( output o, input i ) {
              argument stdin = ${input:i};
              argument stdout = ${output:o};
              exec = "/bin/use";
            }
            DV u1->use( o=@{output:"derived"}, i=@{input:"ghost"} );
            """
        )
        plan = planner.plan(
            MaterializationRequest(targets=("derived",), reuse="never")
        )
        assert plan.sources == {"ghost"}
        with pytest.raises(ExecutionError):
            WorkflowScheduler(grid, selector).run(plan)

    def test_step_listener_called(self):
        _, _, grid, selector, plan, _ = make_world()
        seen = []
        scheduler = WorkflowScheduler(
            grid,
            selector,
            step_listener=lambda step, choice, record: seen.append(step.name),
        )
        scheduler.run(plan)
        assert sorted(seen) == sorted(plan.steps)


class TestRetries:
    def test_retries_recover_failures(self):
        _, _, grid, selector, plan, _ = make_world(failure_rate=0.4, seed=0)
        result = WorkflowScheduler(grid, selector, max_retries=10).run(plan)
        assert result.succeeded
        attempts = [o.attempts for o in result.outcomes.values()]
        assert max(attempts) > 1  # at least one retry happened

    def test_exhausted_retries_fail_workflow(self):
        _, _, grid, selector, plan, _ = make_world(failure_rate=0.95, seed=1)
        result = WorkflowScheduler(grid, selector, max_retries=1).run(plan)
        assert not result.succeeded
        assert result.failed_steps

    def test_negative_retries_rejected(self):
        _, _, grid, selector, _, _ = make_world()
        with pytest.raises(Exception):
            WorkflowScheduler(grid, selector, max_retries=-1)


class TestSkipOrder:
    """Steps skipped behind a permanent failure are recorded in name
    order, whatever order string sets iterate in (``PYTHONHASHSEED``)."""

    BRANCHES = ["m", "c", "x", "a", "q", "k", "b", "z", "f", "s", "h", "e"]

    def vdl(self) -> str:
        lines = [TWO_BRANCH_VDL.split("DV ga")[0]]
        lines.append('DV g->gen( o=@{output:"root"}, seed="1" );')
        for b in self.BRANCHES:
            lines.append(
                f'DV c{b}->proc( o=@{{output:"m{b}"}}, i=@{{input:"root"}} );'
            )
            lines.append(
                f'DV f{b}->proc( o=@{{output:"t{b}"}}, i=@{{input:"m{b}"}} );'
            )
        return "\n".join(lines)

    @pytest.mark.parametrize("policy", [FAIL_FAST, RUN_WHAT_YOU_CAN])
    def test_skipped_steps_and_events_in_name_order(self, tmp_path, policy):
        world = make_fault_world(
            self.vdl(),
            tuple(f"t{b}" for b in self.BRANCHES),
            injector=StepKiller("g"),
        )
        obs = Instrumentation()
        recorder = FlightRecorder.start(tmp_path, command="skip order")
        obs.attach_recorder(recorder)
        result = WorkflowScheduler(
            world.grid,
            world.selector,
            max_retries=0,
            instrumentation=obs,
            recovery=RecoveryConfig(failure_policy=policy),
        ).run(world.plan)
        recorder.finalize(obs, status="error")
        expected = sorted(
            [f"c{b}" for b in self.BRANCHES] + [f"f{b}" for b in self.BRANCHES]
        )
        assert result.failed_steps == {"g"}
        assert list(result.skipped_steps) == expected
        assert set(result.skipped_steps.values()) == {"upstream-failed:g"}
        events = RunRecord.load(recorder.path).events
        assert [
            e["step"] for e in events if e["kind"] == "step.skipped"
        ] == expected


class FirstAttemptKiller(StepKiller):
    """Fails only the first attempt of each named step."""

    def run_fault(self, job, site, start, end):
        if job in self.doomed:
            self.doomed.discard(job)
            self._record(self.kind)
            return (self.kind, f"injected {self.kind} fault for test")
        return None


class TestWidthCap:
    """``max_hosts`` bounds every submission, retries included."""

    VDL = TWO_BRANCH_VDL.split("DV ga")[0] + "".join(
        f'DV g{x}->gen( o=@{{output:"{x}0"}}, seed="{i}" );\n'
        for i, x in enumerate("abcd")
    )

    def test_backoff_retry_waits_for_a_slot(self):
        # ga fails at t=10 and is due again at t=15, while gc and gd
        # hold both slots; it must wait for one of them to finish.
        world = make_fault_world(
            self.VDL,
            ("a0", "b0", "c0", "d0"),
            injector=FirstAttemptKiller("ga", kind="transient"),
        )
        result = WorkflowScheduler(
            world.grid,
            world.selector,
            max_retries=2,
            max_hosts=2,
            recovery=RecoveryConfig(
                retry_policy=ExponentialBackoff(base=5.0, jitter=0.0)
            ),
        ).run(world.plan)
        assert result.succeeded
        assert result.outcomes["ga"].attempts == 2
        assert result.peak_in_flight <= 2
        assert result.outcomes["ga"].record.start_time >= 20.0
