"""Full-stack tests through the VirtualDataSystem facade (Fig 5)."""

import pytest

from repro import VirtualDataSystem
from repro.cli import main
from repro.errors import VirtualDataError
from repro.resilience import RecoveryConfig
from repro.system import Workspace
from repro.workloads import sdss
from tests.conftest import DIAMOND_VDL


@pytest.fixture
def vds():
    system = VirtualDataSystem.with_grid(
        {"anl": 8, "uc": 8}, authority="vds.test"
    )
    system.define(DIAMOND_VDL)
    return system


class TestProcessFlow:
    def test_composition(self, vds):
        assert vds.catalog.counts()["transformation"] == 3
        assert vds.catalog.counts()["derivation"] == 5

    def test_planning(self, vds):
        plan = vds.plan("final", reuse="never")
        assert len(plan) == 5
        assert plan.depth() == 3

    def test_estimation_before_derivation(self, vds):
        plan = vds.plan("final", reuse="never")
        estimate = vds.estimate(plan)
        assert estimate.makespan_seconds > 0
        assert estimate.total_cpu_seconds == plan.total_cpu_seconds()

    def test_derivation_records_provenance(self, vds):
        result = vds.materialize("final", reuse="never")
        assert result.succeeded
        assert vds.replicas.has("final")
        assert vds.catalog.invocations_of("a1")
        lineage = vds.lineage("final")
        assert lineage.all_derivations() == {"g1", "g2", "s1", "s2", "a1"}
        assert lineage.steps[0].invocations

    def test_discovery(self, vds):
        hits = vds.discover_datasets(name_glob="sim*")
        assert {d.name for d in hits} == {"sim1", "sim2"}
        transformations = vds.discover_transformations(name_glob="a*")
        assert [t.name for t in transformations] == ["ana"]

    def test_deadline_feasibility(self, vds):
        assert vds.can_meet_deadline("final", 1e6)
        assert not vds.can_meet_deadline("final", 0.001)

    def test_reuse_across_requests(self, vds):
        vds.materialize("sim1", reuse="never")
        plan = vds.plan("final", reuse="always")
        assert "sim1" in plan.reused
        assert "s1" not in plan.steps
        result = vds.materialize("final", reuse="always")
        assert result.succeeded

    def test_estimate_vs_measured_shape(self, vds):
        plan = vds.plan("final", reuse="never")
        estimate = vds.estimate(plan)
        result = vds.materialize("final", reuse="never")
        # The analytic estimate should be within 3x of simulated truth.
        ratio = estimate.makespan_seconds / max(result.makespan, 1e-9)
        assert 1 / 3 <= ratio <= 3

    def test_sharing_and_federation(self, vds):
        other = VirtualDataSystem(authority="partner.org")
        other.define(
            'TR remote-tool( output o ) { exec = "/bin/rt"; }'
        )
        vds.share_with(other.catalog)
        tr, where = vds.resolver.transformation(
            __import__("repro.core.naming", fromlist=["VDPRef"]).VDPRef(
                "remote-tool"
            )
        )
        assert where is other.catalog
        index = vds.build_index("everything")
        assert "partner.org" in index.members()
        assert index.find("transformation", name_glob="remote-tool")

    def test_grid_required_for_materialize(self):
        no_grid = VirtualDataSystem()
        no_grid.define(DIAMOND_VDL)
        assert len(no_grid.plan("final", reuse="never")) == 5
        with pytest.raises(Exception):
            no_grid.materialize("final")


class TestSeededData:
    def test_seed_dataset(self, vds):
        vds.seed_dataset("survey.raw", "anl", 1_000_000)
        assert vds.replicas.has("survey.raw", "anl")
        assert vds.catalog.has_dataset("survey.raw")
        ds = vds.discover_datasets(name_glob="survey.*")[0]
        assert ds.size_estimate() == 1_000_000


class TestSDSSOnGrid:
    def test_small_campaign_on_grid(self):
        vds = VirtualDataSystem.with_grid(
            {"anl": 16, "uc": 16, "uw": 16, "ufl": 16},
            authority="sdss.test",
        )
        campaign = sdss.define_campaign(
            vds.catalog, fields=8, fields_per_stripe=4
        )
        for i, field in enumerate(campaign.field_datasets):
            vds.seed_dataset(
                field,
                ["anl", "uc", "uw", "ufl"][i % 4],
                sdss.FIELD_BYTES,
            )
        result = vds.materialize(tuple(campaign.targets), reuse="never")
        assert result.succeeded
        assert len(result.outcomes) == campaign.derivations
        assert len(result.sites_used()) >= 2
        lineage = vds.lineage(campaign.targets[0])
        assert lineage.depth() >= 5


#: Runs for real in the sandbox (``/bin/echo``, ``/bin/cp``).  The grid
#: chain uses its own transformation, which has no run history, so each
#: of its steps costs the estimator's default one simulated second.
WORKSPACE_VDL = """
TR emit( output o ) {
  argument stdout = ${output:o};
  argument msg = "hello-vdg";
  exec = "/bin/echo";
}
TR copy( output o, input i ) {
  argument = ${input:i}" "${output:o};
  exec = "/bin/cp";
}
TR relay( output o, input i ) {
  argument = ${input:i}" "${output:o};
  exec = "/bin/cp";
}
DV e1->emit( o=@{output:"e1.txt"} );
DV c1->copy( o=@{output:"c1.txt"}, i=@{input:"e1.txt"} );
DV c2->copy( o=@{output:"c2.txt"}, i=@{input:"c1.txt"} );
DV g2->relay( o=@{output:"g2.txt"}, i=@{input:"c2.txt"} );
DV g3->relay( o=@{output:"g3.txt"}, i=@{input:"g2.txt"} );
DV g4->relay( o=@{output:"g4.txt"}, i=@{input:"g3.txt"} );
"""

#: Simulated time at which the grid run is killed: part of the way
#: through the chain.
KILL_AT = 1.5


class TestOnDiskSession:
    """A session over a workspace, driven without the CLI, leaves what
    the equivalent ``repro`` commands leave."""

    def by_cli(self, tmp_path):
        vdl = tmp_path / "chain.vdl"
        vdl.write_text(WORKSPACE_VDL)
        root = tmp_path / "cli-ws"
        grid = ["run", "--target", "g4.txt", "--grid", "a=2,b=2"]
        for argv in (
            ["init"],
            ["define", str(vdl)],
            ["plan", "c2.txt"],
            ["materialize", "c2.txt"],
            ["fsck"],
            [*grid, "--kill-at", str(KILL_AT)],
            [*grid, "--rescue"],
        ):
            lines = []
            code = main(["--workspace", str(root), *argv], out=lines.append)
            assert code == 0, (argv, lines)
        return Workspace(root)

    def grid_session(self, workspace):
        session = VirtualDataSystem.open(workspace)
        assert session.preflight().clean
        session.start_run("run --target g4.txt")
        session.attach_grid(
            {"a": 2, "b": 2},
            recovery=RecoveryConfig.hardened(
                seed=0, failure_policy="run-what-you-can", step_timeout=None
            ),
        )
        session.seed_sources("g4.txt")
        return session

    def by_session(self, tmp_path):
        workspace = Workspace(tmp_path / "session-ws")
        workspace.create()
        VirtualDataSystem.open(workspace).define(WORKSPACE_VDL)

        plan = VirtualDataSystem.open(workspace).plan("c2.txt", reuse="always")
        assert plan.topological_order() == ["e1", "c1", "c2"]

        session = VirtualDataSystem.open(workspace)
        assert session.preflight().clean
        session.start_run("materialize c2.txt")
        ran = session.local.materialize("c2.txt", reuse="always")
        assert session.finish_run("ok") is None  # nothing profiled
        assert [inv.derivation_name for inv in ran] == ["e1", "c1", "c2"]

        session = VirtualDataSystem.open(workspace)
        assert session.fsck().clean
        session.save_snapshot()

        session = self.grid_session(workspace)
        killed = session.materialize("g4.txt", until=KILL_AT)
        assert killed.interrupted and not killed.succeeded
        rescue_path = session.rescue_path("g4.txt")
        session.save_rescue(killed, rescue_path)
        session.finish_run("ok", killed)

        session = self.grid_session(workspace)
        base = session.load_rescue(rescue_path)
        assert base is not None and base.completed
        resumed = session.materialize("g4.txt", rescue=base)
        assert resumed.succeeded and resumed.pre_completed
        session.save_rescue(resumed, rescue_path, base)
        session.finish_run("ok", resumed)
        return workspace

    @staticmethod
    def state(workspace):
        catalog = workspace.catalog()
        invocations = sorted(
            (inv.derivation_name, inv.status, inv.context.site)
            for inv in map(catalog.get_invocation, catalog.invocation_ids())
        )
        rescue = (workspace.rescue_dir / "g4.txt.rescue.json").read_text()
        catalog.journal.close()
        runs = [
            (
                run.status,
                run.result.get("makespan"),
                run.result.get("interrupted"),
                run.result.get("failed_steps"),
            )
            for run in workspace.list_runs()
        ]
        return catalog.counts(), invocations, rescue, runs

    def test_the_session_leaves_what_the_cli_leaves(self, tmp_path):
        counts, invocations, rescue, runs = self.state(
            self.by_session(tmp_path)
        )
        assert (counts, invocations, rescue, runs) == self.state(
            self.by_cli(tmp_path)
        )
        assert counts["invocation"] == len(invocations) == 9
        # The materialize, the killed grid run and its resume.
        assert [run[:3] for run in runs] == [
            ("ok", None, None),
            ("ok", KILL_AT, True),
            ("ok", 2.0, False),  # the two steps left, one second each
        ]
        # The resumed run finished the chain the killed run began.
        assert rescue.startswith('{"finished": true')
        assert '"step": "g4"' in rescue

    def test_a_memory_session_has_no_workspace(self):
        with pytest.raises(VirtualDataError, match="no workspace"):
            VirtualDataSystem().local
