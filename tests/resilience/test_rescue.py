"""Rescue-DAG recovery: rescue files, kill/resume, write-back
validation, and the resume-equivalence property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RescueError, WorkflowError
from repro.resilience import (
    FAIL_FAST,
    RUN_WHAT_YOU_CAN,
    RecoveryConfig,
    RescueFile,
    RescueStep,
    apply_rescue,
    expected_digest,
    plan_signature,
)
from repro.system import VirtualDataSystem
from tests.conftest import DIAMOND_VDL
from tests.resilience.conftest import StepKiller

#: Diamond step -> its outputs; the full materialization of "final".
STEP_OUTPUTS = {
    "g1": ["raw1"],
    "g2": ["raw2"],
    "s1": ["sim1"],
    "s2": ["sim2"],
    "a1": ["final"],
}
ALL_DATASETS = [lfn for outs in STEP_OUTPUTS.values() for lfn in outs]


def build_vds(recovery=None):
    vds = VirtualDataSystem.with_grid(
        {"a": 4, "b": 4}, authority="t.example", recovery=recovery
    )
    vds.define(DIAMOND_VDL)
    for name in ("gen", "sim", "ana"):
        tr = vds.catalog.get_transformation(name)
        tr.attributes.set("cost.cpu_seconds", 20.0)
        tr.attributes.set("cost.output_bytes", 10_000_000)
        vds.catalog.add_transformation(tr, replace=True)
    return vds


class TestRescueFile:
    def complete_rescue(self):
        vds = build_vds()
        result = vds.materialize("final", reuse="never")
        return vds, result, vds.executor.rescue_file(result)

    def test_distils_completed_run(self):
        _, result, rescue = self.complete_rescue()
        assert rescue.finished and not rescue.unfinished
        assert set(rescue.completed) == set(STEP_OUTPUTS)
        assert not rescue.failed and not rescue.skipped
        for name, entry in rescue.completed.items():
            assert entry.site == result.outcomes[name].site
            for lfn, meta in entry.outputs.items():
                assert meta["digest"] == expected_digest(lfn, meta["size"])

    def test_round_trips_through_json(self, tmp_path):
        _, _, rescue = self.complete_rescue()
        path = tmp_path / "final.rescue.json"
        rescue.save(path)
        loaded = RescueFile.load(path)
        assert loaded.to_dict() == rescue.to_dict()

    def test_rejects_newer_version(self):
        with pytest.raises(RescueError, match="newer"):
            RescueFile.from_dict(
                {"version": 99, "targets": ["x"], "signature": "s"}
            )

    def test_rejects_malformed(self, tmp_path):
        with pytest.raises(RescueError):
            RescueFile.from_dict({"signature": "s"})  # no targets
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(RescueError):
            RescueFile.load(path)

    def test_saved_form_is_line_oriented(self, tmp_path):
        _, _, rescue = self.complete_rescue()
        path = tmp_path / "final.rescue.json"
        rescue.save(path)
        import json

        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "rescue"
        # One line per step entry: a torn write costs one entry, not
        # the whole file.
        assert len(lines) == 1 + len(rescue.completed)

    def test_torn_tail_salvages_valid_prefix(self, tmp_path):
        _, _, rescue = self.complete_rescue()
        path = tmp_path / "final.rescue.json"
        rescue.save(path)
        raw = path.read_text().splitlines()
        # Simulate a crash mid-append: last entry line half-written.
        path.write_text("\n".join(raw[:-1]) + "\n" + raw[-1][: len(raw[-1]) // 2])
        loaded = RescueFile.load(path)
        assert loaded.truncated
        assert len(loaded.completed) == len(rescue.completed) - 1
        assert set(loaded.completed) < set(rescue.completed)
        # Saving rewrites the salvaged content whole, clearing the tear.
        loaded.save(path)
        assert not RescueFile.load(path).truncated

    def test_mid_file_garbage_still_rejected(self, tmp_path):
        _, _, rescue = self.complete_rescue()
        path = tmp_path / "final.rescue.json"
        rescue.save(path)
        raw = path.read_text().splitlines()
        raw.insert(1, "GARBAGE NOT JSON")
        path.write_text("\n".join(raw) + "\n")
        with pytest.raises(RescueError, match="unparseable"):
            RescueFile.load(path)

    def test_version1_file_still_loads(self, tmp_path):
        import json

        _, _, rescue = self.complete_rescue()
        legacy = rescue.to_dict()
        legacy["version"] = 1
        path = tmp_path / "v1.rescue.json"
        path.write_text(json.dumps(legacy, indent=2) + "\n")
        loaded = RescueFile.load(path)
        assert loaded.version == 1
        assert set(loaded.completed) == set(rescue.completed)

    def test_signature_mismatch_refused(self):
        vds, _, rescue = self.complete_rescue()
        # A differently shaped plan (subset target) must be refused:
        # resuming against it would skip the wrong work.
        other = vds.plan("sim1", reuse="never")
        assert plan_signature(other) != rescue.signature
        with pytest.raises(RescueError, match="does not match"):
            apply_rescue(other, rescue, vds.grid, catalog=vds.catalog)


class TestKillAndResume:
    def test_until_interrupts_without_raising(self):
        vds = build_vds()
        result = vds.materialize("final", reuse="never", until=25.0)
        assert result.interrupted and not result.succeeded
        assert not result.failed_steps
        # The kill leaves no abandoned events to replay into a resume.
        assert vds.simulator.pending() == 0

    def test_resume_runs_only_unfinished_steps(self):
        vds = build_vds()
        partial = vds.materialize("final", reuse="never", until=25.0)
        finished_early = set(partial.outcomes)
        assert finished_early  # the 20s generators beat t=25
        assert finished_early < set(STEP_OUTPUTS)
        rescue = vds.executor.rescue_file(partial)

        resumed = vds.materialize("final", reuse="never", rescue=rescue)
        assert resumed.succeeded
        assert resumed.pre_completed == finished_early
        assert set(resumed.outcomes) == set(STEP_OUTPUTS) - finished_early
        assert vds.replicas.has("final")
        # Nothing ran twice: one invocation per derivation across both
        # runs is the definition of a correct resume.
        for step in STEP_OUTPUTS:
            assert len(vds.catalog.invocations_of(step)) == 1

    def test_resume_in_fresh_world_restores_replicas(self):
        first = build_vds()
        result = first.materialize("final", reuse="never")
        rescue = first.executor.rescue_file(result)

        second = build_vds()  # no memory of the first process
        assert not second.replicas.has("final")
        resumed = second.materialize("final", reuse="never", rescue=rescue)
        assert resumed.succeeded
        assert resumed.pre_completed == set(STEP_OUTPUTS)
        assert not resumed.outcomes  # nothing re-executed
        restore = second.executor.last_restore
        assert restore is not None
        assert {lfn for lfn, _ in restore.restored} == set(ALL_DATASETS)
        for lfn in ALL_DATASETS:
            assert second.replicas.has(lfn)

    def test_chained_rescues_keep_finished_work(self):
        vds = build_vds()
        partial = vds.materialize("final", reuse="never", until=25.0)
        rescue1 = vds.executor.rescue_file(partial)
        kill_at = vds.simulator.now + 25.0
        partial2 = vds.materialize(
            "final", reuse="never", rescue=rescue1, until=kill_at
        )
        rescue2 = vds.executor.rescue_file(partial2, base=rescue1)
        # Steps finished in the first leg survive into the second
        # rescue even though no job ran for them in the second leg.
        assert set(rescue1.completed) <= set(rescue2.completed)
        final = vds.materialize("final", reuse="never", rescue=rescue2)
        assert final.succeeded
        for step in STEP_OUTPUTS:
            assert len(vds.catalog.invocations_of(step)) == 1


class TestWriteBackValidation:
    def test_corrupt_replica_quarantined_and_step_rerun(self):
        vds = build_vds()
        result = vds.materialize("final", reuse="never")
        rescue = vds.executor.rescue_file(result)
        site_name = result.outcomes["s1"].site
        site = vds.grid.sites[site_name]
        size = vds.replicas.size_of("sim1")
        # Bit-rot on disk: the stored digest no longer matches the
        # declared content.
        site.storage.store(
            "sim1", size, vds.simulator.now, digest="corrupt:feedbeef"
        )

        resumed = vds.materialize("final", reuse="never", rescue=rescue)
        restore = vds.executor.last_restore
        assert ("sim1", site_name) in restore.quarantined
        assert "s1" in restore.invalidated_steps
        # The provenance blast radius includes the corrupt dataset and
        # everything derived from it.
        assert {"sim1", "final"} <= restore.tainted_datasets
        # Only the producing step re-executed; its second invocation is
        # now on record.
        assert set(resumed.outcomes) == {"s1"}
        assert resumed.succeeded
        assert len(vds.catalog.invocations_of("s1")) == 2
        assert vds.replicas.has("sim1")

    def test_validation_reads_the_live_graph(self, derivation_scans):
        vds = build_vds()
        result = vds.materialize("final", reuse="never")
        rescue = vds.executor.rescue_file(result)
        site = vds.grid.sites[result.outcomes["s1"].site]
        site.storage.store(
            "sim1", vds.replicas.size_of("sim1"), vds.simulator.now,
            digest="corrupt:feedbeef",
        )
        scans = derivation_scans(vds.catalog)
        vds.materialize("final", reuse="never", rescue=rescue)
        assert {"sim1", "final"} <= vds.executor.last_restore.tainted_datasets
        assert scans == []

    def test_failed_rerun_skips_nothing_its_completed_consumers_released(
        self,
    ):
        # The rescue says s1 and s2 finished and a1 did not; g1's
        # replica rotted, so g1 re-runs, and this time fails for good
        # while the (slow) a1 is still running.  a1 reads only the
        # verified sim1/sim2: released from the start, it needs nothing
        # of g1 and must not be recorded as skipped.
        vds = build_vds()
        ana = vds.catalog.get_transformation("ana")
        ana.attributes.set("cost.cpu_seconds", 500.0)
        vds.catalog.add_transformation(ana, replace=True)
        result = vds.materialize("final", reuse="never")
        rescue = vds.executor.rescue_file(result)
        del rescue.completed["a1"]
        site = vds.grid.sites[result.outcomes["g1"].site]
        site.storage.store(
            "raw1", vds.replicas.size_of("raw1"), vds.simulator.now,
            digest="corrupt:feedbeef",
        )
        vds.grid.injector = StepKiller("g1")
        with pytest.raises(WorkflowError) as caught:
            vds.materialize("final", reuse="never", rescue=rescue)
        resumed = caught.value.result
        assert vds.executor.last_restore.invalidated_steps == {"g1"}
        assert resumed.failed_steps == {"g1"}
        assert resumed.skipped_steps == {}
        assert resumed.outcomes["a1"].record.succeeded

    @pytest.mark.parametrize("policy", [FAIL_FAST, RUN_WHAT_YOU_CAN])
    def test_failed_rerun_skips_nothing_behind_a_completed_step(self, policy):
        # The rescue says s1 finished and s2 and a1 did not; g1's
        # replica rotted, so g1 re-runs and fails for good while the
        # (slow) s2 is still running.  a1 reaches g1 only through the
        # finished s1: it still waits on s2, not on g1, so it is never
        # skipped, and once s2 finishes run-what-you-can dispatches it.
        vds = build_vds(RecoveryConfig(failure_policy=policy))
        sim = vds.catalog.get_transformation("sim")
        sim.attributes.set("cost.cpu_seconds", 500.0)
        vds.catalog.add_transformation(sim, replace=True)
        result = vds.materialize("final", reuse="never")
        rescue = vds.executor.rescue_file(result)
        del rescue.completed["s2"], rescue.completed["a1"]
        site = vds.grid.sites[result.outcomes["g1"].site]
        site.storage.store(
            "raw1", vds.replicas.size_of("raw1"), vds.simulator.now,
            digest="corrupt:feedbeef",
        )
        vds.grid.injector = StepKiller("g1")
        with pytest.raises(WorkflowError) as caught:
            vds.materialize("final", reuse="never", rescue=rescue)
        resumed = caught.value.result
        assert vds.executor.last_restore.invalidated_steps == {"g1"}
        assert resumed.failed_steps == {"g1"}
        assert resumed.skipped_steps == {}
        assert resumed.outcomes["s2"].record.succeeded
        assert ("a1" in resumed.outcomes) == (policy == RUN_WHAT_YOU_CAN)

    def test_size_mismatch_also_quarantined(self):
        vds = build_vds()
        result = vds.materialize("final", reuse="never")
        rescue = vds.executor.rescue_file(result)
        site_name = result.outcomes["g1"].site
        storage = vds.grid.sites[site_name].storage
        storage.delete("raw1")
        storage.store("raw1", 1, vds.simulator.now)  # truncated file
        vds.materialize("final", reuse="never", rescue=rescue)
        restore = vds.executor.last_restore
        assert ("raw1", site_name) in restore.quarantined
        assert "g1" in restore.invalidated_steps


def _uninterrupted_baseline():
    vds = build_vds()
    result = vds.materialize("final", reuse="never")
    assert result.succeeded
    return (
        set(vds.replicas.lfns()),
        {lfn: vds.replicas.size_of(lfn) for lfn in vds.replicas.lfns()},
    )


class TestResumeEquivalence:
    """The property the whole rescue mechanism exists to guarantee:
    kill-anywhere + resume converges to the same final state as an
    uninterrupted run, with every step executed exactly once."""

    BASELINE = None

    @classmethod
    def baseline(cls):
        if cls.BASELINE is None:
            cls.BASELINE = _uninterrupted_baseline()
        return cls.BASELINE

    @settings(max_examples=25, deadline=None)
    @given(kill_at=st.integers(min_value=0, max_value=80))
    def test_resume_matches_uninterrupted_run(self, kill_at):
        lfns, sizes = self.baseline()
        vds = build_vds()
        result = vds.materialize("final", reuse="never", until=float(kill_at))
        if result.interrupted:
            rescue = vds.executor.rescue_file(result)
            result = vds.materialize("final", reuse="never", rescue=rescue)
        assert result.succeeded
        assert set(vds.replicas.lfns()) == lfns
        for lfn in lfns:
            assert vds.replicas.size_of(lfn) == sizes[lfn]
        for step in STEP_OUTPUTS:
            invocations = vds.catalog.invocations_of(step)
            assert len(invocations) == 1, (
                f"{step} ran {len(invocations)} times after a kill at "
                f"t={kill_at}"
            )
