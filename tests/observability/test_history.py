"""Cross-run queries over flight records: site stats, torn records,
and pruning into compacted copies."""

from __future__ import annotations

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.observability.health import site_stats
from repro.observability.recorder import (
    FlightRecorder,
    RunRecord,
    list_runs,
    load_runs,
    prune_runs,
)
from repro.planner.dag import Planner
from repro.planner.request import MaterializationRequest

CHAIN_VDL = """
TR gen( output o, none seed="1" ) {
  argument = "-s "${none:seed};
  argument stdout = ${output:o};
  exec = "/bin/gen";
}
TR proc( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/proc";
}
DV g1->gen( o=@{output:"a0"}, seed="42" );
DV p1->proc( o=@{output:"a1"}, i=@{input:"a0"} );
"""


def chain_plan():
    catalog = MemoryCatalog().define(CHAIN_VDL)
    planner = Planner(catalog, cpu_estimate=lambda dv: 5.0)
    return planner.plan(
        MaterializationRequest(targets=("a1",), reuse="never")
    )


def make_invocation(
    name="g1", status="success", cpu=2.0, read=100, site="a"
):
    return Invocation(
        derivation_name=name,
        status=status,
        start_time=100.0,
        context=ExecutionContext(site=site, host=f"{site}-01"),
        usage=ResourceUsage(
            cpu_seconds=cpu,
            wall_seconds=cpu * 1.5,
            bytes_read=read,
            bytes_written=50,
        ),
    )


def write_run(
    runs_root,
    run_id,
    gen_seconds=5.0,
    proc_seconds=5.0,
    site="a",
    status="ok",
    events=(),
    finalize=True,
):
    """Record one synthetic two-step chain run (sim clock)."""
    rec = FlightRecorder.start(runs_root, run_id=run_id, command="test")
    rec.plan(chain_plan())
    rec.step(
        "g1", status="success", start=0.0, end=gen_seconds, site=site
    )
    rec.step(
        "p1",
        status="success",
        start=gen_seconds,
        end=gen_seconds + proc_seconds,
        site=site,
    )
    rec.invocation(make_invocation("g1", cpu=gen_seconds, site=site))
    rec.invocation(make_invocation("p1", cpu=proc_seconds, site=site))
    for kind, fields in events:
        rec.event(kind, **fields)
    if finalize:
        rec.finalize(
            status=status, makespan=gen_seconds + proc_seconds
        )
    else:
        rec.close()
    return rec.path


class TestIngest:
    """What a cross-run query reads: every record, loaded once."""

    def test_round_trip(self, tmp_path):
        write_run(tmp_path, "run-a")
        (record,) = load_runs(tmp_path)
        assert record.run_id == "run-a"
        assert record.status == "ok"
        assert record.makespan() == 10.0
        assert len(record.dependencies()) == 2
        assert record.failures == 0
        assert record.clock == "sim"

    def test_duration_samples_grouped_by_transformation(self, tmp_path):
        write_run(tmp_path, "run-a", gen_seconds=3.0, proc_seconds=7.0)
        (record,) = load_runs(tmp_path)
        assert record.duration_samples() == {"gen": [3.0], "proc": [7.0]}

    def test_changed_record_is_reingested(self, tmp_path):
        path = write_run(tmp_path, "run-a", finalize=False)
        assert [r.status for r in load_runs(tmp_path)] == ["crashed"]
        # The crashed run is later finalized: the next query sees it.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                '{"type": "result", "status": "ok", "makespan": 10.0, '
                '"t": 0, "finished_at": 0}\n'
            )
        assert [r.status for r in load_runs(tmp_path)] == ["ok"]

    def test_event_totals(self, tmp_path):
        write_run(
            tmp_path,
            "run-a",
            events=[
                ("fault.injected", {"fault": "transient"}),
                ("fault.injected", {"fault": "transient"}),
                ("step.retry", {"step": "g1"}),
            ],
        )
        totals = RunRecord.load(tmp_path / "run-a").event_counts
        assert totals == {"fault.injected": 2, "step.retry": 1}
        assert load_runs(tmp_path)[0].faults == 2

    def test_training_samples_feed_estimator(self, tmp_path):
        from repro.estimator.cost import Estimator

        write_run(tmp_path, "run-a", gen_seconds=4.0)
        (record,) = load_runs(tmp_path)
        gen = [r for r in record.invocation_rows if r.transformation == "gen"]
        assert gen[0].cpu_seconds == 4.0
        assert gen[0].bytes_read == 100
        trained = Estimator(MemoryCatalog()).train_on_history([record])
        assert set(trained) == {"gen", "proc"}
        assert trained["gen"].samples == 1


class TestSiteStats:
    def test_failures_counted_per_site(self, tmp_path):
        rec = FlightRecorder.start(tmp_path, run_id="run-x")
        rec.plan(chain_plan())
        rec.step("g1", status="failure", start=0.0, end=2.0, site="bad")
        rec.step("g1", status="success", start=2.0, end=4.0, site="ok")
        rec.step("p1", status="success", start=4.0, end=6.0, site="ok")
        rec.finalize(status="ok")
        (record,) = load_runs(tmp_path)
        stats = site_stats([record])
        assert stats["bad"]["attempts"] == 1
        assert stats["bad"]["failures"] == 1
        assert stats["ok"]["failures"] == 0
        assert stats["ok"]["durations"] == [2.0, 2.0]
        # The retry shows up in the run's own totals too.
        assert record.retries == 1
        assert len(record.attempts) == 3

    def test_samples_pool_in_run_id_order(self, tmp_path):
        write_run(tmp_path, "run-b", gen_seconds=2.0)
        write_run(tmp_path, "run-a", gen_seconds=1.0)
        runs = load_runs(tmp_path)
        assert site_stats(runs)["a"]["durations"] == [1.0, 5.0, 2.0, 5.0]
        assert site_stats(reversed(runs)) == site_stats(runs)

    def test_breaker_open_seconds_from_transitions(self, tmp_path):
        rec = FlightRecorder.start(tmp_path, run_id="run-b")
        rec.plan(chain_plan())
        rec.step("g1", status="success", start=0.0, end=30.0, site="a")
        rec.step("p1", status="success", start=30.0, end=40.0, site="a")
        rec.event("breaker.transition", site="b", state=2, sim=10.0)
        rec.event("breaker.transition", site="b", state=1, sim=25.0)
        rec.event("breaker.transition", site="b", state=0, sim=26.0)
        rec.finalize(status="ok")
        record = RunRecord.load(rec.path)
        windows = record.breaker_windows()
        assert windows["b"] == (15.0, 3)
        assert site_stats([record])["b"]["breaker_open_seconds"] == 15.0

    def test_breaker_still_open_charged_to_record_end(self, tmp_path):
        rec = FlightRecorder.start(tmp_path, run_id="run-c")
        rec.plan(chain_plan())
        rec.step("g1", status="success", start=0.0, end=50.0, site="a")
        rec.event("breaker.transition", site="b", state=2, sim=20.0)
        rec.finalize(status="ok")
        windows = RunRecord.load(rec.path).breaker_windows()
        assert windows["b"] == (30.0, 1)


class TestTruncatedRecords:
    """A torn final line keeps the valid prefix in every cross-run
    query, and the record stays diffable against a complete run."""

    def tear(self, path):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "step", "step": "p1", "sta')

    def test_torn_record_loads_as_truncated(self, tmp_path):
        path = write_run(tmp_path, "run-t", finalize=False)
        self.tear(path)
        record = RunRecord.load(path)
        assert record.truncated
        assert len(record.step_attempts) == 2  # the valid prefix

    def test_torn_record_ingests(self, tmp_path):
        path = write_run(tmp_path, "run-t", finalize=False)
        self.tear(path)
        (record,) = load_runs(tmp_path)
        assert record.truncated
        assert record.status == "crashed"
        assert record.duration_samples() == {
            "gen": [5.0], "proc": [5.0],
        }
        assert site_stats([record])["a"]["attempts"] == 2

    def test_torn_record_stays_torn_when_pruned(self, tmp_path):
        self.tear(write_run(tmp_path / "runs", "run-t", finalize=False))
        prune_runs(tmp_path / "runs", keep=0, history_root=tmp_path / "h")
        (record,) = load_runs(tmp_path / "runs", tmp_path / "h")
        assert record.truncated
        assert record.status == "crashed"
        assert record.duration_samples() == {
            "gen": [5.0], "proc": [5.0],
        }

    def test_torn_record_diffs_against_complete_run(self, tmp_path):
        from repro.observability.diff import diff_records

        write_run(tmp_path, "run-full")
        torn_path = write_run(tmp_path, "run-torn", finalize=False)
        self.tear(torn_path)
        base = RunRecord.load(tmp_path / "run-full")
        cand = RunRecord.load(torn_path)
        diff = diff_records(base, cand)
        assert diff.cand_id == "run-torn"
        assert {d.transformation for d in diff.transformations} == {
            "gen", "proc",
        }
        assert diff.clean  # identical timings in the valid prefix

    def test_mid_file_corruption_still_rejected(self, tmp_path):
        path = write_run(tmp_path, "run-bad")
        text = path.read_text().splitlines()
        text[2] = "{definitely not json"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="corrupt at line 3"):
            RunRecord.load(path)


class TestPruneRuns:
    def test_prune_keeps_newest(self, tmp_path):
        runs = tmp_path / "runs"
        for i in range(4):
            write_run(runs, f"run-{i}")
        pruned = prune_runs(runs, keep=2, history_root=tmp_path / "h")
        assert pruned == ["run-0", "run-1"]
        assert [r.run_id for r in list_runs(runs)] == [
            "run-2", "run-3",
        ]
        assert not (runs / "run-0").exists()

    def test_prune_zero_removes_all(self, tmp_path):
        runs = tmp_path / "runs"
        write_run(runs, "run-a")
        assert prune_runs(runs, 0, tmp_path / "h") == ["run-a"]
        assert list_runs(runs) == []

    def test_prune_keep_exceeding_count_is_a_noop(self, tmp_path):
        runs = tmp_path / "runs"
        write_run(runs, "run-a")
        assert prune_runs(runs, 5, tmp_path / "h") == []
        assert [r.run_id for r in list_runs(runs)] == ["run-a"]
        assert not (tmp_path / "h").exists()

    def test_prune_negative_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            prune_runs(tmp_path / "runs", -1, tmp_path / "h")

    def test_aggregates_survive_pruning(self, tmp_path):
        runs, kept = tmp_path / "runs", tmp_path / "history"
        write_run(runs, "run-old", gen_seconds=3.0)
        write_run(runs, "run-new")
        raw = RunRecord.load(runs / "run-old")
        assert prune_runs(runs, keep=1, history_root=kept) == ["run-old"]
        # The raw record is gone but its compacted copy still counts.
        assert not (runs / "run-old").exists()
        assert [r.run_id for r in load_runs(runs, kept)] == [
            "run-old", "run-new",
        ]
        copy = RunRecord.load(kept / "run-old")
        assert copy.duration_samples() == raw.duration_samples()
        assert copy.invocation_rows == raw.invocation_rows
        assert (copy.status, copy.makespan()) == ("ok", 8.0)

    def test_copy_drops_only_unqueried_lines(self, tmp_path):
        import json

        from repro.observability import Instrumentation

        runs = tmp_path / "runs"
        rec = FlightRecorder.start(runs, run_id="run-a", command="test")
        rec.plan(chain_plan())
        rec.sample(ready=1, in_flight=0, completed=0, total=2)
        rec.step("g1", status="success", start=0.0, end=1.0, site="a")
        rec.event("step.retry", step="g1")
        rec.profile({"phases": {}})
        obs = Instrumentation()
        with obs.span("vds.materialize"):
            obs.count("executor.invocations")
        rec.finalize(obs, status="ok")

        def kinds(path):
            return [
                json.loads(line)["type"]
                for line in path.read_text().splitlines()
            ]

        before = kinds(runs / "run-a" / "record.jsonl")
        assert {"span", "metrics", "sample"} <= set(before)
        prune_runs(runs, keep=0, history_root=tmp_path / "h")
        after = kinds(tmp_path / "h" / "run-a" / "record.jsonl")
        assert after == [
            k for k in before if k not in ("span", "metrics", "sample")
        ]
