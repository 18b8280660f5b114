"""The run-history metastore: ingest, idempotency, queries."""

from __future__ import annotations

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.observability.history import HistoryStore
from repro.observability.recorder import FlightRecorder, RunRecord
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
    def test_round_trip(self, tmp_path):
        write_run(tmp_path, "run-a")
        store = HistoryStore()
        assert store.ingest_dir(tmp_path) == 1
        row = store.run_row("run-a")
        assert row["status"] == "ok"
        assert row["makespan"] == 10.0
        assert row["steps_total"] == 2
        assert row["steps_failed"] == 0
        assert row["clock"] == "sim"
        assert store.run_ids() == ["run-a"]
        assert len(store) == 1

    def test_duration_samples_grouped_by_transformation(self, tmp_path):
        write_run(tmp_path, "run-a", gen_seconds=3.0, proc_seconds=7.0)
        store = HistoryStore()
        store.ingest_dir(tmp_path)
        samples = store.duration_samples()
        assert samples == {"gen": [3.0], "proc": [7.0]}

    def test_ingest_is_idempotent(self, tmp_path):
        write_run(tmp_path, "run-a")
        store = HistoryStore()
        assert store.ingest_dir(tmp_path) == 1
        assert store.ingest_dir(tmp_path) == 0  # unchanged: skipped
        assert len(store) == 1
        assert len(store.duration_samples()["gen"]) == 1

    def test_changed_record_is_reingested(self, tmp_path):
        path = write_run(tmp_path, "run-a", finalize=False)
        store = HistoryStore()
        store.ingest_dir(tmp_path)
        assert store.run_row("run-a")["status"] == "crashed"
        # The crashed run is later finalized: the file grew.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                '{"type": "result", "status": "ok", "makespan": 10.0, '
                '"t": 0, "finished_at": 0}\n'
            )
        assert store.ingest_dir(tmp_path) == 1
        assert store.run_row("run-a")["status"] == "ok"
        assert len(store) == 1

    def test_force_reingest(self, tmp_path):
        write_run(tmp_path, "run-a")
        store = HistoryStore()
        store.ingest_dir(tmp_path)
        assert store.ingest_dir(tmp_path, force=True) == 1

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
        store = HistoryStore()
        store.ingest_dir(tmp_path)
        assert store.run_row("run-a")["faults"] == 2

    def test_training_samples_feed_estimator(self, tmp_path):
        write_run(tmp_path, "run-a", gen_seconds=4.0)
        store = HistoryStore()
        store.ingest_dir(tmp_path)
        samples = store.training_samples()
        assert set(samples) == {"gen", "proc"}
        assert samples["gen"][0]["cpu_seconds"] == 4.0
        assert samples["gen"][0]["bytes_read"] == 100
        only = store.training_samples(transformation="gen")
        assert set(only) == {"gen"}

    def test_file_backed_store_persists(self, tmp_path):
        write_run(tmp_path / "runs", "run-a")
        db = tmp_path / "history.sqlite"
        with HistoryStore(db) as store:
            store.ingest_dir(tmp_path / "runs")
        with HistoryStore(db) as store:
            assert store.run_ids() == ["run-a"]


class TestSiteStats:
    def test_failures_counted_per_site(self, tmp_path):
        rec = FlightRecorder.start(tmp_path, run_id="run-x")
        rec.plan(chain_plan())
        rec.step("g1", status="failure", start=0.0, end=2.0, site="bad")
        rec.step("g1", status="success", start=2.0, end=4.0, site="ok")
        rec.step("p1", status="success", start=4.0, end=6.0, site="ok")
        rec.finalize(status="ok")
        store = HistoryStore()
        store.ingest_dir(tmp_path)
        stats = store.site_stats()
        assert stats["bad"]["attempts"] == 1
        assert stats["bad"]["failures"] == 1
        assert stats["ok"]["failures"] == 0
        assert stats["ok"]["durations"] == [2.0, 2.0]
        # The retry shows up in the run row too.
        assert store.run_row("run-x")["retries"] == 1
        assert store.run_row("run-x")["attempts"] == 3

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
        store = HistoryStore()
        store.ingest(record)
        assert store.site_stats()["b"]["breaker_open_seconds"] == 15.0

    def test_breaker_still_open_charged_to_record_end(self, tmp_path):
        rec = FlightRecorder.start(tmp_path, run_id="run-c")
        rec.plan(chain_plan())
        rec.step("g1", status="success", start=0.0, end=50.0, site="a")
        rec.event("breaker.transition", site="b", state=2, sim=20.0)
        rec.finalize(status="ok")
        windows = RunRecord.load(rec.path).breaker_windows()
        assert windows["b"] == (30.0, 1)


class TestTruncatedRecords:
    """Satellite: a torn final line must ingest the valid prefix and
    still be diffable against a complete run."""

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
        store = HistoryStore()
        assert store.ingest_dir(tmp_path) == 1
        row = store.run_row("run-t")
        assert row["truncated"] == 1
        assert row["status"] == "crashed"
        assert store.duration_samples() == {
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
        from repro.observability.recorder import list_runs, prune_runs

        for i in range(4):
            write_run(tmp_path, f"run-{i}")
        pruned = prune_runs(tmp_path, keep=2)
        assert pruned == ["run-0", "run-1"]
        assert [r.run_id for r in list_runs(tmp_path)] == [
            "run-2", "run-3",
        ]
        assert not (tmp_path / "run-0").exists()

    def test_prune_zero_removes_all(self, tmp_path):
        from repro.observability.recorder import list_runs, prune_runs

        write_run(tmp_path, "run-a")
        assert prune_runs(tmp_path, keep=0) == ["run-a"]
        assert list_runs(tmp_path) == []

    def test_prune_keep_exceeding_count_is_a_noop(self, tmp_path):
        from repro.observability.recorder import list_runs, prune_runs

        write_run(tmp_path, "run-a")
        assert prune_runs(tmp_path, keep=5) == []
        assert [r.run_id for r in list_runs(tmp_path)] == ["run-a"]

    def test_prune_negative_rejected(self, tmp_path):
        from repro.observability.recorder import prune_runs

        with pytest.raises(ValueError):
            prune_runs(tmp_path, keep=-1)

    def test_aggregates_survive_pruning(self, tmp_path):
        from repro.observability.recorder import prune_runs

        write_run(tmp_path / "runs", "run-old")
        write_run(tmp_path / "runs", "run-new")
        store = HistoryStore(tmp_path / "history.sqlite")
        store.ingest_dir(tmp_path / "runs")
        prune_runs(tmp_path / "runs", keep=1)
        # The raw record is gone but the history keeps the aggregates.
        assert store.run_ids() == ["run-old", "run-new"]
        assert store.ingest_dir(tmp_path / "runs") == 0
