"""The flight recorder: append-only run records and their reader."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.observability.instrument import Instrumentation
from repro.observability.recorder import (
    RECORD_FILENAME,
    RECORD_SCHEMA_VERSION,
    FlightRecorder,
    RunRecord,
    find_run,
    list_runs,
    new_run_id,
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


def make_invocation(name="g1", status="success", cpu=2.0, read=100):
    return Invocation(
        derivation_name=name,
        status=status,
        start_time=100.0,
        context=ExecutionContext(site="anl", host="anl-01"),
        usage=ResourceUsage(
            cpu_seconds=cpu,
            wall_seconds=cpu * 1.5,
            bytes_read=read,
            bytes_written=50,
        ),
    )


class TestRunIds:
    def test_ids_are_unique_within_a_process(self):
        assert new_run_id() != new_run_id()

    def test_id_shape(self):
        assert new_run_id().startswith("run-")


class TestFlightRecorder:
    def test_every_line_is_valid_json_with_a_type(self, tmp_path):
        rec = FlightRecorder.start(tmp_path, command="test")
        rec.event("fault.injected", fault="transient")
        rec.sample(ready=2, in_flight=1, completed=0, total=4, sim=1.5)
        rec.step("g1", status="success", start=0.0, end=5.0, site="anl")
        rec.finalize(status="ok", makespan=5.0)
        lines = [
            json.loads(raw)
            for raw in rec.path.read_text().splitlines()
        ]
        assert [line["type"] for line in lines] == [
            "meta", "event", "sample", "step", "result"
        ]
        assert lines[0]["schema_version"] == RECORD_SCHEMA_VERSION
        assert all("t" in line for line in lines)

    def test_round_trip_through_run_record(self, tmp_path):
        plan = chain_plan()
        rec = FlightRecorder.start(tmp_path, command="materialize a1")
        rec.plan(plan)
        rec.invocation(make_invocation("g1"))
        rec.invocation(make_invocation("p1"))
        rec.step("g1", status="success", start=0.0, end=3.0, site="anl")
        rec.step("p1", status="success", start=3.0, end=7.0, site="uc")
        rec.event("step.retry", step="p1", attempt=1)
        rec.finalize(status="ok", makespan=7.0)

        record = RunRecord.load(rec.path)
        assert record.run_id == rec.run_id
        assert record.command == "materialize a1"
        assert record.status == "ok"
        assert record.finished
        assert set(record.dependencies()) == {"g1", "p1"}
        assert record.dependencies()["p1"] == {"g1"}
        assert len(record.invocations) == 2
        assert record.events[0]["kind"] == "step.retry"
        assert record.makespan() == 7.0

    def test_load_accepts_run_directory(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.finalize()
        record = RunRecord.load(rec.path.parent)
        assert record.status == "ok"

    def test_finalize_writes_spans_and_metrics(self, tmp_path):
        obs = Instrumentation()
        with obs.span("outer"):
            with obs.span("inner"):
                obs.count("c", 3)
        rec = FlightRecorder.start(tmp_path)
        rec.finalize(obs, status="ok")
        record = RunRecord.load(rec.path)
        outer, inner = record.spans
        assert [outer["name"], inner["name"]] == ["outer", "inner"]
        assert inner["parent_id"] == outer["span_id"]
        assert record.counter_total("c") == 3
        assert record.counter_total("missing") == 0.0

    def test_finalize_is_idempotent(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.finalize(status="ok")
        rec.finalize(status="error")  # no-op: already closed
        rec.event("late", detail="dropped")  # also a no-op
        record = RunRecord.load(rec.path)
        assert record.status == "ok"
        assert record.events == []

    def test_context_manager_records_crash_as_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with FlightRecorder.start(tmp_path) as rec:
                rec.step("g1", status="running", start=0.0, end=0.0)
                raise RuntimeError("boom")
        record = RunRecord.load(rec.path)
        assert record.status == "error"
        assert "boom" in record.result["error"]

    def test_truncated_record_reads_as_crashed(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.step("g1", status="success", start=0.0, end=2.0)
        rec.close()  # process died before finalize
        record = RunRecord.load(rec.path)
        assert not record.finished
        assert record.status == "crashed"
        assert record.makespan() == 2.0  # falls back to step timings

    def test_future_schema_version_rejected(self, tmp_path):
        run_dir = tmp_path / "run-future"
        run_dir.mkdir()
        (run_dir / RECORD_FILENAME).write_text(
            json.dumps(
                {
                    "type": "meta",
                    "schema_version": RECORD_SCHEMA_VERSION + 1,
                    "run_id": "run-future",
                }
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="schema version"):
            RunRecord.load(run_dir)

    def test_missing_record_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunRecord.load(tmp_path / "nothing")


class TestStepTimings:
    def test_retries_merge_into_one_step(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        # First attempt fails at t=0..2, retry succeeds at t=5..9 on
        # another site; the merged step spans backoff too.
        rec.step("p1", status="failure", start=0.0, end=2.0, site="anl")
        rec.step("p1", status="success", start=5.0, end=9.0, site="uc")
        rec.finalize()
        timings = RunRecord.load(rec.path).step_timings()
        assert timings["p1"]["start"] == 0.0
        assert timings["p1"]["end"] == 9.0
        assert timings["p1"]["status"] == "success"
        assert timings["p1"]["site"] == "uc"
        assert timings["p1"]["attempts"] == 2

    def test_result_makespan_wins_over_timings(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.step("g1", status="success", start=0.0, end=2.0)
        rec.finalize(status="ok", makespan=3.5)
        assert RunRecord.load(rec.path).makespan() == 3.5

    def test_empty_record_has_no_makespan(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.finalize()
        assert RunRecord.load(rec.path).makespan() is None


class TestRunListing:
    def test_list_runs_sorted_oldest_first(self, tmp_path):
        first = FlightRecorder(tmp_path / "run-a", "run-a")
        first.finalize()
        second = FlightRecorder(tmp_path / "run-b", "run-b")
        second.finalize()
        runs = list_runs(tmp_path)
        assert [r.run_id for r in runs] == ["run-a", "run-b"]

    def test_list_runs_skips_unreadable_records(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.finalize()
        bad = tmp_path / "run-bad"
        bad.mkdir()
        (bad / RECORD_FILENAME).write_text("{not json\n")
        assert [r.run_id for r in list_runs(tmp_path)] == [rec.run_id]

    def test_list_runs_on_missing_root(self, tmp_path):
        assert list_runs(tmp_path / "absent") == []

    def test_find_run_by_id_and_latest(self, tmp_path):
        a = FlightRecorder.start(tmp_path)
        a.finalize()
        b = FlightRecorder.start(tmp_path)
        b.finalize()
        assert find_run(tmp_path, a.run_id).run_id == a.run_id
        assert find_run(tmp_path, "latest").run_id == b.run_id

    def test_find_run_unknown_id_lists_known(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.finalize()
        with pytest.raises(FileNotFoundError, match=rec.run_id):
            find_run(tmp_path, "run-nope")

    def test_find_run_loads_only_the_found_record(self, tmp_path):
        # Listing reads each record's status line only, so finding the
        # newest of eight costs about one full load, not eight.
        for n in range(8):
            rec = FlightRecorder(tmp_path / f"run-{n}", f"run-{n}")
            for k in range(2000):
                rec.event("tick", step=f"s{k}", seq=k)
            rec.finalize(status="ok")

        def peak(load):
            tracemalloc.start()
            try:
                record = load()
                return record, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: RunRecord.load(tmp_path / "run-7"))[1]
        latest, found = peak(lambda: find_run(tmp_path, "latest"))
        assert latest.run_id == "run-7" and len(latest.events) == 2000
        assert found <= 2 * one

    def test_find_latest_with_no_runs(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no recorded runs"):
            find_run(tmp_path, "latest")


class TestEstimatorTraining:
    def test_train_on_history_fits_models(self, tmp_path):
        plan = chain_plan()
        rec = FlightRecorder.start(tmp_path)
        rec.plan(plan)
        for read, cpu in ((100, 2.0), (200, 3.0), (300, 4.0)):
            rec.invocation(make_invocation("p1", cpu=cpu, read=read))
        rec.invocation(make_invocation("g1", cpu=1.0, read=0))
        rec.invocation(make_invocation("g1", status="failure"))
        rec.finalize()
        history = [RunRecord.load(rec.path)]

        from repro.estimator.cost import Estimator

        estimator = Estimator(MemoryCatalog())
        trained = estimator.train_on_history(history)
        assert set(trained) == {"gen", "proc"}
        model = trained["proc"]
        assert model.samples == 3
        # cpu = 1 + 0.01 * bytes_read, recovered by the fit.
        assert model.predict_cpu_seconds(400) == pytest.approx(5.0)
        assert estimator.model_for("proc") is model

    def test_train_ignores_invocations_outside_the_plan(self, tmp_path):
        rec = FlightRecorder.start(tmp_path)
        rec.invocation(make_invocation("orphan"))
        rec.finalize()
        history = [RunRecord.load(rec.path)]

        from repro.estimator.cost import Estimator

        assert Estimator(MemoryCatalog()).train_on_history(history) == {}
