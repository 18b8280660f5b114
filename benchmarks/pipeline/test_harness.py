"""Tests of the ledger's own machinery (not on the tier-1 path).

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline/test_harness.py``.
"""

import json
import threading

import pytest

from benchmarks.pipeline import check, harness, metrics, report
from benchmarks.pipeline.trace import Tracer, covered, self_times


# -- self time ---------------------------------------------------------------


def spans(*rows):
    """(id, name, parent, start, end) rows with readable arguments."""
    return [tuple(row) for row in rows]


def test_nested_span_subtracts_child():
    times = self_times(spans(
        (0, "outer", None, 0.0, 10.0),
        (1, "inner", 0, 2.0, 5.0),
    ))
    assert times["outer"] == (7.0, 1)
    assert times["inner"] == (3.0, 1)


def test_sibling_spans_subtract_both_and_sum_by_name():
    times = self_times(spans(
        (0, "outer", None, 0.0, 10.0),
        (1, "read", 0, 1.0, 2.0),
        (2, "read", 0, 4.0, 7.0),
    ))
    assert times["outer"] == (6.0, 1)
    assert times["read"] == (4.0, 2)


def test_grandchild_is_charged_to_its_parent_only():
    times = self_times(spans(
        (0, "a", None, 0.0, 10.0),
        (1, "b", 0, 1.0, 9.0),
        (2, "c", 1, 2.0, 4.0),
    ))
    assert times["a"] == (2.0, 1)
    assert times["b"] == (6.0, 1)
    assert times["c"] == (2.0, 1)


def test_overlapping_children_subtract_their_union():
    # Two pool workers busy at once under one dispatch span.
    times = self_times(spans(
        (0, "dispatch", None, 0.0, 10.0),
        (1, "work", 0, 1.0, 6.0),
        (2, "work", 0, 4.0, 8.0),
    ))
    assert times["dispatch"] == (3.0, 1)  # 10 - union [1, 8]
    assert times["work"] == (9.0, 2)  # each worker's own busy time


def test_covered_clips_to_the_parent_interval():
    assert covered([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == 2.0
    assert covered([], 0.0, 10.0) == 0.0


def test_cross_thread_span_is_parented_to_the_open_dispatch_span():
    tracer = Tracer()
    dispatch = tracer.wrap("dispatch", lambda fn: fn())
    work = tracer.wrap("work", lambda: None)

    def in_worker():
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    with tracer.root("bench"):
        dispatch(in_worker)
    by_name = {name: (span_id, parent) for span_id, name, parent, *_ in tracer.spans}
    assert by_name["work"][1] == by_name["dispatch"][0]
    assert by_name["dispatch"][1] == by_name["bench"][0]
    assert by_name["bench"][1] is None


def test_nothing_is_recorded_outside_a_root_section():
    tracer = Tracer()
    traced = tracer.wrap("f", lambda: 1)
    assert traced() == 1
    assert tracer.spans == []
    with tracer.root("bench"):
        traced()
    assert [name for _id, name, *_ in tracer.spans] == ["f", "bench"]


def test_root_self_time_is_what_no_layer_covers():
    times = self_times(spans(
        (0, "bench", None, 0.0, 4.0),
        (1, "layer", 0, 0.5, 3.5),
    ))
    assert times["bench"][0] == pytest.approx(1.0)


# -- percentile rule ---------------------------------------------------------


def test_p95_needs_ten_samples_beyond_it():
    assert harness.percentile(list(range(199)), 0.95) is None
    assert harness.percentile(list(range(200)), 0.95) == 190


def test_latency_rows_drop_the_percentile_without_enough_samples():
    few = harness.Rep(samples={"reuse": [0.001] * 50})
    rows = harness.latency_rows([few, few], "reuse", "reuse")
    assert set(rows) == {"reuse_p50_ms"}
    assert rows["reuse_p50_ms"]["n"] == 100
    many = harness.Rep(samples={"reuse": [0.001] * 100})
    assert "reuse_p95_ms" in harness.latency_rows([many, many], "reuse", "reuse")


def test_wall_is_the_sum_of_phases_and_samples():
    rep = harness.Rep(phases={"a": 1.0, "b": 2.0}, samples={"k": [0.25, 0.25]})
    assert rep.wall_s == 3.5


# -- gates and failure accounting ----------------------------------------------


class FakeWorkload:
    name = "fake"

    def metrics(self, reps):
        return {}


def measured(*reps):
    return harness.Measured(
        machine={}, plain=list(reps), traced=[], layer_rows=[], counter_rows=[]
    )


def test_a_failed_gate_fails_every_op_of_its_repetition():
    good = harness.Rep(phases={"a": 1.0}, ops=10)
    bad = harness.Rep(phases={"a": 1.0}, ops=10)
    bad.check(False, "sink not written")
    result = report.assemble(FakeWorkload(), 7, measured(good, bad, good))
    assert (result["attempted"], result["failed"]) == (30, 10)
    assert result["failures"] == ["sink not written"]
    line = json.loads(report.contract_line(result, "end_to_end"))
    assert line["correct"] is False and line["failed"] == 10
    assert set(line["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}


def test_exact_counts_must_repeat_across_repetitions():
    reps = [
        harness.Rep(phases={"a": 1.0}, ops=5,
                    counts={"grid.sim_makespan_s": makespan})
        for makespan in (15.5, 15.5, 15.6)
    ]
    result = report.assemble(FakeWorkload(), 7, measured(*reps))
    assert result["failed"] == result["attempted"] == 15
    assert "grid.sim_makespan_s differs" in result["failures"][0]


# -- the --check classifier --------------------------------------------------


def row(*reps):
    return harness.summarize(list(reps))


def test_check_ok_within_bound():
    assert check.classify(row(10.0, 10.1, 10.2), row(10.3, 10.4, 10.5),
                          "lower", 0.10) == check.OK


def test_check_regressed_beyond_bound():
    assert check.classify(row(10.0, 10.1, 10.2), row(12.0, 12.1, 12.2),
                          "lower", 0.10) == check.REGRESSED
    assert check.classify(row(100.0, 101.0, 102.0), row(80.0, 81.0, 82.0),
                          "higher", 0.10) == check.REGRESSED


def test_check_unresolved_when_spread_exceeds_bound():
    noisy = row(8.0, 10.0, 13.0)
    assert check.classify(noisy, row(9.0, 10.5, 12.0), "lower", 0.10) \
        == check.UNRESOLVED


def test_check_noisy_but_every_rep_better_is_ok():
    assert check.classify(row(8.0, 10.0, 13.0), row(4.0, 5.0, 7.0),
                          "lower", 0.10) == check.OK


def test_check_compares_exact_counts_for_equal_seeds(tmp_path):
    def result(makespan):
        return {
            "workload": "dispatch-loops", "seed": 7,
            "end_to_end": {"wall_s": row(1.0, 1.0, 1.0)},
            "counts": {"grid.sim_makespan_s": makespan},
        }

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result(15.5)))
    b.write_text(json.dumps(result(15.5)))
    assert check.main(a, b) == 0
    b.write_text(json.dumps(result(15.6)))
    assert check.main(a, b) == 1


# -- the contract file -------------------------------------------------------


def test_benchmark_json_agrees_with_the_metric_tables():
    from benchmarks.pipeline.workloads import WORKLOADS

    contract = metrics.load_contract()
    assert contract["paths"] == ["benchmarks/pipeline"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    common = {m.name: m for m in metrics.END_TO_END if m.workloads == metrics.ALL}
    assert {m["name"] for m in contract["end_to_end"]} == set(common)
    for listed in contract["end_to_end"]:
        assert listed["unit"] == common[listed["name"]].unit
        assert listed["better"] == common[listed["name"]].better
        assert 0 < listed["bound"] <= 0.25
    assert contract["per_layer"] == metrics.per_layer_spec()
