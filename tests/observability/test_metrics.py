"""Counters, gauges, histograms and their text exposition."""

from __future__ import annotations

import pytest

from repro.observability.export import to_openmetrics
from repro.observability.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
    prometheus_name,
)


class TestLabels:
    def test_label_order_never_creates_distinct_series(self):
        counter = Counter("c")
        counter.inc(op="lookup", kind="dataset")
        counter.inc(kind="dataset", op="lookup")
        assert counter.value(op="lookup", kind="dataset") == 2
        assert len(list(counter.series())) == 1

    def test_values_are_stringified(self):
        assert label_key({"n": 3}) == (("n", "3"),)

    def test_prometheus_name_sanitizes_dots(self):
        assert prometheus_name("catalog.op.seconds") == "catalog_op_seconds"
        assert prometheus_name("a-b c") == "a_b_c"


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value() == 0
        counter.inc()
        counter.inc(5)
        assert counter.value() == 6

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_total_sums_all_label_sets(self):
        counter = Counter("c")
        counter.inc(2, site="anl")
        counter.inc(3, site="uc")
        assert counter.total() == 5


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10, site="anl")
        gauge.inc(2, site="anl")
        gauge.dec(5, site="anl")
        assert gauge.value(site="anl") == 7
        assert gauge.value(site="uc") == 0


class TestHistogram:
    def test_value_on_bucket_edge_lands_in_that_bucket(self):
        # le semantics: an observation equal to an upper bound belongs
        # to that bucket, exactly as Prometheus defines it.
        hist = Histogram("h", buckets=(1.0, 5.0))
        hist.observe(1.0)
        assert hist.cumulative_buckets() == [
            (1.0, 1), (5.0, 1), (float("inf"), 1)
        ]

    def test_value_just_over_edge_lands_in_next_bucket(self):
        hist = Histogram("h", buckets=(1.0, 5.0))
        hist.observe(1.0000001)
        assert hist.cumulative_buckets() == [
            (1.0, 0), (5.0, 1), (float("inf"), 1)
        ]

    def test_value_above_all_bounds_lands_in_inf(self):
        hist = Histogram("h", buckets=(1.0, 5.0))
        hist.observe(1e9)
        assert hist.cumulative_buckets()[-1] == (float("inf"), 1)
        assert hist.cumulative_buckets()[0] == (1.0, 0)

    def test_cumulative_counts_are_monotone(self):
        hist = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 2.0, 2.0, 7.0, 100.0):
            hist.observe(value)
        counts = [n for _, n in hist.cumulative_buckets()]
        assert counts == sorted(counts)
        assert counts[-1] == 5

    def test_sum_and_count_per_label_set(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.25, op="lookup")
        hist.observe(0.75, op="lookup")
        hist.observe(9.0, op="insert")
        assert hist.count(op="lookup") == 2
        assert hist.sum(op="lookup") == 1.0
        assert hist.count(op="insert") == 1

    def test_default_buckets_span_micro_to_minutes(self):
        hist = Histogram("h")
        assert hist.buckets == DEFAULT_BUCKETS
        assert hist.buckets[0] <= 1e-6
        assert hist.buckets[-1] >= 1800

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(5.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_to_dict_round_trips_through_json(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", help="x").inc(3, op="a")
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        loaded = json.loads(json.dumps(registry.to_dict()))
        assert loaded["c"]["series"][0]["value"] == 3
        assert loaded["h"]["series"][0]["count"] == 1


class TestPrometheusExposition:
    """The registry's one text exposition: OpenMetrics from its dict."""

    def test_golden_output(self):
        registry = MetricsRegistry()
        registry.counter("catalog.ops", help="catalog operations").inc(
            3, op="lookup"
        )
        registry.gauge("sim.clock_seconds").set(12.5)
        registry.histogram("grid.transfer.seconds", buckets=(0.1, 1.0)).observe(
            0.15
        )
        assert to_openmetrics(registry.to_dict()) == (
            "# HELP catalog_ops catalog operations\n"
            "# TYPE catalog_ops counter\n"
            'catalog_ops_total{op="lookup"} 3\n'
            "# TYPE grid_transfer_seconds histogram\n"
            'grid_transfer_seconds_bucket{le="0.1"} 0\n'
            'grid_transfer_seconds_bucket{le="1"} 1\n'
            'grid_transfer_seconds_bucket{le="+Inf"} 1\n'
            "grid_transfer_seconds_sum 0.15\n"
            "grid_transfer_seconds_count 1\n"
            "# TYPE sim_clock_seconds gauge\n"
            "sim_clock_seconds 12.5\n"
            "# EOF\n"
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, path='a"b\\c')
        text = to_openmetrics(registry.to_dict())
        assert 'path="a\\"b\\\\c"' in text

    def test_empty_registry_renders_empty(self):
        assert to_openmetrics(MetricsRegistry().to_dict()) == "# EOF\n"
