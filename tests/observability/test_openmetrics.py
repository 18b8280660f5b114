"""OpenMetrics exposition: generation and format validation."""

from __future__ import annotations

from repro.observability.export import (
    openmetrics_snapshot,
    to_openmetrics,
    validate_openmetrics,
)
from repro.observability.health import grid_health
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import load_runs

from tests.observability.test_health import faulty_run


def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("steps.completed", "Completed steps").inc(
        3, site="a", status="success"
    )
    reg.counter("steps.completed").inc(1, site="b", status="failure")
    reg.gauge("scheduler.breaker.state", "Breaker state").set(2, site="a")
    reg.histogram(
        "step.duration.seconds",
        "Step wall time",
        buckets=(1.0, 5.0, 30.0),
    ).observe(3.2, site="a")
    return reg


class TestToOpenMetrics:
    def test_real_registry_validates_cleanly(self):
        text = to_openmetrics(sample_registry().to_dict())
        assert validate_openmetrics(text) == []

    def test_shape(self):
        text = to_openmetrics(sample_registry().to_dict())
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        assert "# TYPE steps_completed counter" in lines
        assert (
            'steps_completed_total{site="a",status="success"} 3' in lines
        )
        assert '# TYPE scheduler_breaker_state gauge' in lines
        assert 'scheduler_breaker_state{site="a"} 2' in lines
        # Histogram: cumulative buckets, +Inf, sum and count (labels
        # render alphabetically, so "le" precedes "site").
        assert 'step_duration_seconds_bucket{le="1",site="a"} 0' in lines
        assert 'step_duration_seconds_bucket{le="5",site="a"} 1' in lines
        assert (
            'step_duration_seconds_bucket{le="+Inf",site="a"} 1' in lines
        )
        assert 'step_duration_seconds_count{site="a"} 1' in lines

    def test_empty_registry_is_just_eof(self):
        text = to_openmetrics({})
        assert text == "# EOF\n"
        assert validate_openmetrics(text) == []

    def test_extra_families_merged_live_wins(self):
        live = sample_registry().to_dict()
        extra = {
            "steps.completed": {
                "kind": "counter",
                "help": "stale",
                "series": [{"labels": {}, "value": 999}],
            },
            "site.health.status": {
                "kind": "gauge",
                "help": "Health",
                "series": [{"labels": {"site": "a"}, "value": 1}],
            },
        }
        text = to_openmetrics(live, extra=extra)
        assert "999" not in text  # live family shadows the extra
        assert 'site_health_status{site="a"} 1' in text
        assert validate_openmetrics(text) == []

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("g", 'line\nbreak and "quote" \\ slash').set(1)
        text = to_openmetrics(reg.to_dict())
        assert '# HELP g line\\nbreak and "quote" \\\\ slash' in text
        assert validate_openmetrics(text) == []


class TestValidator:
    def test_missing_eof(self):
        problems = validate_openmetrics("# TYPE x gauge\nx 1\n")
        assert any("# EOF" in p for p in problems)

    def test_counter_sample_without_total_suffix(self):
        text = "# TYPE c counter\nc 1\n# EOF\n"
        problems = validate_openmetrics(text)
        assert any("c" in p for p in problems)

    def test_counter_total_suffix_accepted(self):
        text = "# TYPE c counter\nc_total 1\n# EOF\n"
        assert validate_openmetrics(text) == []

    def test_histogram_requires_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 0\n'
            "h_sum 0\n"
            "h_count 0\n"
            "# EOF\n"
        )
        problems = validate_openmetrics(text)
        assert any("+Inf" in p for p in problems)

    def test_sample_without_type_flagged(self):
        text = "orphan 1\n# EOF\n"
        problems = validate_openmetrics(text)
        assert any("orphan" in p for p in problems)

    def test_duplicate_type_flagged(self):
        text = "# TYPE g gauge\n# TYPE g gauge\ng 1\n# EOF\n"
        problems = validate_openmetrics(text)
        assert any("duplicate" in p.lower() for p in problems)

    def test_bad_label_syntax_flagged(self):
        text = '# TYPE g gauge\ng{site=a} 1\n# EOF\n'
        assert validate_openmetrics(text)

    def test_non_numeric_value_flagged(self):
        text = "# TYPE g gauge\ng banana\n# EOF\n"
        assert validate_openmetrics(text)

    def test_content_after_eof_flagged(self):
        text = "# EOF\n# TYPE g gauge\ng 1\n"
        assert validate_openmetrics(text)

    def test_blank_line_flagged(self):
        text = "# TYPE g gauge\n\ng 1\n# EOF\n"
        assert validate_openmetrics(text)


class TestSnapshot:
    def test_health_gauges_merged(self, tmp_path):
        faulty_run(tmp_path, "run-f")
        runs = load_runs(tmp_path)
        report = grid_health(runs)
        live = sample_registry().to_dict()
        text = openmetrics_snapshot(live, health_report=report)
        assert validate_openmetrics(text) == []
        assert 'site_health_status{site="bad"}' in text
        assert "grid_health_status" in text
        # Live metrics survive the merge.
        assert "steps_completed_total" in text

    def test_without_health(self):
        text = openmetrics_snapshot(sample_registry().to_dict())
        assert validate_openmetrics(text) == []
        assert "site_health_status" not in text
