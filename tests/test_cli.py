"""Tests for the workspace CLI (`python -m repro`)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

VDL = """
TR copy( output o, input i ) {
  argument = ${input:i}" "${output:o};
  exec = "/bin/cp";
}
TR emit( output o ) {
  argument stdout = ${output:o};
  argument msg = "hello-vdg";
  exec = "/bin/echo";
}
DV e1->emit( o=@{output:"seed.txt"} );
DV c1->copy( o=@{output:"copy.txt"}, i=@{input:"seed.txt"} );
"""


@pytest.fixture
def run(tmp_path):
    """Invoke the CLI in an isolated workspace, capturing output."""
    workspace = tmp_path / "ws"

    def invoke(*argv):
        lines = []
        code = main(
            ["--workspace", str(workspace), *argv],
            out=lambda text="": lines.append(str(text)),
        )
        return code, "\n".join(lines)

    return invoke


@pytest.fixture
def defined(run, tmp_path):
    vdl_file = tmp_path / "pipeline.vdl"
    vdl_file.write_text(VDL)
    assert run("init")[0] == 0
    assert run("define", str(vdl_file))[0] == 0
    return run


class TestLifecycle:
    def test_init_creates_workspace(self, run):
        code, output = run("init")
        assert code == 0
        assert "initialized" in output

    def test_commands_require_workspace(self, run):
        code, output = run("list", "datasets")
        assert code == 1
        assert "no workspace" in output

    def test_define_reports_additions(self, run, tmp_path):
        vdl_file = tmp_path / "p.vdl"
        vdl_file.write_text(VDL)
        run("init")
        code, output = run("define", str(vdl_file))
        assert code == 0
        assert "transformation" in output and "derivation" in output

    def test_state_persists_across_invocations(self, defined):
        code, output = defined("list", "transformations")
        assert code == 0
        assert "copy@1.0" in output and "emit@1.0" in output


class TestQueries:
    def test_list_datasets(self, defined):
        code, output = defined("list", "datasets")
        assert code == 0
        assert "seed.txt  [virtual] <- e1" in output
        assert "copy.txt  [virtual] <- c1" in output

    def test_list_derivations(self, defined):
        _, output = defined("list", "derivations")
        assert "c1 -> copy (in: seed.txt; out: copy.txt)" in output

    def test_plan_shows_topological_order(self, defined):
        code, output = defined("plan", "copy.txt", "--reuse", "never")
        assert code == 0
        assert output.index("e1:") < output.index("c1:")
        assert "2 steps" in output

    def test_lineage(self, defined):
        code, output = defined("lineage", "copy.txt")
        assert code == 0
        assert "<- c1 -> copy" in output
        assert "<- e1 -> emit" in output

    def test_invalidate(self, defined):
        code, output = defined("invalidate", "--dataset", "seed.txt")
        assert code == 0
        assert "copy.txt" in output
        assert "c1" in output

    def test_export_vdl_round_trips(self, defined, tmp_path):
        code, output = defined("export", "--format", "vdl")
        assert code == 0
        from repro.vdl.semantics import compile_vdl

        program = compile_vdl(output)
        assert {t.name for t in program.transformations} == {"copy", "emit"}

    def test_export_xml(self, defined):
        code, output = defined("export", "--format", "xml")
        assert code == 0
        assert output.startswith("<vdl>")


class TestMaterialize:
    def test_real_subprocess_execution(self, defined):
        """The emit/copy pipeline uses real /bin binaries end to end."""
        code, output = defined("materialize", "copy.txt")
        assert code == 0
        assert "ran e1: success" in output
        assert "ran c1: success" in output
        assert "copy.txt ->" in output

    def test_rematerialize_is_noop(self, defined):
        defined("materialize", "copy.txt")
        code, output = defined("materialize", "copy.txt")
        assert code == 0
        assert "already materialized" in output

    def test_invocations_recorded(self, defined):
        defined("materialize", "copy.txt")
        code, output = defined("list", "invocations")
        assert code == 0
        assert "e1" in output and "c1" in output


class TestAdHocRun:
    def test_run_tracks_and_numbers(self, defined):
        code, output = defined("run", "emit", "o=adhoc.txt")
        assert code == 0
        assert "ran cli.0001: success" in output
        code, output = defined(
            "run", "copy", "i=adhoc.txt", "o=adhoc2.txt"
        )
        assert code == 0
        assert "ran cli.0002: success" in output  # numbering continues
        code, output = defined("lineage", "adhoc2.txt")
        assert "cli.0001" in output and "cli.0002" in output

    def test_bad_binding_rejected(self, defined):
        code, output = defined("run", "emit", "noequals")
        assert code == 1
        assert "name=value" in output


class TestObservability:
    def test_stats_requires_a_prior_run(self, defined):
        code, output = defined("stats")
        assert code == 1
        assert "no observability snapshot" in output

    def test_materialize_then_stats(self, defined):
        defined("materialize", "copy.txt")
        code, output = defined("stats")
        assert code == 0
        assert "executor.invocations" in output
        assert "catalog.ops" in output

    def test_stats_prometheus_format(self, defined):
        defined("materialize", "copy.txt")
        code, output = defined("stats", "--format", "prom")
        assert code == 0
        assert "# TYPE executor_invocations counter" in output

    def test_stats_json_format(self, defined):
        import json

        defined("materialize", "copy.txt")
        code, output = defined("stats", "--format", "json")
        assert code == 0
        metrics = json.loads(output)
        assert metrics["executor.invocations"]["kind"] == "counter"

    def test_materialize_then_trace(self, defined):
        defined("materialize", "copy.txt")
        code, output = defined("trace")
        assert code == 0
        assert "executor.materialize" in output
        assert "executor.execute" in output
        assert "derivation=e1" in output

    def test_adhoc_run_is_traced_too(self, defined):
        defined("run", "emit", "o=adhoc.txt")
        code, output = defined("trace")
        assert code == 0
        assert "executor.execute" in output

    def test_snapshot_reflects_latest_run_only(self, defined):
        defined("materialize", "copy.txt")
        defined("run", "emit", "o=adhoc.txt")
        code, output = defined("trace")
        assert code == 0
        assert "derivation=cli.0001" in output
        assert "derivation=e1" not in output


class TestRunRecords:
    def test_materialize_writes_a_run_record(self, defined, tmp_path):
        code, output = defined("materialize", "copy.txt")
        assert code == 0
        assert "run record: run-" in output
        records = list((tmp_path / "ws" / "runs").glob("*/record.jsonl"))
        assert len(records) == 1

    def test_no_record_opts_out(self, defined, tmp_path):
        code, output = defined("materialize", "copy.txt", "--no-record")
        assert code == 0
        assert "run record" not in output
        assert not (tmp_path / "ws" / "runs").exists()

    def test_adhoc_run_is_recorded_too(self, defined, tmp_path):
        code, output = defined("run", "emit", "o=adhoc.txt")
        assert code == 0
        assert "run record: run-" in output

    def test_report_lists_runs_when_id_omitted(self, defined):
        code, output = defined("report")
        assert code == 0
        assert "no recorded runs" in output
        defined("materialize", "copy.txt")
        code, output = defined("report")
        assert code == 0
        assert "available runs" in output
        assert "materialize copy.txt" in output

    def test_report_renders_critical_path(self, defined):
        defined("materialize", "copy.txt")
        code, output = defined("report", "latest")
        assert code == 0
        assert "critical path" in output
        assert "e1" in output and "c1" in output
        assert "makespan" in output

    def test_report_json(self, defined):
        import json

        defined("materialize", "copy.txt")
        code, output = defined("report", "latest", "--json")
        assert code == 0
        data = json.loads(output)
        assert data["status"] == "ok"
        assert [s["step"] for s in data["critical_path"]["steps"]] == [
            "e1", "c1",
        ]

    def test_report_unknown_run_fails(self, defined):
        defined("materialize", "copy.txt")
        code, output = defined("report", "run-nope")
        assert code == 1
        assert "run-nope" in output

    def test_stats_run_selector(self, defined):
        import json

        code, output = defined("materialize", "copy.txt")
        run_id = next(
            line.split(": ", 1)[1]
            for line in output.splitlines()
            if line.startswith("run record: ")
        )
        code, output = defined("stats", "--run")  # no id: list runs
        assert code == 0
        assert run_id in output
        code, output = defined(
            "stats", "--run", run_id, "--format", "json"
        )
        assert code == 0
        metrics = json.loads(output)
        assert metrics["executor.invocations"]["kind"] == "counter"

    def test_trace_run_selector_and_chrome_export(self, defined, tmp_path):
        import json

        defined("materialize", "copy.txt")
        code, output = defined("trace", "--run")  # no id: list runs
        assert code == 0
        assert "available runs" in output
        code, output = defined("trace", "--run", "latest")
        assert code == 0
        assert "executor.materialize" in output
        code, output = defined("trace", "--chrome", "--output", "-")
        assert code == 0
        trace = json.loads(output)
        from repro.observability import validate_chrome_trace

        assert validate_chrome_trace(trace) == []
        assert any(
            e["name"] == "e1" for e in trace["traceEvents"]
        )

    def test_trace_chrome_writes_next_to_the_record(self, defined, tmp_path):
        import json

        defined("materialize", "copy.txt")
        code, output = defined("trace", "--chrome")
        assert code == 0
        assert "chrome trace written to" in output
        assert "ui.perfetto.dev" in output
        traces = list((tmp_path / "ws" / "runs").glob("*/trace.json"))
        assert len(traces) == 1
        json.loads(traces[0].read_text())

    def test_progress_flag_ticks(self, defined, capsys):
        code, output = defined("materialize", "copy.txt", "--progress")
        assert code == 0
        ticker = capsys.readouterr().err
        assert "done" in ticker and "elapsed" in ticker


class TestRunHistory:
    """The cross-run surface: runs / diff / regress / health / metrics."""

    @pytest.fixture
    def seeded(self, run, tmp_path):
        """A workspace with deterministic synthesized run records."""
        from tests.observability.test_history import write_run

        assert run("init")[0] == 0
        runs_dir = tmp_path / "ws" / "runs"
        for i in range(3):
            write_run(runs_dir, f"run-{i}")
        return run, runs_dir

    def test_runs_lists_oldest_first(self, seeded):
        run, _ = seeded
        code, output = run("runs")
        assert code == 0
        assert "3 recorded run(s), oldest first:" in output
        lines = output.splitlines()
        assert lines[1].strip().startswith("run-0")
        assert "status=ok" in output
        assert "makespan=10.000s" in output

    def test_runs_empty_workspace(self, run):
        run("init")
        code, output = run("runs")
        assert code == 0
        assert "no recorded runs" in output

    def test_prune_keeps_newest(self, seeded):
        run, runs_dir = seeded
        code, output = run("runs", "prune", "--keep", "1")
        assert code == 0
        assert "pruned run-0" in output and "pruned run-1" in output
        assert sorted(p.name for p in runs_dir.iterdir()) == ["run-2"]
        # The aggregates survived into the history store.
        code, output = run("regress", "--run", "latest")
        assert code == 0  # run-2 vs the retained run-0/run-1 baseline

    def test_prune_nothing_to_do(self, seeded):
        run, _ = seeded
        code, output = run("runs", "prune", "--keep", "5")
        assert code == 0
        assert "nothing to prune" in output

    def test_prune_negative_keep_rejected(self, seeded):
        run, _ = seeded
        code, output = run("runs", "prune", "--keep", "-1")
        assert code == 1
        assert "error:" in output

    def test_diff_clean_pair(self, seeded):
        run, _ = seeded
        code, output = run("diff", "run-0", "run-1")
        assert code == 0
        assert "no significant regressions" in output

    def test_diff_flags_slowdown(self, run, tmp_path):
        from tests.observability.test_history import write_run

        run("init")
        runs_dir = tmp_path / "ws" / "runs"
        write_run(runs_dir, "run-base")
        write_run(runs_dir, "run-slow", proc_seconds=10.0)
        code, output = run("diff", "run-base", "run-slow")
        assert code == 0  # diff reports; regress gates
        assert "REGRESSED: proc" in output
        import json

        code, output = run("diff", "run-base", "run-slow", "--json")
        assert json.loads(output)["regressions"] == ["proc"]

    def test_regress_gates_with_exit_2(self, seeded):
        run, runs_dir = seeded
        from tests.observability.test_history import write_run

        write_run(runs_dir, "run-slow", proc_seconds=10.0)
        code, output = run("regress", "--run", "run-slow")
        assert code == 2
        assert "REGRESSED: proc" in output

    def test_regress_clean_exits_0(self, seeded):
        run, _ = seeded
        code, output = run("regress")  # latest vs the others
        assert code == 0

    def test_regress_without_baseline_errors(self, run, tmp_path):
        from tests.observability.test_history import write_run

        run("init")
        write_run(tmp_path / "ws" / "runs", "run-only")
        code, output = run("regress")
        assert code == 1
        assert "no baseline" in output

    def test_health_reports_degraded_site(self, run, tmp_path):
        from tests.observability.test_health import faulty_run

        run("init")
        faulty_run(tmp_path / "ws" / "runs", "run-f")
        code, output = run("health")
        assert code == 0  # reporting never gates without --check
        assert "bad" in output
        code, output = run("health", "--check")
        assert code == 2
        import json

        code, output = run("health", "--json")
        data = json.loads(output)
        bad = next(s for s in data["sites"] if s["site"] == "bad")
        assert bad["status"] in ("degraded", "critical")

    def test_health_without_runs_errors(self, run):
        run("init")
        code, output = run("health")
        assert code == 1
        assert "no recorded runs" in output

    def test_metrics_openmetrics_validates(self, defined):
        from repro.observability import validate_openmetrics

        defined("materialize", "copy.txt")
        code, output = defined("metrics", "--openmetrics")
        assert code == 0
        text = output + "\n"
        assert validate_openmetrics(text) == []
        assert "executor_invocations_total" in output
        # Health gauges ride along once history exists.
        assert "site_health_status" in output

    def test_metrics_human_rendering(self, defined):
        defined("materialize", "copy.txt")
        code, output = defined("metrics")
        assert code == 0
        assert "executor.invocations" in output
        assert "site.health.status" in output


class TestExitCodes:
    """Satellite: one consistent operational-error contract."""

    def test_unknown_run_everywhere_is_exit_1(self, defined):
        defined("materialize", "copy.txt")
        for argv in (
            ["stats", "--run", "run-nope"],
            ["trace", "--run", "run-nope"],
            ["report", "run-nope"],
            ["diff", "run-nope", "latest"],
            ["regress", "--run", "run-nope"],
            ["metrics", "--run", "run-nope"],
        ):
            code, output = defined(*argv)
            assert code == 1, argv
            assert "error:" in output, argv
            assert "run-nope" in output, argv
            assert "Traceback" not in output, argv

    def test_errors_go_to_stderr_by_default(self, tmp_path, capsys):
        code = main(
            ["--workspace", str(tmp_path / "ws"), "list", "datasets"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "no workspace" in captured.err
        assert captured.out == ""


class TestRelativeWorkspace:
    def test_materialize_in_a_relative_workspace(self, tmp_path, monkeypatch):
        """A stdout redirect used to resolve against the cwd and land
        under a sandbox-mangled name, failing the step."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.vdl").write_text(VDL)
        lines = []

        def cli(*argv):
            return main(
                ["--workspace", "ws", *argv],
                out=lambda text="": lines.append(str(text)),
            )

        assert cli("init") == 0
        assert cli("define", "p.vdl") == 0
        assert cli("materialize", "copy.txt") == 0, "\n".join(lines)
        copy = tmp_path / "ws" / "sandbox" / "copy.txt"
        assert copy.read_text() == "hello-vdg\n"


class TestClosedReader:
    def test_no_traceback_when_the_reader_goes_away(self, defined, tmp_path):
        """``repro stats | head`` style: the reader closes first."""
        defined("materialize", "copy.txt")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--workspace", str(tmp_path / "ws"),
                "stats", "--format", "json",
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # gone before the command writes anything
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
