"""End-to-end tests for ``repro analyze`` and ``repro lint --incremental``."""

import json

import pytest

from repro.cli import main

CONFLICT_VDL = """
TR emitx( output o ) { argument stdout = ${output:o}; exec = "/bin/e"; }
TR twice( output o ) {
  emitx( o=${output:o} );
  emitx( o=${output:o} );
}
DV t1->twice( o=@{output:"dup.out"} );
"""

CLEAN_VDL = """
TR copy( output o, input i ) {
  argument = ${input:i}" "${output:o};
  exec = "/bin/cp";
}
DV c1->copy( o=@{output:"copy.txt"}, i=@{input:"seed.txt"} );
"""

RACY_VDL = CLEAN_VDL + """
DV c2->copy( o=@{output:"copy2.txt"}, i=@{input:"seed.txt"} );
DV c3->copy( o=@{output:"copy2.txt"}, i=@{input:"seed.txt"} );
"""


@pytest.fixture
def run(tmp_path):
    workspace = tmp_path / "ws"

    def invoke(*argv):
        lines = []
        code = main(
            ["--workspace", str(workspace), *argv],
            out=lambda text="": lines.append(str(text)),
        )
        return code, "\n".join(lines)

    return invoke


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestAnalyzeCommand:
    def test_clean_catalog_exits_zero(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", CLEAN_VDL))[0] == 0
        code, output = run("analyze")
        assert code == 0
        assert "clean" in output

    def test_conflict_found_and_rendered(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", CONFLICT_VDL))[0] == 0
        code, output = run("analyze")
        assert code == 1
        assert "error[VDG631]" in output

    def test_pass_selection_flags(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", CONFLICT_VDL))[0] == 0
        # Conflicts selected: the finding appears.
        code, output = run("analyze", "--conflicts")
        assert code == 1 and "VDG631" in output
        # Only staleness selected: the conflict is out of scope.
        code, output = run("analyze", "--stale")
        assert code == 0 and "VDG631" not in output

    def test_json_format_schema(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", CONFLICT_VDL))[0] == 0
        code, output = run("analyze", "--format", "json")
        payload = json.loads(output)
        assert payload["exit_code"] == 1 == code
        assert payload["summary"]["error"] == 1
        diag = payload["diagnostics"][0]
        assert diag["code"] == "VDG631"
        # The documented JSON shape (docs/LINTING.md).
        assert set(diag) == {
            "code", "severity", "message", "file", "line", "column",
            "object", "rule",
        }

    def test_stats_table(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", CLEAN_VDL))[0] == 0
        code, output = run("analyze", "--stats")
        assert code == 0
        assert "graph:" in output
        for name in ("staleness", "dead-data", "type-flow", "output-conflict"):
            assert name in output

    def test_analyze_records_observability(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", CLEAN_VDL))[0] == 0
        assert run("analyze")[0] == 0
        code, output = run("stats")
        assert code == 0
        assert "analysis.incremental.solves" in output


class TestIncrementalLint:
    def test_same_codes_as_cold_lint(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", RACY_VDL))[0] == 0
        cold_code, cold_out = run("lint")
        warm_code, warm_out = run("lint", "--incremental")
        assert cold_code == warm_code == 1
        assert "VDG201" in cold_out and "VDG201" in warm_out

    def test_info_only_catalog_exits_zero(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", CLEAN_VDL))[0] == 0
        code, output = run("lint", "--incremental")
        # Both paths agree: one VDG403 info (unproduced input), exit 0.
        assert code == 0
        assert "info[VDG403]" in output
        assert run("lint")[0] == 0

    def test_no_export_no_reparse(self, tmp_path, monkeypatch):
        """The incremental path must never round-trip through VDL."""
        from repro.catalog.base import VirtualDataCatalog
        from repro.catalog.memory import MemoryCatalog
        from repro.analysis.linter import Linter

        catalog = MemoryCatalog().define(RACY_VDL)

        def boom(self):
            raise AssertionError("export_vdl called on the incremental path")

        monkeypatch.setattr(VirtualDataCatalog, "export_vdl", boom)
        result = Linter().lint_catalog(catalog, incremental=True)
        assert any(d.code == "VDG201" for d in result.diagnostics)

    def test_live_lint_spans_carry_the_callers_file(self):
        """The analyzer is one per catalog, made under its own name; a
        lint names the file it was asked for, first call or later."""
        from repro.analysis import Linter, render_text
        from repro.catalog.memory import MemoryCatalog

        catalog = MemoryCatalog().define(RACY_VDL)
        assert catalog.live_analyzer().file == "<catalog>"
        for file in ("<sdss>", "<hep>"):
            result = Linter().lint_catalog(
                catalog, file=file, incremental=True
            )
            assert result.file == file
            assert {d.span.file for d in result.diagnostics} == {file}
            assert render_text(result).startswith(f"{file}: error[VDG201]")

    def test_catalog_messages_name_no_line_zero(self):
        """A catalog has no source lines: the VDG201/VDG202 messages
        leave out the "(line N)" of the declaration they point back to."""
        from repro.analysis import Linter
        from repro.catalog.memory import MemoryCatalog

        catalog = MemoryCatalog().define(RACY_VDL + CONFLICT_VDL)
        result = Linter().lint_catalog(catalog, incremental=True)
        messages = {
            d.code: d.message
            for d in result.diagnostics
            if d.code in ("VDG201", "VDG202")
        }
        assert messages == {
            "VDG201": (
                "dataset 'copy2.txt' is produced by DV 'c3' and by DV "
                "'c2'; materialization order would be nondeterministic"
            ),
            "VDG202": (
                "TR 'twice': calls to 'emitx' and 'emitx' both write 'o'"
            ),
        }


class TestStrictPlanReusesContext:
    def test_strict_plan_without_export_roundtrip(
        self, run, tmp_path, monkeypatch
    ):
        from repro.catalog.base import VirtualDataCatalog

        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", CLEAN_VDL))[0] == 0

        def boom(self):
            raise AssertionError("plan --strict exported VDL")

        monkeypatch.setattr(VirtualDataCatalog, "export_vdl", boom)
        code, output = run("plan", "copy.txt", "--strict")
        assert code == 0
        assert "plan for copy.txt" in output

    def test_strict_plan_still_gates_on_errors(self, run, tmp_path):
        assert run("init")[0] == 0
        assert run("define", _write(tmp_path, "p.vdl", RACY_VDL))[0] == 0
        code, output = run("plan", "copy2.txt", "--strict")
        assert code == 1
        assert "plan aborted" in output
