"""Tests for interactive sessions and log snapshots (§5.1)."""

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.errors import ExecutionError
from repro.executor.local import LocalExecutor
from repro.executor.session import InteractiveSession
from repro.provenance.lineage import lineage_report

TOOLS = """
TR gen( output o, none seed="1" ) {
  argument = "-s "${none:seed};
  argument stdout = ${output:o};
  exec = "py:gen";
}
TR double( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "py:double";
}
"""


@pytest.fixture
def session(tmp_path):
    catalog = MemoryCatalog().define(TOOLS)
    executor = LocalExecutor(catalog, tmp_path)
    executor.register(
        "py:gen",
        lambda ctx: ctx.write_output("o", "x" * int(ctx.parameters["seed"])),
    )
    executor.register(
        "py:double",
        lambda ctx: ctx.write_output("o", ctx.read_input("i") * 2),
    )
    return InteractiveSession(executor, prefix="mysess")


class TestInteractiveRuns:
    def test_run_generates_names(self, session):
        outputs = session.run("gen", seed="4")
        assert outputs == ("mysess.0001.o",)
        assert session.executor.path_for(outputs[0]).read_text() == "xxxx"

    def test_explicit_output_names(self, session):
        outputs = session.run("gen", seed="2", o="my.data")
        assert outputs == ("my.data",)

    def test_chaining_runs(self, session):
        (raw,) = session.run("gen", seed="3")
        (doubled,) = session.run("double", i=raw)
        assert session.executor.path_for(doubled).read_text() == "xxxxxx"
        # The catalog tracked everything automatically.
        report = lineage_report(session.catalog, doubled)
        assert report.depth() == 2

    def test_missing_input_rejected(self, session):
        with pytest.raises(ExecutionError):
            session.run("double")  # no input binding

    def test_missing_string_uses_default(self, session):
        (out,) = session.run("gen")  # seed defaults to "1"
        assert session.executor.path_for(out).read_text() == "x"

    def test_history_log(self, session):
        session.run("gen", seed="2")
        (raw,) = session.run("gen", seed="5", o="raw5")
        session.run("double", i=raw)
        lines = session.history()
        assert len(lines) == 3
        assert "gen(seed='5')" in lines[1]
        assert "raw5" in lines[1]
        assert session.datasets_created()[-1].endswith(".o")

    def test_derivations_tagged_with_session(self, session):
        session.run("gen", seed="2")
        dv = session.catalog.get_derivation("mysess.0001")
        assert dv.attributes.get("session") == "mysess"


class TestSnapshot:
    def test_snapshot_into_permanent_catalog(self, session):
        (raw,) = session.run("gen", seed="9")
        (doubled,) = session.run("double", i=raw)
        permanent = MemoryCatalog(authority="collab.org")
        report = session.snapshot(
            permanent, names={doubled: "published.result"}
        )
        assert permanent.has_dataset("published.result")
        assert not permanent.has_dataset(doubled)
        # Full recipe came along and was re-pointed at the new name.
        trail = lineage_report(permanent, "published.result")
        assert len(trail.all_derivations()) == 2
        assert report.transformations  # gen and double published too

    def test_snapshot_keeps_session_catalog_intact(self, session):
        (raw,) = session.run("gen", seed="9")
        permanent = MemoryCatalog(authority="collab.org")
        session.snapshot(permanent, names={raw: "kept"})
        assert session.catalog.has_dataset(raw)  # session side unchanged
