"""Tests for the local sandbox executor with real provenance capture."""

import weakref

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.dataset import Dataset
from repro.errors import ExecutionError
from repro.executor.local import LocalExecutor
from repro.observability.instrument import Instrumentation
from repro.planner.dag import Planner

PIPELINE = """
TR make-greeting( output o, none words="2" ) {
  argument = "-n "${none:words};
  argument stdout = ${output:o};
  exec = "py:make-greeting";
}
TR shout( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "py:shout";
}
DV mk->make-greeting( o=@{output:"greeting.txt"}, words="3" );
DV sh->shout( o=@{output:"loud.txt"}, i=@{input:"greeting.txt"} );
"""


@pytest.fixture
def executor(tmp_path):
    catalog = MemoryCatalog().define(PIPELINE)
    ex = LocalExecutor(catalog, tmp_path / "sandbox")
    ex.register(
        "py:make-greeting",
        lambda ctx: ctx.write_output(
            "o", "hello " * int(ctx.parameters["words"])
        ),
    )
    ex.register(
        "py:shout",
        lambda ctx: ctx.write_output("o", ctx.read_input("i").decode().upper()),
    )
    return ex


class TestExecute:
    def test_single_derivation(self, executor):
        inv = executor.execute("mk")
        assert inv.succeeded
        assert executor.path_for("greeting.txt").read_text() == "hello hello hello "
        assert inv.usage.bytes_written == len("hello hello hello ")

    def test_missing_input_rejected(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute("sh")  # greeting.txt not yet materialized

    def test_provenance_records_written(self, executor):
        executor.execute("mk")
        catalog = executor.catalog
        invs = catalog.invocations_of("mk")
        assert len(invs) == 1
        replicas = catalog.replicas_of("greeting.txt")
        assert len(replicas) == 1
        assert replicas[0].digest is not None
        assert invs[0].replica_bindings["o"] == replicas[0].replica_id
        assert catalog.is_materialized("greeting.txt")

    def test_failing_body_records_failure(self, executor):
        def boom(ctx):
            raise ValueError("physics is broken")

        executor.register("py:make-greeting", boom)
        with pytest.raises(ExecutionError):
            executor.execute("mk")
        invs = executor.catalog.invocations_of("mk")
        assert len(invs) == 1
        assert invs[0].status == "failure"
        assert "physics is broken" in invs[0].error

    def test_missing_output_is_failure(self, executor):
        executor.register("py:make-greeting", lambda ctx: None)  # writes nothing
        with pytest.raises(ExecutionError):
            executor.execute("mk")

    def test_unregistered_executable_rejected(self, executor):
        executor.catalog.define(
            'TR ghost( output o ) { argument stdout = ${output:o};'
            ' exec = "/no/such/binary"; }'
            ' DV g->ghost( o=@{output:"x"} );'
        )
        with pytest.raises(ExecutionError):
            executor.execute("g")

    def test_compound_rejected_directly(self, executor):
        executor.catalog.define(
            """
            TR comp( input i, output o ) {
              shout( o=${o}, i=${i} );
            }
            DV c->comp( i=@{input:"greeting.txt"}, o=@{output:"yy"} );
            """
        )
        with pytest.raises(ExecutionError):
            executor.execute("c")


class TestMaterialize:
    def test_end_to_end(self, executor):
        invocations = executor.materialize("loud.txt")
        assert [i.derivation_name for i in invocations] == ["mk", "sh"]
        assert executor.path_for("loud.txt").read_text() == "HELLO HELLO HELLO "

    def test_reuse_skips_existing(self, executor):
        executor.materialize("loud.txt")
        again = executor.materialize("loud.txt")
        assert again == []

    def test_a_replaced_planner_is_freed_and_stops_listening(
        self, executor, monkeypatch
    ):
        """Swapping the instrumentation rebuilds the executor's planner;
        the one it replaces is freed at once, and no longer updates its
        memos on catalog writes."""
        heard = []
        on_event = Planner._on_catalog_event

        def counting(planner, *event):
            heard.append(planner)
            on_event(planner, *event)

        monkeypatch.setattr(Planner, "_on_catalog_event", counting)
        first = executor.planner()
        gone = weakref.ref(first)
        for _ in range(2):
            executor.obs = Instrumentation()
            assert executor.planner() is not first
        del first
        assert gone() is None
        executor.catalog.add_dataset(Dataset(name="fresh"))
        assert heard == [executor.planner()]

    def test_reuse_never_recomputes(self, executor):
        executor.materialize("loud.txt")
        again = executor.materialize("loud.txt", reuse="never")
        assert len(again) == 2

    def test_run_context_streams_and_argv(self, executor):
        captured = {}

        def probing_body(ctx):
            captured["argv"] = ctx.argv
            captured["streams"] = dict(ctx.streams)
            ctx.write_output("o", "x")

        executor.register("py:make-greeting", probing_body)
        executor.execute("mk")
        assert captured["argv"] == ("-n 3",)
        assert "stdout" in captured["streams"]

    def test_environment_passed(self, tmp_path):
        catalog = MemoryCatalog().define(
            """
            TR envy( output o, none m="9" ) {
              argument stdout = ${output:o};
              env.MAXMEM = ${none:m};
              exec = "py:envy";
            }
            DV e->envy( o=@{output:"env.txt"}, m="512" );
            """
        )
        ex = LocalExecutor(catalog, tmp_path)
        ex.register(
            "py:envy",
            lambda ctx: ctx.write_output("o", ctx.environment["MAXMEM"]),
        )
        ex.execute("e")
        assert ex.path_for("env.txt").read_text() == "512"
        inv = catalog.invocations_of("e")[0]
        assert inv.context.environment_dict()["MAXMEM"] == "512"
