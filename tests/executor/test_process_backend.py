"""Process-pool backend: parity with thread/sequential, pickle safety.

The process backend must be observably indistinguishable from the
thread backend and the sequential path — same replicas (by digest),
same invocation records, same counters — because only the *where* of
execution changes, never the *what*.  A hypothesis property checks the
three-way equivalence over generated canonical graphs; the pickle
tests pin the preflight's field-level attribution and the
run-what-you-can semantics around unpicklable payloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.memory import MemoryCatalog
from repro.errors import ExecutionError, MaterializationError
from repro.executor.local import LocalExecutor
from repro.observability.instrument import Instrumentation
from repro.workloads import canonical

from tests.executor.test_parallel import (
    build_executor,
    catalog_end_state,
    wide_vdl,
)

BACKENDS = (("seq", "thread", 1), ("thread", "thread", 4), ("proc", "process", 4))

#: One step with two outputs whose formals are not in sorted order.
SPLIT_VDL = """
TR split( output zeta, output alpha, input i ) {
  argument = ${input:i}" "${output:zeta}" "${output:alpha};
  exec = "py:split";
}
DV src->canon0( o=@{output:"src.out"}, tag="s" );
DV cut->split( zeta=@{output:"z.out"}, alpha=@{output:"a.out"},
               i=@{input:"src.out"} );
"""


def split_body(ctx):
    data = ctx.read_input("i")
    ctx.write_output("zeta", data[: len(data) // 2])
    ctx.write_output("alpha", data[len(data) // 2:])


class TestProcessParity:
    def test_three_way_end_state_parity(self, tmp_path):
        """sequential == thread == process on a wide fan-out plan."""
        states = {}
        orders = {}
        for tag, backend, workers in BACKENDS:
            catalog, executor = build_executor(tmp_path, wide_vdl(8), tag)
            invocations = executor.materialize(
                "final.out", workers=workers, backend=backend
            )
            states[tag] = catalog_end_state(catalog)
            orders[tag] = [inv.derivation_name for inv in invocations]
        assert states["seq"] == states["thread"] == states["proc"]
        # The returned invocation list is plan-ordered on every backend.
        assert orders["seq"] == orders["thread"] == orders["proc"]

    def test_output_commit_order_is_formal_order_on_every_lane(
        self, tmp_path
    ):
        """One commit function, one order: outputs are recorded in the
        transformation's formal order (not sorted), so bindings and
        replica ids line up the same way on all three lanes."""
        seen = {}
        for tag, backend, workers in BACKENDS:
            catalog, executor = build_executor(tmp_path, SPLIT_VDL, tag)
            executor.register("py:split", split_body)
            cut = executor.materialize(
                "z.out", workers=workers, backend=backend
            )[-1]
            stored = catalog.get_invocation(cut.invocation_id)
            assert stored.replica_bindings == cut.replica_bindings
            ids = list(cut.replica_bindings.values())
            assert ids == sorted(ids)  # allocated in commit order
            seen[tag] = [
                (formal, catalog.get_replica(rid).dataset_name)
                for formal, rid in cut.replica_bindings.items()
            ]
        assert seen["seq"] == [("zeta", "z.out"), ("alpha", "a.out")]
        assert seen["seq"] == seen["thread"] == seen["proc"]

    def test_counter_parity(self, tmp_path):
        """The collector reproduces the thread backend's counters."""
        totals = {}
        for tag, backend, workers in (
            ("thread", "thread", 4),
            ("proc", "process", 4),
        ):
            obs = Instrumentation()
            catalog = MemoryCatalog(instrumentation=obs)
            canonical.define_transformations(catalog)
            catalog.define(wide_vdl(8))
            executor = LocalExecutor(
                catalog, tmp_path / f"ctr-{tag}", instrumentation=obs
            )
            canonical.register_bodies(executor)
            executor.materialize(
                "final.out", workers=workers, backend=backend
            )
            totals[tag] = {
                name: obs.metrics.get(name).total()
                for name in (
                    "executor.invocations",
                    "executor.bytes_written",
                )
            }
        assert totals["thread"] == totals["proc"]
        assert totals["proc"]["executor.invocations"] == 12  # 1+8+2+1

    def test_worker_counters_ride_alongside_parity_counters(self, tmp_path):
        """The relay ships worker.* metrics without perturbing the
        executor.* counters the collector replays for parity."""
        obs = Instrumentation()
        catalog = MemoryCatalog(instrumentation=obs)
        canonical.define_transformations(catalog)
        catalog.define(wide_vdl(8))
        executor = LocalExecutor(
            catalog, tmp_path / "wctr", instrumentation=obs
        )
        canonical.register_bodies(executor)
        executor.materialize("final.out", workers=4, backend="process")
        assert obs.metrics.get("worker.invocations").total() == 12
        assert obs.metrics.get("worker.invocations").total() == (
            obs.metrics.get("executor.invocations").total()
        )
        assert obs.metrics.get("worker.bytes_written").total() == (
            obs.metrics.get("executor.bytes_written").total()
        )
        seconds = obs.metrics.get("worker.invocation.seconds")
        assert seconds.count() == 12 and seconds.sum() > 0

    def test_process_backend_sequential_worker(self, tmp_path):
        """workers=1 with backend='process' still round-trips payloads."""
        catalog, executor = build_executor(tmp_path, wide_vdl(4), "p1")
        invocations = executor.materialize(
            "final.out", workers=1, backend="process"
        )
        assert len(invocations) == len(catalog.derivation_names())

    def test_unknown_backend_rejected(self, tmp_path):
        _, executor = build_executor(tmp_path, wide_vdl(4), "bad")
        with pytest.raises(ValueError, match="backend"):
            executor.materialize("final.out", backend="coroutine")


class TestProcessProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        nodes=st.integers(min_value=4, max_value=18),
        layers=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_process_equals_sequential(
        self, tmp_path_factory, nodes, layers, seed
    ):
        """For any generated canonical graph, the process backend's
        catalog end state is byte-identical to sequential execution."""
        states = []
        for tag, backend, workers in (
            ("seq", "thread", 1),
            ("proc", "process", 2),
        ):
            catalog = MemoryCatalog()
            graph = canonical.generate_graph(
                catalog, nodes=nodes, layers=layers, seed=seed
            )
            workdir = tmp_path_factory.mktemp(f"pb-{tag}")
            executor = LocalExecutor(catalog, workdir)
            canonical.register_bodies(executor)
            executor.materialize(graph.sink_datasets[0], workers=workers)
            if backend == "process":
                # Re-run through the process pool on a fresh catalog so
                # reuse can't mask a divergence.
                catalog = MemoryCatalog()
                graph = canonical.generate_graph(
                    catalog, nodes=nodes, layers=layers, seed=seed
                )
                executor = LocalExecutor(
                    catalog, tmp_path_factory.mktemp("pb-proc2")
                )
                canonical.register_bodies(executor)
                executor.materialize(
                    graph.sink_datasets[0],
                    workers=workers,
                    backend="process",
                )
            states.append(catalog_end_state(catalog))
        assert states[0] == states[1]


PICKLE_VDL = (
    'DV src->canon0( o=@{output:"src.out"}, tag="s" );\n'
    'DV lam->canon1( o=@{output:"lam.out"}, i0=@{input:"src.out"}, '
    'tag="l" );\n'
    'DV ok->canon2( o=@{output:"ok.out"}, i0=@{input:"src.out"}, '
    'i1=@{input:"src.out"}, tag="o" );\n'
    'DV top->canon2( o=@{output:"top.out"}, i0=@{input:"lam.out"}, '
    'i1=@{input:"ok.out"}, tag="t" );\n'
)


def build_lambda_executor(tmp_path, tag):
    """canon1's body is a lambda: fine in-process, unpicklable."""
    catalog = MemoryCatalog()
    canonical.define_transformations(catalog)
    catalog.define(PICKLE_VDL)
    executor = LocalExecutor(catalog, tmp_path / tag)
    canonical.register_bodies(executor)
    executor.register("py:canon1", lambda ctx: canonical._canon_body(ctx))
    return catalog, executor


class TestPickleFailure:
    def test_error_names_the_body_field(self, tmp_path):
        _, executor = build_lambda_executor(tmp_path, "pf")
        with pytest.raises(ExecutionError) as exc_info:
            executor.materialize("lam.out", workers=2, backend="process")
        message = str(exc_info.value)
        assert "'lam'" in message
        assert "field 'body'" in message
        assert "module-level" in message  # the actionable hint

    def test_thread_backend_unaffected_by_lambda(self, tmp_path):
        """The same registration works on the thread backend — the
        restriction is a process-boundary fact, not a new API rule."""
        catalog, executor = build_lambda_executor(tmp_path, "pf-thread")
        executor.materialize("lam.out", workers=2, backend="thread")
        replicas, _ = catalog_end_state(catalog)
        assert any(name == "lam.out" for name, _ in replicas)

    def test_run_what_you_can_past_pickle_failure(self, tmp_path):
        """An unpicklable step fails cleanly; independent work runs."""
        catalog, executor = build_lambda_executor(tmp_path, "pf-rwyc")
        with pytest.raises(MaterializationError) as exc_info:
            executor.materialize(
                "top.out",
                workers=2,
                backend="process",
                failure_policy="run-what-you-can",
            )
        err = exc_info.value
        assert err.failed == ["lam"]
        assert err.skipped == ["top"]
        done = [inv.derivation_name for inv in err.invocations]
        assert "ok" in done and "src" in done
        # The pickle failure recorded no invocation for the bad step.
        recorded = {
            catalog.get_invocation(iid).derivation_name
            for iid in catalog.invocation_ids()
        }
        assert "lam" not in recorded


def instrumented_process_run(tmp_path, tag, vdl, target="final.out"):
    """Materialize ``target`` on the process backend under a live obs."""
    obs = Instrumentation()
    catalog = MemoryCatalog(instrumentation=obs)
    canonical.define_transformations(catalog)
    catalog.define(vdl)
    executor = LocalExecutor(catalog, tmp_path / tag, instrumentation=obs)
    canonical.register_bodies(executor)
    error = None
    try:
        executor.materialize(target, workers=4, backend="process")
    except (ExecutionError, MaterializationError) as exc:
        error = exc
    return obs, error


class TestTelemetryRelay:
    """Worker spans/events merge into the parent's single trace."""

    def test_every_executed_step_has_a_worker_span(self, tmp_path):
        obs, error = instrumented_process_run(tmp_path, "relay", wide_vdl(8))
        assert error is None
        roots = obs.tracer.spans("worker.invocation")
        assert len(roots) == 12  # 1+8+2+1 on wide_vdl(8)
        assert len({s.attributes["step"] for s in roots}) == 12
        assert all(s.status == "ok" for s in roots)

    def test_worker_spans_parented_under_materialize(self, tmp_path):
        obs, _ = instrumented_process_run(tmp_path, "parent", wide_vdl(8))
        by_id = {s.span_id: s for s in obs.tracer.spans()}
        mat = obs.tracer.spans("executor.materialize")[0]
        for root in obs.tracer.spans("worker.invocation"):
            assert root.parent_id == mat.span_id
            assert root.thread.startswith("worker-")
            assert root.attributes["worker_pid"] == int(
                root.thread.split("-", 1)[1]
            )
        for run in obs.tracer.spans("worker.run"):
            parent = by_id[run.parent_id]
            assert parent.name == "worker.invocation"
            # Children nest inside their parent's rebased window.
            assert parent.start_wall <= run.start_wall
            assert run.end_wall <= parent.end_wall + 1e-6

    def test_worker_spans_land_inside_the_parent_window(self, tmp_path):
        """Clock-skew alignment: grafted spans sit inside the parent's
        perf_counter window, not at some other process's epoch."""
        obs, _ = instrumented_process_run(tmp_path, "skew", wide_vdl(8))
        mat = obs.tracer.spans("executor.materialize")[0]
        for span in obs.tracer.spans("worker.invocation"):
            assert span.end_wall > span.start_wall
            assert mat.start_wall - 1.0 <= span.start_wall
            assert span.end_wall <= mat.end_wall + 1.0

    def test_failure_ships_error_span_and_stream_tail(self, tmp_path):
        """A worker-side failure still merges its telemetry — status,
        error text, and the missing-executable span are all visible."""
        vdl = 'DV src->canon0( o=@{output:"src.out"}, tag="s" );\n'
        obs = Instrumentation()
        catalog = MemoryCatalog(instrumentation=obs)
        canonical.define_transformations(catalog)
        catalog.define(vdl)
        executor = LocalExecutor(
            catalog, tmp_path / "fail", instrumentation=obs
        )
        # No bodies registered: the worker hits the missing-executable
        # refusal (commit=False) — exactly the no-invocation path.
        with pytest.raises(ExecutionError):
            executor.materialize("src.out", workers=2, backend="process")
        roots = obs.tracer.spans("worker.invocation")
        assert len(roots) == 1
        assert roots[0].status == "error"
        assert "does not exist" in roots[0].error
        assert obs.metrics.get("worker.invocations").total() == 1

    def test_recorded_run_exports_per_worker_perfetto_tracks(
        self, tmp_path
    ):
        """A recorded process-backend run renders as the parent process
        plus one Perfetto process track per worker pid, and the trace
        passes the shape validator."""
        from repro.observability.analysis import (
            chrome_trace,
            validate_chrome_trace,
        )
        from repro.observability.recorder import FlightRecorder, RunRecord

        obs = Instrumentation()
        recorder = FlightRecorder.start(
            tmp_path / "runs", command="materialize final.out"
        )
        obs.attach_recorder(recorder)
        catalog = MemoryCatalog(instrumentation=obs)
        canonical.define_transformations(catalog)
        catalog.define(wide_vdl(8))
        executor = LocalExecutor(
            catalog, tmp_path / "trace", instrumentation=obs
        )
        canonical.register_bodies(executor)
        executor.materialize("final.out", workers=4, backend="process")
        recorder.finalize(obs, status="ok")

        record = RunRecord.load(recorder.path)
        trace = chrome_trace(record)
        assert validate_chrome_trace(trace) == []
        worker_pids = {
            s["attributes"]["worker_pid"]
            for s in record.spans
            if s["name"] == "worker.invocation"
        }
        assert worker_pids and 1 not in worker_pids
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "process_name"
        }
        assert set(process_names) == {1, *worker_pids}
        for pid in worker_pids:
            assert process_names[pid] == f"worker {pid}"
        # Every worker span event sits on its worker's process track.
        for event in trace["traceEvents"]:
            if event.get("ph") == "X" and event["name"].startswith(
                "worker."
            ):
                assert event["pid"] in worker_pids


class TestPickleOnce:
    def test_a_payload_is_pickled_once_per_step(self, tmp_path, monkeypatch):
        """The preflight's bytes are what the worker gets: the pool
        does not pickle the payload a second time."""
        from repro.executor.process import InvocationPayload

        pickled = []

        def getstate(payload):
            pickled.append(payload.step_name)
            return payload.__dict__

        monkeypatch.setattr(
            InvocationPayload, "__getstate__", getstate, raising=False
        )
        catalog, executor = build_executor(tmp_path, wide_vdl(4), "once")
        invocations = executor.materialize(
            "final.out", workers=2, backend="process"
        )
        steps = sorted(inv.derivation_name for inv in invocations)
        assert len(steps) == 7
        assert sorted(pickled) == steps
