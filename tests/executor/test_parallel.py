"""Concurrency tests for the parallel local materialization engine.

The stress test runs a wide fan-out canonical plan at ``workers=8``
twenty times, asserting no lost or duplicated invocations and a
catalog end-state identical to sequential execution; a hypothesis
property then checks the parallel/sequential replica-set equality over
generated graph shapes.
"""

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.memory import MemoryCatalog
from repro.errors import ExecutionError, MaterializationError
from repro.executor.local import LocalExecutor
from repro.workloads import canonical


def wide_vdl(width=8):
    """1 source -> ``width`` parallel steps -> tree merge -> 1 sink."""
    assert width % 4 == 0
    chunks = ['DV src->canon0( o=@{output:"src.out"}, tag="s" );\n']
    for i in range(width):
        chunks.append(
            f'DV mid{i:02d}->canon1( o=@{{output:"mid{i:02d}.out"}}, '
            f'i0=@{{input:"src.out"}}, tag="m{i}" );\n'
        )
    groups = [
        [f"mid{i:02d}.out" for i in range(g * 4, g * 4 + 4)]
        for g in range(width // 4)
    ]
    for g, members in enumerate(groups):
        bindings = ", ".join(
            f'i{k}=@{{input:"{ds}"}}' for k, ds in enumerate(members)
        )
        chunks.append(
            f'DV merge{g}->canon4( o=@{{output:"merge{g}.out"}}, '
            f'{bindings}, tag="g{g}" );\n'
        )
    bindings = ", ".join(
        f'i{k}=@{{input:"merge{g}.out"}}' for k, g in enumerate(range(len(groups)))
    )
    chunks.append(
        f'DV final->canon{len(groups)}( o=@{{output:"final.out"}}, '
        f'{bindings}, tag="f" );\n'
    )
    return "".join(chunks)


def build_executor(tmp_path, vdl, tag):
    catalog = MemoryCatalog()
    canonical.define_transformations(catalog)
    catalog.define(vdl)
    workdir = tmp_path / tag
    executor = LocalExecutor(catalog, workdir)
    canonical.register_bodies(executor)
    return catalog, executor


def catalog_end_state(catalog):
    """The observable catalog outcome of a run, modulo run-specific
    identifiers and timings: which datasets got replicas (with which
    digests) and which derivations were invoked how many times."""
    replicas = sorted(
        (r.dataset_name, r.digest)
        for rid in catalog.replica_ids()
        for r in [catalog.get_replica(rid)]
    )
    invocations = sorted(
        (catalog.get_invocation(iid).derivation_name,
         catalog.get_invocation(iid).status)
        for iid in catalog.invocation_ids()
    )
    return replicas, invocations


class TestParallelParity:
    def test_workers1_matches_legacy_order(self, tmp_path):
        catalog, executor = build_executor(tmp_path, wide_vdl(), "w1")
        invocations = executor.materialize("final.out")
        plan_order = [inv.derivation_name for inv in invocations]
        catalog2, executor2 = build_executor(tmp_path, wide_vdl(), "w1b")
        parallel = executor2.materialize("final.out", workers=4)
        assert [inv.derivation_name for inv in parallel] == plan_order
        assert catalog_end_state(catalog) == catalog_end_state(catalog2)

    def test_stress_wide_fanout(self, tmp_path):
        """20 repetitions at workers=8: every step exactly once, end
        state identical to the sequential run."""
        ref_catalog, ref_executor = build_executor(
            tmp_path, wide_vdl(16), "ref"
        )
        ref_invocations = ref_executor.materialize("final.out")
        expected = sorted(inv.derivation_name for inv in ref_invocations)
        reference = catalog_end_state(ref_catalog)
        for rep in range(20):
            catalog, executor = build_executor(
                tmp_path, wide_vdl(16), f"rep{rep}"
            )
            invocations = executor.materialize("final.out", workers=8)
            names = [inv.derivation_name for inv in invocations]
            assert sorted(names) == expected, f"rep {rep}: lost/dup steps"
            assert len(set(names)) == len(names), f"rep {rep}: duplicates"
            assert catalog_end_state(catalog) == reference, f"rep {rep}"

    def test_observed_concurrency(self, tmp_path):
        """With 8 workers on a width-16 layer, >1 step overlaps."""
        catalog, executor = build_executor(tmp_path, wide_vdl(16), "conc")
        active = 0
        peak = 0
        guard = threading.Lock()
        barrier_body = canonical._canon_body

        def tracking(ctx):
            nonlocal active, peak
            with guard:
                active += 1
                peak = max(peak, active)
            try:
                import time

                time.sleep(0.01)
                barrier_body(ctx)
            finally:
                with guard:
                    active -= 1

        executor.register("py:canon1", tracking)
        executor.materialize("final.out", workers=8)
        assert peak > 1


COLLIDING_VDL = """
TR left( output o, output scratch=@{output:"work/area"}, none tag="l" ) {
  argument = ${none:tag}" "${output:o}" "${output:scratch};
  exec = "py:exclusive";
}
TR right( output o, output scratch=@{output:"work_area"}, none tag="r" ) {
  argument = ${none:tag}" "${output:o}" "${output:scratch};
  exec = "py:exclusive";
}
TR join( output o, input a, input b ) {
  argument = ${input:a}" "${input:b}" "${output:o};
  exec = "py:join";
}
DV l->left( o=@{output:"left.out"} );
DV r->right( o=@{output:"right.out"} );
DV both->join( o=@{output:"both.out"},
               a=@{input:"left.out"}, b=@{input:"right.out"} );
"""


def exclusive_body(ctx):
    """Holds its scratch file ``O_EXCL``-style while it works, so it
    fails if another live step has the same file (module-level: the
    process backend pickles it)."""
    scratch = ctx.output_paths["scratch"]
    held = os.open(f"{scratch}.held", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    try:
        time.sleep(0.2)
        scratch.write_text(ctx.parameters["tag"])
        ctx.write_output("o", ctx.parameters["tag"])
    finally:
        os.close(held)
        os.unlink(f"{scratch}.held")


def join_body(ctx):
    ctx.write_output("o", ctx.read_input("a") + ctx.read_input("b"))


class TestCollidingSandboxPaths:
    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_same_file_is_never_written_by_two_live_steps(
        self, tmp_path, backend
    ):
        """``work/area`` and ``work_area`` are different names for one
        sandbox file: sibling steps writing them must not overlap, on
        either lane (the thread lane used to exclude by *name*)."""
        catalog = MemoryCatalog()
        catalog.define(COLLIDING_VDL)
        executor = LocalExecutor(catalog, tmp_path / backend)
        executor.register("py:exclusive", exclusive_body)
        executor.register("py:join", join_body)
        invocations = executor.materialize(
            "both.out", workers=4, backend=backend
        )
        assert [inv.derivation_name for inv in invocations] == [
            "l", "r", "both"
        ]
        assert executor.path_for("both.out").read_text() == "lr"


FAIL_VDL = (
    'DV src->canon0( o=@{output:"src.out"}, tag="s" );\n'
    'DV ok->canon1( o=@{output:"ok.out"}, i0=@{input:"src.out"}, tag="a" );\n'
    'DV bad->canon1( o=@{output:"bad.out"}, i0=@{input:"src.out"}, tag="b" );\n'
    'DV down->canon1( o=@{output:"down.out"}, i0=@{input:"bad.out"}, tag="c" );\n'
    'DV top->canon2( o=@{output:"top.out"}, i0=@{input:"ok.out"}, '
    'i1=@{input:"down.out"}, tag="t" );\n'
)


def build_failing_executor(tmp_path, tag):
    catalog, executor = build_executor(tmp_path, FAIL_VDL, tag)

    def routed(ctx):
        if ctx.parameters["tag"] == "b":
            raise RuntimeError("injected failure")
        canonical._canon_body(ctx)

    executor.register("py:canon1", routed)
    return catalog, executor


class TestFailurePolicies:
    def test_fail_fast_raises_original_error(self, tmp_path):
        _, executor = build_failing_executor(tmp_path, "ff")
        with pytest.raises(ExecutionError, match="injected failure"):
            executor.materialize("top.out", workers=4)

    def test_fail_fast_is_default(self, tmp_path):
        _, executor = build_failing_executor(tmp_path, "ffd")
        with pytest.raises(ExecutionError):
            executor.materialize("top.out", workers=4)

    def test_run_what_you_can_completes_independent_work(self, tmp_path):
        _, executor = build_failing_executor(tmp_path, "rwyc")
        with pytest.raises(MaterializationError) as exc_info:
            executor.materialize(
                "top.out", workers=4, failure_policy="run-what-you-can"
            )
        err = exc_info.value
        done = [inv.derivation_name for inv in err.invocations]
        assert "ok" in done  # independent of the failed subtree
        assert err.failed == ["bad"]
        assert err.skipped == ["down", "top"]

    def test_run_what_you_can_sequential(self, tmp_path):
        """The run-what-you-can engine honors workers=1 too."""
        _, executor = build_failing_executor(tmp_path, "rwyc1")
        with pytest.raises(MaterializationError) as exc_info:
            executor.materialize(
                "top.out", workers=1, failure_policy="run-what-you-can"
            )
        assert exc_info.value.failed == ["bad"]

    def test_bad_policy_rejected(self, tmp_path):
        _, executor = build_executor(tmp_path, FAIL_VDL, "badpol")
        with pytest.raises(ValueError, match="failure policy"):
            executor.materialize("top.out", failure_policy="shrug")

    def test_bad_workers_rejected(self, tmp_path):
        _, executor = build_executor(tmp_path, FAIL_VDL, "badw")
        with pytest.raises(ValueError, match="workers"):
            executor.materialize("top.out", workers=0)


class TestPoolMetrics:
    def test_cache_and_pool_metrics_registered(self, tmp_path):
        from repro.observability.instrument import Instrumentation

        obs = Instrumentation()
        catalog = MemoryCatalog(instrumentation=obs)
        canonical.define_transformations(catalog)
        catalog.define(wide_vdl())
        executor = LocalExecutor(catalog, tmp_path / "obs", instrumentation=obs)
        canonical.register_bodies(executor)
        executor.materialize("final.out", workers=4)
        names = set(obs.metrics.names())
        assert "catalog.index.hits" in names
        assert "catalog.index.misses" in names
        assert "executor.pool.in_flight" in names
        assert obs.metrics.get("catalog.index.hits").total() > 0
        assert obs.metrics.get("catalog.index.misses").total() > 0
        # The gauge drains back to zero once the pool shuts down.
        assert obs.metrics.get("executor.pool.in_flight").value() == 0


class TestParallelProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        nodes=st.integers(min_value=4, max_value=24),
        layers=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=999),
        workers=st.sampled_from([2, 4, 8]),
    )
    def test_parallel_equals_sequential_replicas(
        self, tmp_path_factory, nodes, layers, seed, workers
    ):
        """For any generated canonical graph, parallel and sequential
        materialization produce the same replica set."""
        results = []
        for tag, n_workers in (("seq", 1), ("par", workers)):
            catalog = MemoryCatalog()
            graph = canonical.generate_graph(
                catalog, nodes=nodes, layers=layers, seed=seed
            )
            workdir = tmp_path_factory.mktemp(f"prop-{tag}")
            executor = LocalExecutor(catalog, workdir)
            canonical.register_bodies(executor)
            target = graph.sink_datasets[0]
            executor.materialize(target, workers=n_workers)
            results.append(
                sorted(
                    (r.dataset_name, r.digest)
                    for rid in catalog.replica_ids()
                    for r in [catalog.get_replica(rid)]
                )
            )
        assert results[0] == results[1]
