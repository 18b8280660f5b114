"""Count-based (never wall-clock) scaling tests for the dispatch paths.

Three places used to redo work once per step: the estimator re-decoded
every derivation of a transformation per estimate, and both pool loops
re-sorted the whole ready frontier per completion.  These tests count
the work instead of timing it, so they hold on any machine:

* ``GridExecutor.plan`` over N derivations of one transformation, on a
  catalog with no history, decodes O(N) derivations in total;
* the thread and process loops on a width-200 plan never rescan
  ``Frontier.ready()`` per step, and dispatch/record in the contracted
  order — name order within a release batch, completions handled in
  topological rank — under both failure policies;
* every executed step, on every lane and from an interactive session,
  goes through the one run function and the one commit function
  exactly once;
* ``workers=1`` keeps the sequential loop's guarantees (plan order,
  nothing run behind a fail-fast failure, progress before the body),
  and every lane records skipped steps, in name order, as the failure
  settles.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import Future

import pytest

from repro import VirtualDataSystem
from repro.catalog.memory import MemoryCatalog
from repro.errors import ExecutionError, MaterializationError
from repro.executor import local as local_module
from repro.executor.local import LocalExecutor
from repro.executor.session import InteractiveSession
from repro.observability.instrument import Instrumentation
from repro.observability.recorder import FlightRecorder, RunRecord
from repro.observability.progress import ProgressSink
from repro.planner.dag import Frontier
from repro.planner.request import MaterializationRequest
from repro.workloads import canonical
from tests.planner.test_frontier import downstream_of

WIDTH = 200
#: The step whose body fails: halfway through the wide layer.
BAD = f"mid{WIDTH // 2:03d}"


# -- estimator / planner: O(N) derivation decodes ---------------------------


class CountingCatalog(MemoryCatalog):
    """Counts every derivation decode, copying or not."""

    decodes = 0

    def get_derivation(self, name):
        self.decodes += 1
        return super().get_derivation(name)

    def _decode_derivation(self, name):
        self.decodes += 1
        return super()._decode_derivation(name)


def plan_decodes(n: int) -> int:
    """Derivation decodes of one ``GridExecutor.plan`` over ``n``
    derivations of one transformation, none of them ever run."""
    catalog = CountingCatalog()
    canonical.define_transformations(catalog)
    catalog.define(
        "".join(
            f'DV g{i:04d}->canon0( o=@{{output:"g{i:04d}.out"}}, '
            f'tag="t{i}" );\n'
            for i in range(n)
        )
    )
    vds = VirtualDataSystem.with_grid({"a": 4, "b": 4}, catalog=catalog)
    catalog.decodes = 0
    plan = vds.executor.plan(
        MaterializationRequest(
            targets=tuple(f"g{i:04d}.out" for i in range(n)), reuse="never"
        )
    )
    assert len(plan.steps) == n
    return catalog.decodes


class TestPlanDecodesLinear:
    def test_decodes_are_linear_in_derivations(self):
        small, large = plan_decodes(300), plan_decodes(600)
        # A handful of decodes per derivation (graph build, planning),
        # where re-scanning per estimate cost 2·N per derivation.
        assert small <= 4 * 300
        assert large <= 2 * small


# -- pool loops: release-driven dispatch ------------------------------------


def reduction_vdl(width: int = WIDTH) -> tuple[str, str]:
    """1 source -> ``width`` parallel steps -> canon4 tree -> 1 sink;
    returns (VDL text, the sink dataset)."""
    chunks = ['DV src->canon0( o=@{output:"src.out"}, tag="s" );\n']
    level = []
    for i in range(width):
        chunks.append(
            f'DV mid{i:03d}->canon1( o=@{{output:"mid{i:03d}.out"}}, '
            f'i0=@{{input:"src.out"}}, tag="mid{i:03d}" );\n'
        )
        level.append(f"mid{i:03d}.out")
    count = 0
    while len(level) > 1:
        merged = []
        for start in range(0, len(level), canonical.MAX_FANIN):
            group = level[start:start + canonical.MAX_FANIN]
            name = f"red{count:03d}"
            bindings = "".join(
                f'i{k}=@{{input:"{ds}"}}, ' for k, ds in enumerate(group)
            )
            chunks.append(
                f'DV {name}->canon{len(group)}( '
                f'o=@{{output:"{name}.out"}}, {bindings}tag="{name}" );\n'
            )
            merged.append(f"{name}.out")
            count += 1
        level = merged
    return "".join(chunks), level[0]


def failing_body(ctx):
    """Module-level, so the process backend can pickle it."""
    if ctx.parameters["tag"] == BAD:
        raise RuntimeError("injected failure")
    canonical._canon_body(ctx)


class SynchronousPool:
    """Runs each submission inline: every batch of completions is the
    whole batch of dispatches, so a run is fully deterministic."""

    def __init__(self, max_workers=None, initializer=None):
        pass

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # delivered through the future
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):
        pass


def build(tmp_path, tag, fail):
    vdl, target = reduction_vdl()
    obs = Instrumentation()
    catalog = MemoryCatalog(instrumentation=obs)
    canonical.define_transformations(catalog)
    catalog.define(vdl)
    executor = LocalExecutor(catalog, tmp_path / tag, instrumentation=obs)
    canonical.register_bodies(executor)
    if fail:
        executor.register("py:canon1", failing_body)
    recorder = FlightRecorder.start(tmp_path / f"{tag}-runs", command="t")
    obs.attach_recorder(recorder)
    return obs, executor, recorder, target


def run(tmp_path, tag, backend, workers, policy, fail, monkeypatch):
    """One materialize; returns what a caller and the record saw."""
    obs, executor, recorder, target = build(tmp_path, tag, fail)
    plan = executor.planner().plan(MaterializationRequest(targets=(target,)))
    ready_calls = []
    real_ready = Frontier.ready
    monkeypatch.setattr(
        Frontier,
        "ready",
        lambda self: ready_calls.append(1) or real_ready(self),
    )
    error = None
    try:
        invocations = executor.materialize(
            target, workers=workers, backend=backend, failure_policy=policy
        )
    except MaterializationError as exc:
        error, invocations = exc, exc.invocations
    except ExecutionError as exc:
        error, invocations = exc, None
    monkeypatch.setattr(Frontier, "ready", real_ready)
    recorder.finalize(obs, status="ok")
    attempts = RunRecord.load(recorder.path).step_attempts
    return {
        "plan": plan,
        "error": error,
        "invocations": (
            None
            if invocations is None
            else [inv.derivation_name for inv in invocations]
        ),
        "steps": [(a["step"], a["status"]) for a in attempts],
        "ready_calls": len(ready_calls),
        # one scan by the loop, one per level by topological_order():
        # nothing that grows with the number of steps
        "ready_budget": 1 + plan.depth(),
    }


def reference_steps(plan, policy, bad=None):
    """The dispatch contract, executed by hand on a synchronous pool:
    a batch is everything dispatched; it is handled in topological
    rank; what it releases is the next batch."""
    rank = {n: i for i, n in enumerate(plan.topological_order())}
    frontier = plan.frontier()
    batch, steps, failed = frontier.ready(), [], False
    while batch and not (failed and policy == "fail-fast"):
        released = []
        for name in sorted(batch, key=rank.__getitem__):
            if name == bad:
                steps.append((name, "failure"))
                failed = True
            else:
                steps.append((name, "success"))
                released.extend(frontier.complete(name))
        batch = released
    return steps


POLICIES = ("fail-fast", "run-what-you-can")


class TestDispatchOrder:
    """Exact order, on a pool that removes timing from the picture."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_matches_the_contract(
        self, tmp_path, monkeypatch, backend, policy
    ):
        monkeypatch.setattr(
            local_module, "ThreadPoolExecutor", SynchronousPool
        )
        monkeypatch.setattr(
            local_module, "ProcessPoolExecutor", SynchronousPool
        )
        for fail in (False, True):
            # workers=2 keeps the thread backend off its sequential path
            seen = run(
                tmp_path, f"{backend}-{policy}-{fail}", backend, 2, policy,
                fail, monkeypatch,
            )
            expected = reference_steps(
                seen["plan"], policy, BAD if fail else None
            )
            assert seen["steps"] == expected
            assert seen["ready_calls"] <= seen["ready_budget"]
            if not fail:
                assert seen["error"] is None
                assert seen["invocations"] == (
                    seen["plan"].topological_order()
                )


class TestOneStepPath:
    """payload -> run -> outcome -> commit is the only way a step
    runs: counted, not inferred from end states."""

    LANES = {
        "sequential": {"workers": 1},
        "thread": {"workers": 2},
        "process": {"workers": 2, "backend": "process"},
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts calls of the run and the commit function, per
        derivation; pools run inline so the process lane's run calls
        happen where they can be counted."""
        seen = {"run": [], "commit": []}
        real_run = local_module.run_invocation
        real_commit = local_module.commit_invocation

        def run_invocation(payload, *args):
            seen["run"].append(payload.derivation_name)
            return real_run(payload, *args)

        def commit_invocation(catalog, invocation, *args):
            seen["commit"].append(invocation.derivation_name)
            return real_commit(catalog, invocation, *args)

        monkeypatch.setattr(local_module, "run_invocation", run_invocation)
        monkeypatch.setattr(
            local_module, "commit_invocation", commit_invocation
        )
        monkeypatch.setattr(
            local_module, "ThreadPoolExecutor", SynchronousPool
        )
        monkeypatch.setattr(
            local_module, "ProcessPoolExecutor", SynchronousPool
        )
        return seen

    def executor(self, tmp_path):
        vdl, target = reduction_vdl(8)
        catalog = MemoryCatalog()
        canonical.define_transformations(catalog)
        catalog.define(vdl)
        executor = LocalExecutor(catalog, tmp_path / "sandbox")
        canonical.register_bodies(executor)
        return executor, target

    @pytest.mark.parametrize("lane", sorted(LANES))
    def test_once_per_step_on_every_lane(self, tmp_path, calls, lane):
        executor, target = self.executor(tmp_path)
        invocations = executor.materialize(target, **self.LANES[lane])
        ran = sorted(inv.derivation_name for inv in invocations)
        assert len(ran) == 12  # 1 source + 8 wide + 3 reducing
        assert sorted(calls["run"]) == ran
        assert sorted(calls["commit"]) == ran

    def test_once_per_interactive_run(self, tmp_path, calls):
        executor, _ = self.executor(tmp_path)
        session = InteractiveSession(executor)
        (made,) = session.run("canon0", tag="a")
        session.run("canon1", i0=made, tag="b")
        names = [entry.derivation.name for entry in session.log]
        assert calls["run"] == calls["commit"] == names


class TestRealPools:
    """Real pools interleave completions, so order is asserted as far
    as it is defined: results in topological order, every recorded
    success after its predecessors', no ``ready()`` scan per step."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_mid_plan_failure(
        self, tmp_path, monkeypatch, backend, workers, policy
    ):
        seen = run(tmp_path, "real", backend, workers, policy, True,
                   monkeypatch)
        plan = seen["plan"]
        assert seen["ready_calls"] <= seen["ready_budget"]
        succeeded = [s for s, status in seen["steps"] if status == "success"]
        assert [s for s, status in seen["steps"] if status == "failure"] == [
            BAD
        ]
        assert len(set(succeeded)) == len(succeeded)
        position = {name: i for i, name in enumerate(succeeded)}
        for name in succeeded:
            for dep in plan.dependencies.get(name, ()):
                assert position[dep] < position[name]
        downstream = downstream_of(plan, BAD)
        assert not downstream & set(succeeded)
        if policy == "fail-fast":
            assert isinstance(seen["error"], ExecutionError)
            assert "injected failure" in str(seen["error"])
        else:
            assert seen["error"].failed == [BAD]
            assert set(seen["error"].skipped) == downstream
            # everything outside the failed subtree ran, and the
            # result lists it in topological order
            assert seen["invocations"] == [
                n for n in plan.topological_order()
                if n != BAD and n not in downstream
            ]
            assert sorted(succeeded) == sorted(seen["invocations"])


#: ``zed`` sits in the first level but sorts after the second level's
#: ``a1`` and ``b1``, so name order alone is not the plan's order.
LEVELS_VDL = (
    'DV src->canon0( o=@{output:"src.out"}, tag="src" );\n'
    'DV zed->canon0( o=@{output:"zed.out"}, tag="zed" );\n'
    'DV a1->canon1( o=@{output:"a1.out"}, i0=@{input:"src.out"}, '
    'tag="a1" );\n'
    'DV b1->canon1( o=@{output:"b1.out"}, i0=@{input:"src.out"}, '
    'tag="b1" );\n'
    'DV x1->canon1( o=@{output:"x1.out"}, i0=@{input:"a1.out"}, '
    'tag="x1" );\n'
    'DV top->canon3( o=@{output:"top.out"}, i0=@{input:"x1.out"}, '
    'i1=@{input:"b1.out"}, i2=@{input:"zed.out"}, tag="top" );\n'
)


class EventLog(ProgressSink):
    """A progress sink that also logs, in order, every step start."""

    def __init__(self, log):
        super().__init__()
        self._log = log

    def step_started(self, name):
        self._log.append(("started", name))
        super().step_started(name)


def levels_run(tmp_path, tag, fail, **options):
    """Materialize ``top.out`` over :data:`LEVELS_VDL`, logging progress
    starts and body calls; ``a1``'s body raises when ``fail`` is set."""
    log = []

    def body(ctx):
        log.append(("body", ctx.parameters["tag"]))
        if fail and ctx.parameters["tag"] == "a1":
            raise RuntimeError("injected failure")
        canonical._canon_body(ctx)

    obs = Instrumentation()
    obs.attach_progress(EventLog(log))
    catalog = MemoryCatalog(instrumentation=obs)
    canonical.define_transformations(catalog)
    catalog.define(LEVELS_VDL)
    executor = LocalExecutor(catalog, tmp_path / tag, instrumentation=obs)
    for k in range(4):
        executor.register(f"py:canon{k}", body)
    recorder = FlightRecorder.start(tmp_path / f"{tag}-runs", command="t")
    obs.attach_recorder(recorder)
    plan = executor.planner().plan(
        MaterializationRequest(targets=("top.out",))
    )
    error = None
    try:
        executor.materialize("top.out", **options)
    except ExecutionError as exc:
        error = exc
    recorder.finalize(obs, status="ok")
    committed = {
        catalog.get_invocation(iid).derivation_name
        for iid in catalog.invocation_ids()
    }
    return plan, log, RunRecord.load(recorder.path), committed, error


class TestSequentialSemantics:
    """``workers=1`` on the thread backend keeps what the old
    sequential loop guaranteed."""

    def test_clean_run_follows_the_topological_order(self, tmp_path):
        plan, log, record, _, error = levels_run(tmp_path, "ok", False)
        assert error is None
        order = plan.topological_order()
        assert order == ["src", "zed", "a1", "b1", "x1", "top"]
        assert [a["step"] for a in record.step_attempts] == order
        assert [name for kind, name in log if kind == "body"] == order

    def test_progress_start_precedes_the_body(self, tmp_path):
        _, log, _, _, _ = levels_run(tmp_path, "start", False)
        assert log == [
            event for name in ("src", "zed", "a1", "b1", "x1", "top")
            for event in (("started", name), ("body", name))
        ]

    def test_fail_fast_stops_at_the_failure(self, tmp_path):
        _, log, record, committed, error = levels_run(
            tmp_path, "ff", True
        )
        assert "injected failure" in str(error)
        ran = [name for kind, name in log if kind == "body"]
        assert ran == ["src", "zed", "a1"]
        # b1 shares a1's level but comes after it: never run, never
        # committed (a1's failed invocation is).
        assert committed == {"src", "zed", "a1"}
        assert [(a["step"], a["status"]) for a in record.step_attempts] == [
            ("src", "success"), ("zed", "success"), ("a1", "failure"),
        ]


def skipped_events(record):
    return [e["step"] for e in record.events if e["kind"] == "step.skipped"]


class TestSkippedEvents:
    """Steps skipped behind a local failure are recorded when the
    failure settles, in name order, on every lane."""

    def test_sequential_failure_records_its_skipped_steps(self, tmp_path):
        _, _, record, _, _ = levels_run(tmp_path, "seq", True)
        # In name order: the plan runs x1 before top.
        assert skipped_events(record) == ["top", "x1"]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_pool_records_skips_in_name_order(self, tmp_path, workers):
        _, _, record, committed, error = levels_run(
            tmp_path, f"rwyc{workers}", True, workers=workers,
            failure_policy="run-what-you-can",
        )
        assert error.failed == ["a1"]
        assert error.skipped == ["top", "x1"]
        assert skipped_events(record) == ["top", "x1"]
        assert committed == {"src", "zed", "a1", "b1"}


class TestCompletionQueueStress:
    def test_no_step_lost_or_repeated_under_contention(self, tmp_path):
        """More workers than cores and a 10 µs switch interval: worker
        threads hand completions to the main thread through the queue
        as fast as they can; every step must still be settled exactly
        once.  Bounded: a lost completion would block the loop forever,
        so the run happens on a thread the test can give up on."""
        obs, executor, recorder, target = build(tmp_path, "stress", fail=False)
        result = {}
        runner = threading.Thread(
            target=lambda: result.update(
                invocations=executor.materialize(target, workers=8)
            ),
            daemon=True,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        recorder.finalize(obs, status="ok")
        names = [inv.derivation_name for inv in result["invocations"]]
        plan = executor.planner().plan(
            MaterializationRequest(targets=(target,), reuse="never")
        )
        assert names == plan.topological_order()
        catalog = executor.catalog
        assert len(catalog.invocation_ids()) == len(names)
