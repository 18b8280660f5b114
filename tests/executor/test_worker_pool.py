"""The process lane's pool: worker death and helper threads.

The parent drives its worker processes over one pipe each from the
calling thread.  A worker that dies mid-step (SIGKILL) must fail that
step with the "worker failed" error and never hang the run; under
run-what-you-can the rest of the plan still finishes on a replacement
worker, and no worker outlives the run.  The parent itself runs no
thread besides the caller while the lane is up.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

import pytest

from repro.errors import ExecutionError, MaterializationError
from repro.observability.instrument import Instrumentation
from repro.observability.progress import ProgressSink
from repro.workloads import canonical
from tests.executor.test_parallel import build_executor, wide_vdl

#: The step whose worker is killed, and what depends on it.
VICTIM = "mid03"
DOWNSTREAM = {"merge0", "final"}


def killing_body(ctx):
    """Module-level, so the process backend can pickle it."""
    if ctx.parameters["tag"] == "m3":
        os.kill(os.getpid(), signal.SIGKILL)
    canonical._canon_body(ctx)


def bounded(fn, timeout=60):
    """``fn()`` on a thread the test can give up on: a run that hangs
    fails the test instead of blocking the suite."""
    result = {}

    def call():
        try:
            result["value"] = fn()
        except BaseException as exc:
            result["error"] = exc

    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "the run hung"
    return result


@pytest.mark.parametrize("policy", ("fail-fast", "run-what-you-can"))
def test_a_killed_worker_fails_its_step_and_nothing_hangs(tmp_path, policy):
    catalog, executor = build_executor(tmp_path, wide_vdl(8), policy)
    executor.register("py:canon1", killing_body)
    result = bounded(
        lambda: executor.materialize(
            "final.out", workers=2, backend="process", failure_policy=policy
        )
    )
    error = result["error"]
    if policy == "fail-fast":
        assert isinstance(error, ExecutionError)
        failure = error
    else:
        assert isinstance(error, MaterializationError)
        assert error.failed == [VICTIM]
        assert set(error.skipped) == DOWNSTREAM
        failure = error.__cause__  # the first failure
        ran = {inv.derivation_name for inv in error.invocations}
        mids = {f"mid{i:02d}" for i in range(8)}
        assert ran == {"src", "merge1"} | mids - {VICTIM}
    assert f"derivation {VICTIM!r}: worker failed" in str(failure)
    recorded = {
        catalog.get_invocation(iid).derivation_name
        for iid in catalog.invocation_ids()
    }
    assert VICTIM not in recorded
    assert multiprocessing.active_children() == []


class ThreadWatch(ProgressSink):
    """Samples the process's threads as each step starts and settles:
    both happen on the calling thread."""

    def __init__(self):
        super().__init__()
        self.samples = []

    def step_started(self, name):
        self.samples.append(set(threading.enumerate()))
        super().step_started(name)

    def step_finished(self, name, status):
        self.samples.append(set(threading.enumerate()))
        super().step_finished(name, status)


def test_the_parent_runs_no_helper_thread(tmp_path):
    catalog, executor = build_executor(tmp_path, wide_vdl(8), "threads")
    obs = Instrumentation()
    watch = ThreadWatch()
    obs.attach_progress(watch)
    executor.obs = obs
    before = set(threading.enumerate())
    invocations = executor.materialize(
        "final.out", workers=2, backend="process"
    )
    assert len(invocations) == 12
    assert len(watch.samples) == 24
    assert all(sample <= before for sample in watch.samples)
    assert multiprocessing.active_children() == []
