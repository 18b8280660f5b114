"""Process-pool workers exit once their parent is gone.

A pool worker waits on its call queue and never learns that a parent
killed by SIGKILL has died; the pool's initializer,
``repro.executor.process.exit_with_parent``, ends it.  The drill kills a
real process-backend ``materialize`` while one worker runs a step and
the other idles, and waits for every process the run started.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

CHILD = """
import sys

from repro.catalog.memory import MemoryCatalog
from repro.executor.local import LocalExecutor
from repro.workloads import canonical
from tests.executor.test_orphan_workers import sleepy_body

catalog = MemoryCatalog()
canonical.define_transformations(catalog)
catalog.define('DV a->canon0( o=@{output:"a.out"}, tag="a" );')
executor = LocalExecutor(catalog, sys.argv[1])
executor.register("py:canon0", sleepy_body)
executor.materialize("a.out", workers=2, backend="process")
"""


def sleepy_body(ctx):
    """Announce the busy worker, then outlast the test."""
    (ctx.workdir / "busy.tmp").write_text(str(os.getpid()))
    (ctx.workdir / "busy.tmp").rename(ctx.workdir / "busy.pid")
    time.sleep(60)


def stat_fields(pid: int) -> list[str]:
    """``/proc/<pid>/stat`` after the command name (state first), or
    an empty list once the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return []
    return text.rsplit(")", 1)[1].split()


def session_members(session: int) -> list[int]:
    """Every live process in ``session`` (field 4 after the name)."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = stat_fields(int(entry))
            if fields and int(fields[3]) == session:
                members.append(int(entry))
    return members


def alive(pid: int) -> bool:
    fields = stat_fields(pid)
    return bool(fields) and fields[0] != "Z"  # a zombie has exited


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)
def test_workers_exit_after_their_parent_is_killed(tmp_path):
    sandbox = tmp_path / "sandbox"
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(sandbox)],
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        },
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        # Its own session, so everything the run starts can be found
        # (and, whatever happens, reaped below).
        start_new_session=True,
    )
    try:
        busy = sandbox / "busy.pid"
        deadline = time.monotonic() + 60
        while not busy.exists():
            assert proc.poll() is None, "materialize exited early"
            assert time.monotonic() < deadline, "no worker started"
            time.sleep(0.05)
        started = [pid for pid in session_members(proc.pid) if pid != proc.pid]
        assert int(busy.read_text()) in started
        assert len(started) >= 2  # the busy worker and an idle one

        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(map(alive, started)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert [pid for pid in started if alive(pid)] == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
