"""Crash matrix: real SIGKILL at every commit point, then recovery.

The definitive durability test.  For several pipeline seeds, a real
``python -m repro materialize`` subprocess is killed (SIGKILL, no
cleanup handlers) at each seeded crashpoint along the stage-out /
provenance-commit path.  After every kill, ``fsck --repair`` plus a
rerun must converge to byte-for-byte the same final state as a run
that was never interrupted — and a final fsck must come back clean.

Kill points are discovered, not hard-coded: a clean instrumented run
logs every crashpoint it passes (``REPRO_CRASHPOINT_LOG``), and the
matrix then arms ``REPRO_CRASH_AFTER=N`` for each N.  New crashpoints
added to the commit path are automatically covered.

The matrix runs over the executor's lanes — the inline lane
(``workers=1``), the thread pool and the process pool — because all
three commit through one function: each lane discovers its own kill
points and must converge the same way.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"

VDL_TEMPLATE = """
TR emit( output o ) {{
  argument stdout = ${{output:o}};
  argument msg = "{message}";
  exec = "/bin/echo";
}}
TR copy( output o, input i ) {{
  argument = ${{input:i}}" "${{output:o}};
  exec = "/bin/cp";
}}
DV e1->emit( o=@{{output:"seed.txt"}} );
DV c1->copy( o=@{{output:"copy.txt"}}, i=@{{input:"seed.txt"}} );
"""

SEEDS = ["alpha-0xA", "bravo-0xB", "charlie-0xC"]

#: lane -> extra ``materialize`` arguments.
LANES = {
    "sequential": (),
    "thread": ("--workers", "2"),
    "process": ("--backend", "process", "--workers", "2"),
}


def cli(workspace: Path, *argv: str) -> tuple[int, str]:
    """Run a CLI command in-process (fast path for setup/recovery)."""
    lines: list[str] = []
    code = main(
        ["--workspace", str(workspace), *argv],
        out=lambda text="": lines.append(str(text)),
    )
    return code, "\n".join(lines)


def make_workspace(tmp_path: Path, name: str, message: str) -> Path:
    workspace = tmp_path / name
    vdl = tmp_path / f"{name}.vdl"
    vdl.write_text(VDL_TEMPLATE.format(message=message))
    assert cli(workspace, "init")[0] == 0
    assert cli(workspace, "define", str(vdl))[0] == 0
    return workspace


def materialize_subprocess(
    workspace: Path, extra_env: dict, lane: str = "sequential"
) -> int:
    """A real child process, killable by a real SIGKILL."""
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        **extra_env,
    }
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--workspace",
            str(workspace),
            "materialize",
            "copy.txt",
            *LANES[lane],
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        # Its own process group: pool workers orphaned by the kill
        # exit on their own once they see their parent is gone
        # (tests/executor/test_orphan_workers.py); reaping the group
        # here is a safety net.
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=120)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.fixture(scope="module")
def discover(tmp_path_factory):
    """lane -> how many crashpoints one clean materialize passes."""
    counts: dict[str, int] = {}

    def count(lane: str) -> int:
        if lane in counts:
            return counts[lane]
        tmp_path = tmp_path_factory.mktemp(f"discovery-{lane}")
        workspace = make_workspace(tmp_path, "ws", SEEDS[0])
        log = tmp_path / "crashpoints.log"
        code = materialize_subprocess(
            workspace, {"REPRO_CRASHPOINT_LOG": str(log)}, lane
        )
        assert code == 0
        hits = [line for line in log.read_text().splitlines() if line.strip()]
        # The commit path must traverse stage-out, per-op commit
        # points, the pre-marker window, and post-commit.
        names = {h.split()[0] if " " in h else h for h in hits}
        assert any(n.startswith("executor.stage-out") for n in names)
        assert any(n.startswith("catalog.commit.op") for n in names)
        assert any(n.startswith("catalog.commit.pre-marker") for n in names)
        assert any(n.startswith("executor.post-commit") for n in names)
        counts[lane] = len(hits)
        return counts[lane]

    return count


@pytest.fixture(scope="module")
def crashpoint_count(discover):
    return discover("sequential")


def reference_state(tmp_path: Path, message: str) -> bytes:
    workspace = make_workspace(tmp_path, "reference", message)
    assert cli(workspace, "materialize", "copy.txt")[0] == 0
    return (workspace / "sandbox" / "copy.txt").read_bytes()


class TestCrashMatrix:
    @pytest.mark.parametrize("seed_index", range(len(SEEDS)))
    def test_kill_recover_converge(self, tmp_path, discover, seed_index):
        self.kill_recover_converge(tmp_path, discover, "sequential", seed_index)

    @pytest.mark.parametrize("lane", ("thread", "process"))
    def test_kill_recover_converge_on_pool_lanes(
        self, tmp_path, discover, lane
    ):
        # One seed (the full sweep) per pool lane bounds the run time.
        self.kill_recover_converge(tmp_path, discover, lane, 0)

    def kill_recover_converge(self, tmp_path, discover, lane, seed_index):
        crashpoint_count = discover(lane)
        message = SEEDS[seed_index]
        expected = reference_state(tmp_path, message)
        # Seed 0 sweeps every kill point; the other seeds keep the
        # matrix fast by sampling first, middle, and last.
        if seed_index == 0:
            kill_points = range(1, crashpoint_count + 1)
        else:
            kill_points = sorted(
                {1, (crashpoint_count + 1) // 2, crashpoint_count}
            )
        for n in kill_points:
            workspace = make_workspace(tmp_path, f"kill-{n}", message)
            code = materialize_subprocess(
                workspace, {"REPRO_CRASH_AFTER": str(n)}, lane
            )
            assert code == -signal.SIGKILL, (
                f"kill point {n}: expected SIGKILL, got exit {code}"
            )

            # Recovery: fsck --repair must clear every blocking
            # finding (exit 0 == not corrupted afterwards).
            code, output = cli(workspace, "fsck", "--repair")
            assert code == 0, f"kill point {n}: fsck --repair said:\n{output}"

            # Rerun converges on the uninterrupted final state.
            code, output = cli(
                workspace, "materialize", "copy.txt", *LANES[lane]
            )
            assert code == 0, f"kill point {n}: rerun said:\n{output}"
            final = (workspace / "sandbox" / "copy.txt").read_bytes()
            assert final == expected, f"kill point {n}: wrong bytes"

            # And the recovered workspace passes a full fsck.
            code, output = cli(workspace, "fsck")
            assert code == 0, f"kill point {n}: final fsck said:\n{output}"


class TestKillWithoutRepair:
    def test_preflight_alone_recovers_journal_crash(
        self, tmp_path, crashpoint_count
    ):
        """A rerun without explicit fsck must also converge.

        The materialize preflight auto-repairs journal findings; any
        remaining corruption (orphan outputs) must make it refuse
        rather than silently proceed.
        """
        expected = reference_state(tmp_path, SEEDS[0])
        converged = refused = 0
        for n in range(1, crashpoint_count + 1):
            workspace = make_workspace(tmp_path, f"norepair-{n}", SEEDS[0])
            assert (
                materialize_subprocess(
                    workspace, {"REPRO_CRASH_AFTER": str(n)}
                )
                == -signal.SIGKILL
            )
            code, output = cli(workspace, "materialize", "copy.txt")
            if code == 0:
                final = workspace / "sandbox" / "copy.txt"
                assert final.read_bytes() == expected
                converged += 1
            else:
                # Refusal is the only acceptable alternative, and it
                # must say why and how to proceed.
                assert code == 2, f"kill point {n}: exit {code}\n{output}"
                assert "fsck" in output
                refused = refused + 1
                # After repair the same command succeeds.
                assert cli(workspace, "fsck", "--repair")[0] == 0
                code, _ = cli(workspace, "materialize", "copy.txt")
                assert code == 0
        assert converged + refused == crashpoint_count
        assert converged > 0  # journal-only crashes self-heal


class TestCrashpointPlumbing:
    def test_unarmed_crashpoints_are_free(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CRASH_AFTER", raising=False)
        monkeypatch.delenv("REPRO_CRASHPOINT_LOG", raising=False)
        from repro.durability.crashpoints import crashpoint, crashpoints_armed

        assert not crashpoints_armed()
        crashpoint("anything")  # must be a no-op, not a kill

    def test_match_filter_limits_kills(self, tmp_path):
        """REPRO_CRASH_MATCH restricts counting to one site prefix."""
        workspace = make_workspace(tmp_path, "match", SEEDS[0])
        code = materialize_subprocess(
            workspace,
            {
                "REPRO_CRASH_AFTER": "1",
                "REPRO_CRASH_MATCH": "executor.post-commit",
            },
        )
        assert code == -signal.SIGKILL
        # Provenance committed before the kill: recovery needs no
        # repairs beyond the preflight, and nothing re-runs.
        code, output = cli(workspace, "fsck")
        assert code == 0, output
