"""Dropped objects free at once.

Ownership is a tree whose back-edges are weak: a catalog calls the
listeners it owns directly and holds external bound-method subscribers
weakly, and whatever it, a session, an executor or a planner owns
reaches its owner through a ``weakref.ref``.  So dropping the last
reference to any of them frees it by reference counting, and nothing a
session leaves behind waits for a full collection.

Each flow runs with the collector off and is then dropped; a
collection that saves what it finds (``DEBUG_SAVEALL``) must find no
object of a ``repro`` type, no ``sqlite3`` connection or statement
(a dropped catalog closes its connection, whose statement cache is
cyclic) and no ``argparse`` parser or formatter (the CLI builds its
argument tree once per process).  The catalog flows also leave the
process with the file descriptors it had before them.  Run with ``-s``
to see what a failing flow left behind.
"""

from __future__ import annotations

import gc
import os
import sys
import warnings
from collections import Counter

import pytest

from repro.analysis.linter import Linter
from repro.catalog.federation import FederatedIndex
from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.cli import _parser as cli_parser
from repro.cli import main
from repro.core.dataset import Dataset
from repro.durability.recovery import RecoveryManager
from repro.executor.local import LocalExecutor
from repro.observability.instrument import Instrumentation
from repro.resilience.faults import FaultPlan
from repro.system import VirtualDataSystem
from repro.workloads import canonical

#: One source, four parallel steps, one merge.
WIDE = 'DV src->canon0( o=@{output:"src.out"}, tag="s" );\n' + "".join(
    f'DV mid{i}->canon1( o=@{{output:"mid{i}.out"}}, '
    f'i0=@{{input:"src.out"}}, tag="m{i}" );\n'
    for i in range(4)
) + (
    'DV final->canon4( o=@{output:"final.out"}, '
    + ", ".join(f'i{i}=@{{input:"mid{i}.out"}}' for i in range(4))
    + ', tag="f" );\n'
)

BACKENDS = {
    "memory": lambda tmp_path: MemoryCatalog(),
    "sqlite": lambda tmp_path: SQLiteCatalog(str(tmp_path / "vdc.db")),
    "filetree": lambda tmp_path: FileTreeCatalog(tmp_path / "vdc"),
}

#: lane -> (workers, backend) of ``LocalExecutor.materialize``.
LANES = {
    "inline": (1, "thread"),
    "thread": (2, "thread"),
    "process": (2, "process"),
}


#: Modules whose objects a dropped flow must not leave to the
#: collector: ours, the catalog's database connections, and the CLI's
#: argument tree (built once per process, not per command).
WATCHED = ("repro.", "sqlite3", "argparse")


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def cyclic_repro_objects(flow, fds: bool = False) -> Counter:
    """Run ``flow`` with the collector off, drop what it made, and
    count the objects of ``WATCHED`` modules a collection then finds
    unreachable; with ``fds``, also check that dropping what it made
    closed every descriptor it opened, before the collection."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    flags = gc.get_debug()
    before = open_fds()
    try:
        flow()
        if fds:
            assert open_fds() == before
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(
            type(obj).__qualname__
            for obj in gc.garbage
            if type(obj).__module__.startswith(WATCHED)
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    if found:
        print(f"cyclic garbage: {dict(found)}")
    return found


@pytest.mark.parametrize("lane", sorted(LANES))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_catalog_run_frees_at_once(tmp_path, backend, lane):
    """define -> materialize -> lint -> fsck on every backend and lane."""
    workers, pool = LANES[lane]

    def flow():
        obs = Instrumentation()
        catalog = BACKENDS[backend](tmp_path)
        canonical.define_transformations(catalog)
        catalog.define(WIDE)
        executor = LocalExecutor(
            catalog, tmp_path / "sandbox", instrumentation=obs
        )
        canonical.register_bodies(executor)
        executor.materialize("final.out", workers=workers, backend=pool)
        assert executor.materialize("final.out") == []
        Linter(obs=obs).lint_catalog(catalog)
        Linter(obs=obs).lint_catalog(catalog, incremental=True)
        report = RecoveryManager(
            catalog, sandbox_dir=tmp_path / "sandbox", instrumentation=obs
        ).fsck()
        assert not report.corrupted

    assert cyclic_repro_objects(flow, fds=True) == Counter()


def test_grid_run_with_faults_frees_at_once():
    def flow():
        vds = VirtualDataSystem.with_grid(
            {"anl": 2, "uc": 2},
            instrumentation=Instrumentation(),
            fault_plan=FaultPlan(seed=3, transient_rate=0.3),
            max_retries=4,
        )
        canonical.define_transformations(vds.catalog)
        vds.define(WIDE)
        vds.seed_sources("final.out")
        result = vds.materialize("final.out")
        assert not result.failed_steps
        vds.analyze()
        vds.lineage("final.out")

    assert cyclic_repro_objects(flow) == Counter()


def test_federation_frees_at_once():
    def flow():
        members = [MemoryCatalog(authority=a) for a in ("a.org", "b.org")]
        index = FederatedIndex("both", depth="deep")
        for catalog in members:
            index.attach(catalog)
            catalog.add_dataset(Dataset(name=f"x-{catalog.authority}"))
        assert len(index.find("dataset", name_glob="x-*")) == 2

    assert cyclic_repro_objects(flow) == Counter()


def test_workspace_session_frees_at_once(tmp_path):
    """Each CLI command opens the workspace in one session and drops
    it, and parses with the one argument tree the process built (its
    build leaves argparse's formatters to the collector, once)."""
    cli_parser()
    vdl = tmp_path / "p.vdl"
    vdl.write_text(
        'TR emit( output o ) { argument stdout = ${output:o}; '
        'argument msg = "hi"; exec = "/bin/echo"; }\n'
        'DV e1->emit( o=@{output:"seed.txt"} );\n'
    )
    ws = ["--workspace", str(tmp_path / "ws")]
    lines: list[str] = []

    def flow():
        for argv in (
            ["init"],
            ["define", str(vdl)],
            ["materialize", "seed.txt"],
            ["lint", "--incremental"],
            ["fsck"],
            ["stats"],
        ):
            assert main(ws + argv, out=lines.append) == 0, lines

    assert cyclic_repro_objects(flow, fds=True) == Counter()


def test_workspace_commands_close_their_journal(tmp_path, monkeypatch):
    """A dropped session's intent journal closes its append handle
    itself, so no command leaves it to the file object's finalizer:
    with ``ResourceWarning`` an error, none is raised for the journal
    (a warning raised in a finalizer reaches ``sys.unraisablehook``)."""
    raised: list[str] = []
    monkeypatch.setattr(
        sys, "unraisablehook", lambda hook: raised.append(repr(hook.exc_value))
    )
    vdl = tmp_path / "p.vdl"
    vdl.write_text(
        'TR emit( output o ) { argument stdout = ${output:o}; '
        'argument msg = "hi"; exec = "/bin/echo"; }\n'
        'DV e1->emit( o=@{output:"seed.txt"} );\n'
    )
    ws = ["--workspace", str(tmp_path / "ws")]
    lines: list[str] = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for argv in (
            ["init"],
            ["define", str(vdl)],
            ["materialize", "seed.txt"],
            ["fsck"],
        ):
            assert main(ws + argv, out=lines.append) == 0, lines
        gc.collect()
    assert [r for r in raised if "catalog.journal" in r] == []
