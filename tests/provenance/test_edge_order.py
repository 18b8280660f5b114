"""The catalog's graph keeps each derivation's edges as sorted tuples.

Every backend links a derivation's inputs and outputs once, from the
stored record (or the document a reopened store loads), in name order:
the tuples the planner reuses as a step's inputs and outputs, equal to
``Derivation.inputs()``/``outputs()``.  Name order makes every walk
over them independent of the hash seed, which the second test checks
in child processes under ``PYTHONHASHSEED`` 1 and 2.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.workloads import canonical

BACKENDS = {
    "memory": lambda path: MemoryCatalog(),
    "sqlite": lambda path: SQLiteCatalog(str(path / "vdc.db")),
    "filetree": lambda path: FileTreeCatalog(path / "vdc"),
}

#: Prints every derivation's edge tuples as the graph keeps them, on
#: each backend, live and reopened.
CHILD = """
import json, sys, tempfile
from pathlib import Path
from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.sqlite import SQLiteCatalog
from repro.workloads import canonical

root = Path(tempfile.mkdtemp(dir=sys.argv[1]))
opens = {
    "memory": MemoryCatalog,
    "sqlite": lambda: SQLiteCatalog(str(root / "vdc.db")),
    "filetree": lambda: FileTreeCatalog(root / "vdc"),
}
for backend, open_ in opens.items():
    catalog = open_()
    canonical.generate_graph(catalog, nodes=120, layers=6, max_fanin=4, seed=3)
    handles = [catalog] if backend == "memory" else [catalog, open_()]
    for handle in handles:
        graph = handle.derivation_graph()
        for name in graph.derivation_names():
            edges = graph.input_names(name), graph.output_names(name)
            print(json.dumps([backend, name, *edges]))
"""


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_edges_are_the_sorted_tuples_of_the_record(tmp_path, backend):
    catalog = BACKENDS[backend](tmp_path)
    canonical.generate_graph(
        catalog, nodes=80, layers=5, max_fanin=4, seed=11
    )
    handles = [catalog] if backend == "memory" else [
        catalog, BACKENDS[backend](tmp_path)
    ]
    for handle in handles:
        graph = handle.derivation_graph()
        for name in graph.derivation_names():
            inputs, outputs = graph.input_names(name), graph.output_names(name)
            assert type(inputs) is tuple and type(outputs) is tuple
            dv = handle.get_derivation(name)
            assert inputs == dv.inputs() and outputs == dv.outputs()


def test_edges_do_not_depend_on_the_hash_seed(tmp_path):
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src"),
             env.get("PYTHONPATH", "")]
        )
        runs.append(
            subprocess.run(
                [sys.executable, "-c", CHILD, str(tmp_path)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
        )
    assert runs[0] == runs[1]
    assert "cg.n000119" in runs[0]
    multi = 0
    for line in runs[0].splitlines():
        _, _, inputs, outputs = json.loads(line)
        assert inputs == sorted(inputs) and outputs == sorted(outputs)
        multi += len(inputs) > 1
    assert multi > 50  # many derivations read several datasets
