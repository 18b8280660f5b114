"""``export_vdl`` gives one text per catalog, on every backend.

A stored derivation keeps its actuals in whatever order its backend
kept them: the order they were defined in, live, and sorted keys in a
reopened file tree.  The export writes each DV's actuals in its
transformation's formal order, so a 600-derivation canonical catalog
exports the same text on the memory, SQLite and file-tree backends,
live and reopened, under hash seeds 1 and 2 (child processes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.catalog.memory import MemoryCatalog

#: Exports the canonical catalog on each backend, live and reopened.
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
texts = {}
for backend, open_ in opens.items():
    catalog = open_()
    canonical.generate_graph(catalog, nodes=600, layers=12, max_fanin=3, seed=5)
    texts[backend + " live"] = catalog.export_vdl()
    if backend != "memory":
        texts[backend + " reopened"] = open_().export_vdl()
print(json.dumps(texts))
"""


def test_one_text_on_every_backend_live_and_reopened(tmp_path):
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src"),
             env.get("PYTHONPATH", "")]
        )
        runs.append(
            json.loads(
                subprocess.run(
                    [sys.executable, "-c", CHILD, str(tmp_path)],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        )
    assert runs[0] == runs[1]
    texts = runs[0]
    assert len(texts) == 5
    text = texts["memory live"]
    assert set(texts.values()) == {text}
    # The formal order of canon3( output o, input i0..i2, none tag ).
    line = next(ln for ln in text.splitlines() if "->canon3(" in ln)
    assert line.index(" o=") < line.index("i0=") < line.index("i2=") < (
        line.index("tag=")
    )
    assert MemoryCatalog().define(text).export_vdl() == text
