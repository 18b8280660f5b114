"""Every module in ``src/repro`` is reachable from a real entry point.

The walk follows imports over the AST from :data:`ROOTS`.  A package
``__init__``'s own module-level imports are re-exports, not uses: they
are not followed.  ``from pkg import Name`` instead resolves ``Name`` to
the submodule that defines it, through however many ``__init__``
re-exports.  ``import pkg`` followed by ``pkg.Name`` reaches only
``pkg`` (the walk fails loudly on it rather than passing silently).
Imports under ``if TYPE_CHECKING:`` are not runtime uses and are
skipped.  The tree has no relative imports; the walk does not resolve
them, so one would show up as an unreached module.  Reaching a module
reaches its parent packages (Python runs their ``__init__``), so code
inside an ``__init__``, such as ``repro.__getattr__``'s lazy imports,
is followed.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator, Optional

SRC = Path(__file__).resolve().parents[1] / "src"

#: Entry points, each with the reason it counts as a real path.
ROOTS = {
    "repro.__main__": "`python -m repro`: the CLI's module entry point",
    "repro.cli": "the `vdg` console script declared in pyproject.toml",
    "repro.system": "`VirtualDataSystem`: the library facade `import repro` "
    "hands out",
    "repro.catalog.sqlite": "SQLite backend: library API, used by the "
    "`reuse-session` ledger workload",
    "repro.workloads.canonical": "canonical graph generator: library API, "
    "used by the `plan-scale`, `campaign-cold` and `dispatch-loops` ledger "
    "workloads",
    "repro.workloads.hep": "§6 HEP workload: library API, used by the "
    "examples and the CI lint step",
    "repro.workloads.sdss": "§6 SDSS workload: library API, used by the "
    "examples and the CI lint step",
}


def module_files(src: Path, package: str) -> dict[str, Path]:
    """Dotted module name -> source file, for every module of ``package``."""
    files = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        files[".".join(parts)] = path
    return files


class ImportGraph:
    """The import edges of one source tree, resolved past re-exports."""

    def __init__(self, src: Path, package: str):
        self.files = module_files(src, package)
        self._trees: dict[str, ast.Module] = {}
        self._exports: dict[str, dict[str, tuple[str, str]]] = {}

    def is_package(self, module: str) -> bool:
        return self.files[module].name == "__init__.py"

    def tree(self, module: str) -> ast.Module:
        if module not in self._trees:
            source = self.files[module].read_text(encoding="utf-8")
            self._trees[module] = ast.parse(source, str(self.files[module]))
        return self._trees[module]

    def exports(self, package: str) -> dict[str, tuple[str, str]]:
        """Name -> (module, name there) for an ``__init__``'s re-exports."""
        if package not in self._exports:
            table = {}
            for node in self.tree(package).body:
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        table[alias.asname or alias.name] = (node.module, alias.name)
            self._exports[package] = table
        return self._exports[package]

    def resolve(self, module: str, name: str) -> Optional[str]:
        """The module that defines ``module.name``; ``None`` outside the tree."""
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if f"{module}.{name}" in self.files:
                return f"{module}.{name}"
            if module not in self.files:
                return None
            if not self.is_package(module) or name not in self.exports(module):
                return module
            module, name = self.exports(module)[name]
        return module

    def edges(self, module: str) -> set[str]:
        """Modules ``module`` uses, by the rules in this file's docstring."""
        found: set[str] = set()
        for node, top_level in _runtime_nodes(self.tree(module)):
            if top_level and self.is_package(module):
                continue  # an __init__'s own imports are re-exports
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names if a.name in self.files)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    target = self.resolve(node.module, alias.name)
                    if target is not None:
                        found.add(target)
        return found


def _runtime_nodes(tree: ast.Module) -> Iterator[tuple[ast.AST, bool]]:
    """Every node outside ``if TYPE_CHECKING:`` blocks, with whether it
    is a module-level statement."""
    stack = [(node, True) for node in reversed(tree.body)]
    while stack:
        node, top_level = stack.pop()
        yield node, top_level
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            children = node.orelse
        else:
            children = list(ast.iter_child_nodes(node))
        stack.extend((child, False) for child in reversed(children))


def unreachable(
    src: Path, package: str, roots: Iterable[str]
) -> list[str]:
    """Modules of ``package`` no root reaches, sorted.  A package whose
    modules are all unreached is named by those modules, not by its
    ``__init__``."""
    graph = ImportGraph(src, package)
    reached: set[str] = set()
    queue = deque(roots)
    while queue:
        module = queue.popleft()
        if module in reached or module not in graph.files:
            continue
        reached.add(module)
        parts = module.split(".")
        queue.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        queue.extend(graph.edges(module))
    return sorted(
        module
        for module in graph.files
        if module not in reached
        and not (
            graph.is_package(module)
            and any(other.startswith(module + ".") for other in graph.files)
        )
    )


def test_every_module_is_reachable():
    files = module_files(SRC, "repro")
    assert not set(ROOTS) - set(files), "a root names no module"
    orphans = unreachable(SRC, "repro", ROOTS)
    assert not orphans, (
        "modules no entry point imports (wire them into a real path or "
        "delete them): " + ", ".join(orphans)
    )


def _write_package(root: Path, modules: dict[str, str]) -> Path:
    for name, source in modules.items():
        path = root / (name.replace(".", "/") + ".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def test_orphan_module_reported(tmp_path):
    src = _write_package(
        tmp_path,
        {
            "pkg.__init__": "",
            "pkg.main": "from pkg.used import f\n",
            "pkg.used": "def f():\n    return 1\n",
            "pkg.orphan": "def g():\n    return 2\n",
        },
    )
    assert unreachable(src, "pkg", ["pkg.main"]) == ["pkg.orphan"]


def test_reexport_alone_does_not_reach(tmp_path):
    src = _write_package(
        tmp_path,
        {
            "pkg.__init__": (
                "from pkg.used import f\nfrom pkg.orphan import g\n"
            ),
            "pkg.main": "from pkg import f\n",
            "pkg.used": "def f():\n    return 1\n",
            "pkg.orphan": "def g():\n    return 2\n",
        },
    )
    assert unreachable(src, "pkg", ["pkg.main"]) == ["pkg.orphan"]
