"""The CLI's argument surface, pinned structurally.

Every parser (``vdg`` and each subcommand, ``runs prune`` included) is
dumped action by action and compared with ``fixtures/cli_parser.json``.
The dump holds what a user can type and what it means, not rendered
``--help`` text, whose wrapping differs between Python versions.  A
change to an option, a default or a help string fails here: update the
fixture only when the surface is meant to change.

Regenerate the fixture with::

    PYTHONPATH=src python tests/test_cli_parser.py > tests/fixtures/cli_parser.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "cli_parser.json"

FIELDS = (
    "option_strings", "dest", "default", "const", "choices", "nargs",
    "metavar", "required", "help",
)


def _action(action: argparse.Action) -> dict:
    entry = {field: getattr(action, field) for field in FIELDS}
    entry["kind"] = type(action).__name__
    entry["type"] = getattr(action.type, "__name__", action.type)
    if isinstance(action, argparse._SubParsersAction):
        entry["choices"] = sorted(action.choices)
        entry["commands"] = {
            choice.dest: choice.help for choice in action._choices_actions
        }
    return entry


def dump(parser: argparse.ArgumentParser, path: str = "vdg") -> dict:
    """``{"vdg": ..., "vdg run": ..., "vdg runs prune": ...}``."""
    dumped = {
        path: {
            "description": parser.description,
            "actions": [_action(action) for action in parser._actions],
        }
    }
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                dumped.update(dump(sub, f"{path} {name}"))
    return dumped


def normalized(parser: argparse.ArgumentParser) -> dict:
    """The dump as JSON would hold it (tuples become lists)."""
    return json.loads(json.dumps(dump(parser), sort_keys=True))


def test_parser_matches_the_pinned_surface():
    pinned = json.loads(FIXTURE.read_text())
    current = normalized(build_parser())
    assert sorted(current) == sorted(pinned)
    for path in sorted(pinned):
        assert current[path] == pinned[path], path


def test_every_subcommand_is_pinned():
    paths = set(normalized(build_parser()))
    assert {"vdg", "vdg run", "vdg runs", "vdg runs prune"} <= paths
    assert len(paths) == 23


if __name__ == "__main__":
    print(json.dumps(normalized(build_parser()), indent=1, sort_keys=True))
