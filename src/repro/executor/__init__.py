"""Derivation execution: local sandbox runs and grid workflow runs (§5.4)."""

from repro.executor.grid_executor import GridExecutor
from repro.executor.local import LocalExecutor, RunContext, TransformationBody
from repro.executor.session import InteractiveSession, SessionEntry

__all__ = [
    "GridExecutor",
    "InteractiveSession",
    "LocalExecutor",
    "RunContext",
    "SessionEntry",
    "TransformationBody",
]
