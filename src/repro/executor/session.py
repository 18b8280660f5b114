"""Interactive sessions: automatic derivation tracking + snapshots.

§5.1: "we envision VDL also being integrated into interactive analysis
tools and environments, so that researchers exploring data spaces in a
less structured fashion will have the benefits of a historical log of
their recent data derivation activities.  These users could then
choose to snapshot these logs (which could be maintained directly in a
virtual data catalog) into a more permanent and well-categorized and
named portion of their virtual data workspace."

:class:`InteractiveSession` wraps a :class:`~repro.executor.local.LocalExecutor`:
the user just *runs* transformations with keyword bindings — no DV
declarations — and the session synthesizes the derivation records,
executes them, and keeps the historical log.  :meth:`snapshot`
publishes chosen results (with their full recipes) into a permanent
catalog under curated names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.catalog.base import VirtualDataCatalog
from repro.catalog.promotion import PromotionReport, promote
from repro.catalog.resolver import ReferenceResolver
from repro.core.derivation import DatasetArg, Derivation
from repro.core.invocation import Invocation
from repro.core.naming import VDPRef
from repro.errors import ExecutionError
from repro.executor.local import LocalExecutor


@dataclass
class SessionEntry:
    """One step of the session's historical log."""

    derivation: Derivation
    invocation: Invocation

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.derivation.outputs()


class InteractiveSession:
    """An exploratory analysis session with automatic tracking."""

    def __init__(self, executor: LocalExecutor, prefix: str = "session"):
        self.executor = executor
        self.catalog = executor.catalog
        self.prefix = prefix
        self._counter = 0
        self.log: list[SessionEntry] = []

    # -- running ---------------------------------------------------------------

    def run(self, transformation: str, **bindings: str) -> tuple[str, ...]:
        """Run a transformation interactively; returns output dataset names.

        Keyword bindings map formal names to values: strings for
        ``none`` formals; dataset names for dataset formals (existing
        names for inputs; any fresh name for outputs — omitted outputs
        get generated ``<prefix>.N.<formal>`` names).
        """
        tr = self.catalog.get_transformation(transformation)
        self._counter += 1
        dv_name = f"{self.prefix}.{self._counter:04d}"
        actuals: dict[str, Union[str, DatasetArg]] = {}
        for formal in tr.signature.formals:
            value = bindings.get(formal.name)
            if formal.is_string:
                if value is not None:
                    actuals[formal.name] = value
                elif formal.default is None:
                    raise ExecutionError(
                        f"interactive run of {transformation!r}: string "
                        f"formal {formal.name!r} needs a value"
                    )
            else:
                if value is None:
                    if formal.is_input and formal.default is None:
                        raise ExecutionError(
                            f"interactive run of {transformation!r}: input "
                            f"{formal.name!r} needs a dataset name"
                        )
                    value = (
                        formal.default
                        or f"{self.prefix}.{self._counter:04d}.{formal.name}"
                    )
                actuals[formal.name] = DatasetArg(
                    dataset=value, direction=formal.direction
                )
        derivation = Derivation(
            name=dv_name,
            transformation=VDPRef(transformation, kind="transformation"),
            actuals=actuals,
        )
        derivation.attributes.set("session", self.prefix)
        self.catalog.add_derivation(derivation)
        invocation = self.executor.execute(derivation)
        self.log.append(
            SessionEntry(derivation=derivation, invocation=invocation)
        )
        return derivation.outputs()

    # -- the historical log ------------------------------------------------------

    def history(self) -> list[str]:
        """Human-readable log lines, oldest first."""
        lines = []
        for entry in self.log:
            dv = entry.derivation
            params = ", ".join(
                f"{k}={v!r}"
                for k, v in dv.actuals.items()
                if isinstance(v, str)
            )
            lines.append(
                f"{dv.name}: {dv.transformation.name}({params}) -> "
                f"{', '.join(entry.outputs)} "
                f"[{entry.invocation.usage.wall_seconds * 1e3:.1f} ms]"
            )
        return lines

    def datasets_created(self) -> list[str]:
        out: list[str] = []
        for entry in self.log:
            out.extend(entry.outputs)
        return out

    # -- snapshotting (§5.1) --------------------------------------------------------

    def snapshot(
        self,
        destination: VirtualDataCatalog,
        names: dict[str, str],
    ) -> PromotionReport:
        """Publish selected session results into a permanent catalog.

        ``names`` maps session dataset names to their curated permanent
        names.  The full recipes travel along (via catalog promotion);
        renamed datasets keep provenance because the rename is applied
        to the promoted records at the destination.
        """
        resolver = ReferenceResolver(self.catalog)
        report = PromotionReport()
        for session_name, permanent_name in names.items():
            sub = promote(session_name, resolver, destination)
            report.datasets += sub.datasets
            report.derivations += sub.derivations
            report.transformations += sub.transformations
            report.skipped += sub.skipped
            if permanent_name != session_name:
                self._rename(destination, session_name, permanent_name)
                report.datasets = [
                    permanent_name if d == session_name else d
                    for d in report.datasets
                ]
        return report

    @staticmethod
    def _rename(
        catalog: VirtualDataCatalog, old: str, new: str
    ) -> None:
        dataset = catalog.get_dataset(old)
        dataset.name = new
        catalog.add_dataset(dataset, replace=True)
        catalog.remove_dataset(old)
        for dv in catalog.producers_of(old) + catalog.consumers_of(old):
            for formal, arg in list(dv.dataset_args()):
                if arg.dataset == old:
                    dv.actuals[formal] = DatasetArg(
                        dataset=new,
                        direction=arg.direction,
                        temporary=arg.temporary,
                    )
            catalog.add_derivation(
                dv, replace=True, validate=False, auto_declare=False
            )
