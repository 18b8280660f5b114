"""Promotion: publishing virtual data definitions between catalogs.

"We envision that in an effective collaborative process, data and
knowledge definitions will propagate across, up, and around the web of
each virtual organization's knowledge servers as information is
created, reprocessed, annotated, validated, and approved for broader
use, trust, and distribution." (§4.1)

:func:`promote` copies one dataset's definition — and, transitively,
the derivations, transformations and dataset records needed to make it
*reproducible* at the destination — from a source catalog (resolved
through a :class:`~repro.catalog.resolver.ReferenceResolver`, so
dependencies may already live across several servers) into a
destination catalog.  Invocation history and replica records stay
behind by default: they describe *where the work happened*, not the
recipe, and the paper's promotion story is about recipes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.catalog.base import VirtualDataCatalog
from repro.catalog.resolver import ReferenceResolver
from repro.core.naming import VDPRef
from repro.errors import NotFoundError


@dataclass
class PromotionReport:
    """What one promotion copied (names per object kind)."""

    datasets: list[str] = field(default_factory=list)
    derivations: list[str] = field(default_factory=list)
    transformations: list[str] = field(default_factory=list)
    #: Objects skipped because the destination already had them.
    skipped: list[str] = field(default_factory=list)

    def total(self) -> int:
        return (
            len(self.datasets)
            + len(self.derivations)
            + len(self.transformations)
        )


def promote(
    dataset_name: str,
    resolver: ReferenceResolver,
    destination: VirtualDataCatalog,
    include_provenance: bool = True,
) -> PromotionReport:
    """Publish ``dataset_name``'s definition into ``destination``.

    ``include_provenance=True`` walks producing derivations recursively
    (the full recipe); ``False`` copies only the dataset record itself.

    Raises :class:`~repro.errors.NotFoundError` when the dataset is
    unknown everywhere in the resolver's scope.
    """
    report = PromotionReport()
    _promote_dataset(
        dataset_name, resolver, destination, include_provenance, report, set()
    )
    return report


def _promote_dataset(
    name: str,
    resolver: ReferenceResolver,
    destination: VirtualDataCatalog,
    include_provenance: bool,
    report: PromotionReport,
    seen: set[str],
) -> None:
    if name in seen:
        return
    seen.add(name)
    try:
        dataset, _ = resolver.dataset(VDPRef(name, kind="dataset"))
    except Exception:
        raise NotFoundError(
            f"dataset {name!r} not resolvable for promotion"
        ) from None
    if destination.has_dataset(name):
        report.skipped.append(f"dataset/{name}")
    else:
        destination.add_dataset(dataset)
        report.datasets.append(name)
    if not include_provenance:
        return
    for dv, _ in resolver.producers_of(name):
        if destination.has_derivation(dv.name):
            report.skipped.append(f"derivation/{dv.name}")
        else:
            _promote_transformation(dv.transformation, resolver, destination, report)
            # Localize: once promoted, the reference resolves at the
            # destination rather than pointing back across the grid.
            dv.transformation = dv.transformation.localized()
            # auto_declare=False: input/output dataset records are
            # promoted explicitly below with their real definitions,
            # not synthesized placeholders.
            destination.add_derivation(dv, validate=False, auto_declare=False)
            report.derivations.append(dv.name)
        for input_name in dv.inputs():
            _promote_dataset(
                input_name, resolver, destination, include_provenance, report,
                seen,
            )


def _promote_transformation(
    ref: VDPRef,
    resolver: ReferenceResolver,
    destination: VirtualDataCatalog,
    report: PromotionReport,
) -> None:
    try:
        tr, _ = resolver.transformation(ref)
    except Exception:
        return  # unresolvable callee: promote the derivation anyway
    if destination.has_transformation(tr.name, tr.version):
        report.skipped.append(f"transformation/{tr.qualified_name}")
        return
    destination.add_transformation(tr)
    report.transformations.append(tr.qualified_name)
    # Compound callees must come along or the promoted definition
    # would dangle at the destination.
    from repro.core.transformation import CompoundTransformation

    if isinstance(tr, CompoundTransformation):
        for call in tr.calls:
            _promote_transformation(call.target, resolver, destination, report)
