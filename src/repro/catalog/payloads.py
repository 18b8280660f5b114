"""The two forms of a stored object: records in the process, documents
where bytes leave it.

A catalog's working form is the *record* — the :class:`Dataset`,
:class:`Derivation`, ... object itself, private to the catalog and
read-only once stored.  A *document* (``to_dict()``) is a persistence
format: the SQLite and file-tree backends write one per put, the
intent journal records them, ``export_snapshot`` hands them out.

:func:`owned` makes the record a put stores, in one pass: a copy of
the caller's object canonicalized the way decoding its document would
be, so a record kept in memory and one read back from disk are the
same object graph.  What records share is immutable: untyped datasets
share :data:`ANY_DATASET`, size-less virtual descriptors one instance,
attribute-less records of every kind :data:`NO_ATTRIBUTES` and
environment-less derivations :data:`NO_ENVIRONMENT` (a write through
either raises), and formal names are interned.  Every ``get_*`` hands
out a copy with containers of its own.

The readers below take a stored object *at rest*: a record, or — on a
document backend, until a reader decodes it — the document loaded for
it.  Whole-store scans and index maintenance read the few fields they
need off either form, so a cold scan of a document backend decodes
nothing and a memory catalog encodes nothing.
"""

from __future__ import annotations

from sys import intern
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

from repro.core.attributes import NO_ATTRIBUTES, AttributeSet
from repro.core.derivation import DatasetArg, Derivation
from repro.core.descriptors import FileDescriptor, descriptor_from_dict
from repro.core.invocation import ExecutionContext
from repro.core.naming import VDPRef
from repro.core.types import ANY_DATASET, DatasetType

#: The shared instance every size-less virtual descriptor decodes to.
_VIRTUAL = descriptor_from_dict({"kind": "virtual", "size_hint": None})

#: The one environment every environment-less stored derivation
#: shares: read-only, like :data:`NO_ATTRIBUTES`.
NO_ENVIRONMENT: Mapping[str, str] = MappingProxyType({})


def _attributes(attributes: AttributeSet) -> AttributeSet:
    """The set decoding would build: current values only, and the
    shared empty set when there are none."""
    return AttributeSet(attributes.as_dict()) if len(attributes) else NO_ATTRIBUTES


def _descriptor(descriptor):
    return _VIRTUAL if descriptor == _VIRTUAL else descriptor


def _own_dataset(ds):
    clone = object.__new__(type(ds))
    clone.name = ds.name
    clone.dataset_type = (
        ANY_DATASET if ds.dataset_type == ANY_DATASET else ds.dataset_type
    )
    clone.descriptor = _descriptor(ds.descriptor)
    clone.attributes = _attributes(ds.attributes)
    clone.producer = ds.producer
    return clone


def _own_replica(replica):
    clone = replica.copy()
    if clone.descriptor is not None:
        clone.descriptor = _descriptor(clone.descriptor)
    clone.attributes = _attributes(replica.attributes)
    return clone


def _own_derivation(dv):
    clone = object.__new__(type(dv))
    clone.name = dv.name
    clone.transformation = VDPRef.parse(
        dv.transformation.uri(), default_kind="transformation"
    )
    clone.actuals = {intern(key): value for key, value in dv.actuals.items()}
    clone.environment = dict(dv.environment) if dv.environment else NO_ENVIRONMENT
    clone.attributes = _attributes(dv.attributes)
    return clone


def _own_invocation(inv):
    clone = inv.copy()
    ctx = inv.context
    clone.context = ExecutionContext.make(
        site=ctx.site,
        host=ctx.host,
        os=ctx.os,
        processor=ctx.processor,
        environment=ctx.environment_dict(),
    )
    clone.attributes = _attributes(inv.attributes)
    return clone


def sharing_empties(decode: Callable[[dict], Any]) -> Callable[[dict], Any]:
    """``decode`` making records as :func:`owned` does: an empty
    attribute set or environment is the shared read-only one."""

    def decoded(document: dict) -> Any:
        record = decode(document)
        if not record.attributes:
            record.attributes = NO_ATTRIBUTES
        if type(record) is Derivation and not record.environment:
            record.environment = NO_ENVIRONMENT
        return record

    return decoded


_OWNERS: dict[str, Callable[[Any], Any]] = {
    "dataset": _own_dataset,
    "replica": _own_replica,
    "derivation": _own_derivation,
    "invocation": _own_invocation,
}


def owned(
    kind: str, obj: Any, decode: Callable[[dict], Any]
) -> tuple[Any, Optional[dict]]:
    """``(record, document)``: the private record a put of ``obj``
    stores, and its document when making the record built one.

    A transformation's structure is its canonical XML, so its record
    is decoded from the document (``decode``), which the put then
    writes; every other kind is copied field by field and encodes
    nothing here.
    """
    owner = _OWNERS.get(kind)
    if owner is not None:
        return owner(obj), None
    document = obj.to_dict()
    return decode(document), document


# -- reading an object at rest -----------------------------------------------


def document(entry: Any) -> Optional[dict]:
    """``entry`` as a document (a loaded one is returned as is)."""
    if entry is None or type(entry) is dict:
        return entry
    return entry.to_dict()


def field(entry: Any, name: str) -> Any:
    """A top-level field a record and its document spell alike
    (``dataset_name``, ``derivation_name``, ``status``, ...)."""
    if type(entry) is dict:
        return entry.get(name)
    return getattr(entry, name)


def attribute(entry: Any, name: str) -> Any:
    """The current value of attribute ``name``, or None."""
    if type(entry) is dict:
        return (entry.get("attributes") or {}).get(name)
    return entry.attributes.get(name)


def dataset_type(entry: Any) -> DatasetType:
    """A dataset's declared type."""
    if type(entry) is dict:
        spec = entry.get("type") or {}
        return DatasetType(
            content=spec.get("content", DatasetType.content),
            format=spec.get("format", DatasetType.format),
            encoding=spec.get("encoding", DatasetType.encoding),
        )
    return entry.dataset_type


def is_concrete(entry: Any) -> bool:
    """Whether a dataset declares a concrete (non-virtual) descriptor."""
    if type(entry) is dict:
        return (entry.get("descriptor") or {}).get("kind", "virtual") != "virtual"
    return not entry.is_virtual


def file_size(entry: Any) -> Optional[int]:
    """The file size a replica records in its file descriptor; None
    for a replica of any other kind (a simulated grid copy) or none."""
    if entry is None:
        return None
    if type(entry) is dict:
        descriptor = entry.get("descriptor") or {}
        return descriptor.get("size") if descriptor.get("kind") == "file" else None
    descriptor = entry.descriptor
    return descriptor.size if isinstance(descriptor, FileDescriptor) else None


def dataset_size(entry: Any, default: int, replica_size: Optional[int]) -> int:
    """A dataset's planning size: an explicit ``size`` attribute, else
    ``replica_size`` (its newest file replica's), else what
    :meth:`Dataset.size_estimate` reads, its descriptor's nominal size,
    else ``default``."""
    size = attribute(entry, "size")
    if isinstance(size, (int, float)):
        return int(size)
    if replica_size is not None:
        return replica_size
    if type(entry) is not dict:
        return entry.size_estimate(default)
    if entry.get("descriptor"):
        nominal = descriptor_from_dict(entry["descriptor"]).nominal_size()
        if nominal is not None:
            return nominal
    return default


def derivation_edges(entry: Any) -> tuple[tuple, tuple, str]:
    """(inputs, outputs, transformation name) of a derivation, the
    dataset names sorted as :meth:`Derivation.inputs` sorts them."""
    inputs: set[str] = set()
    outputs: set[str] = set()
    if type(entry) is dict:
        for actual in entry.get("actuals", {}).values():
            if not isinstance(actual, dict):
                continue
            direction = actual.get("direction", "input")
            if direction in ("input", "inout"):
                inputs.add(actual["dataset"])
            if direction in ("output", "inout"):
                outputs.add(actual["dataset"])
        tr_name = VDPRef.parse(
            entry["transformation"], default_kind="transformation"
        ).name
    else:
        for actual in entry.actuals.values():
            if isinstance(actual, DatasetArg):
                if actual.direction in ("input", "inout"):
                    inputs.add(actual.dataset)
                if actual.direction in ("output", "inout"):
                    outputs.add(actual.dataset)
        tr_name = entry.transformation.name
    return tuple(sorted(inputs)), tuple(sorted(outputs)), tr_name
