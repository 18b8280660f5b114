"""Replicas: physical copies of datasets.

"The replica is introduced to allow for datasets that may have multiple
physical copies with different properties such as location." (§3)

A replica names its dataset, a location (a storage element in the
simulated grid, or a plain host name), and the concrete descriptor of
the bytes at that location.  Invocation records may pin the specific
replicas they read and wrote, "to keep a detailed account of provenance
in an environment where datasets can be replicated".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.attributes import AttributeSet
from repro.core.descriptors import Descriptor, descriptor_from_dict, descriptor_to_dict
from repro.core.naming import check_object_name
from repro.errors import SchemaError

_last_replica_ordinal = 0
# The parallel executor creates replicas from pool threads; without the
# lock two threads could be issued the same ordinal.
_replica_id_lock = threading.Lock()


def _next_replica_id() -> str:
    global _last_replica_ordinal
    with _replica_id_lock:
        _last_replica_ordinal += 1
        return f"rep-{_last_replica_ordinal:08d}"


def observe_replica_id(replica_id: str) -> None:
    # Advance the allocator past IDs loaded from persistent catalogs so
    # a process reopening a populated workspace never re-issues one.
    global _last_replica_ordinal
    if replica_id.startswith("rep-"):
        try:
            ordinal = int(replica_id[4:])
        except ValueError:
            return
        with _replica_id_lock:
            if ordinal > _last_replica_ordinal:
                _last_replica_ordinal = ordinal


@dataclass
class Replica:
    """One physical copy of a dataset at a specific location."""

    dataset_name: str
    location: str
    descriptor: Optional[Descriptor] = None
    replica_id: str = field(default_factory=_next_replica_id)
    #: Size of this copy in bytes when known (drives transfer cost models).
    size: Optional[int] = None
    #: Content digest used by equivalence checking, when computed.
    digest: Optional[str] = None
    attributes: AttributeSet = field(default_factory=AttributeSet)

    def __post_init__(self):
        check_object_name(self.dataset_name)
        if not self.location:
            raise SchemaError("replica requires a location")
        if isinstance(self.attributes, dict):
            self.attributes = AttributeSet(self.attributes)
        observe_replica_id(self.replica_id)

    def copy(self) -> "Replica":
        """An independent, unvalidated copy sharing the frozen
        descriptor (see :meth:`repro.core.dataset.Dataset.copy`)."""
        clone = object.__new__(type(self))
        clone.dataset_name = self.dataset_name
        clone.location = self.location
        clone.descriptor = self.descriptor
        clone.replica_id = self.replica_id
        clone.size = self.size
        clone.digest = self.digest
        clone.attributes = self.attributes.copy()
        return clone

    def size_estimate(self, default: int = 0) -> int:
        """Size in bytes for transfer planning, falling back to ``default``."""
        if self.size is not None:
            return self.size
        if self.descriptor is not None:
            nominal = self.descriptor.nominal_size()
            if nominal is not None:
                return nominal
        return default

    def to_dict(self) -> dict[str, Any]:
        return {
            "replica_id": self.replica_id,
            "dataset_name": self.dataset_name,
            "location": self.location,
            "descriptor": (
                descriptor_to_dict(self.descriptor) if self.descriptor else None
            ),
            "size": self.size,
            "digest": self.digest,
            "attributes": self.attributes.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Replica":
        descriptor = data.get("descriptor")
        return cls(
            dataset_name=data["dataset_name"],
            location=data["location"],
            descriptor=descriptor_from_dict(descriptor) if descriptor else None,
            replica_id=data.get("replica_id") or _next_replica_id(),
            size=data.get("size"),
            digest=data.get("digest"),
            attributes=AttributeSet(data.get("attributes") or {}),
        )

    def __str__(self) -> str:
        return f"Replica({self.dataset_name}@{self.location})"
