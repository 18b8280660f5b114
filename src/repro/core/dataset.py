"""The dataset: the unit of data managed within the virtual data model.

"A dataset definition maps a dataset name to a dataset type and a
dataset descriptor." (§3.1)  Datasets are logical: physical copies are
:class:`repro.core.replica.Replica` objects linked by name.  A dataset
whose descriptor is :class:`~repro.core.descriptors.VirtualDescriptor`
is *virtual data* — a recipe.  Whether it is materialized is a catalog
question (:meth:`repro.catalog.base.VirtualDataCatalog.is_materialized`):
a produced dataset is materialized exactly when it has a replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.attributes import AttributeSet
from repro.core.descriptors import Descriptor, VirtualDescriptor, descriptor_from_dict, descriptor_to_dict
from repro.core.naming import check_object_name
from repro.core.types import ANY_DATASET, DatasetType


@dataclass(slots=True)
class Dataset:
    """A named, typed, described unit of data.

    Required attributes (per Fig 1): ``name`` and ``dataset_type``.
    ``descriptor`` defaults to a virtual descriptor so freshly declared
    datasets are recipes, not claims about bytes on disk.  Arbitrary
    application metadata lives in ``attributes``.
    """

    name: str
    dataset_type: DatasetType = ANY_DATASET
    descriptor: Descriptor = field(default_factory=VirtualDescriptor)
    attributes: AttributeSet = field(default_factory=AttributeSet)
    #: Name of the derivation that produces this dataset, when known.
    #: Maintained by catalogs as derivations are registered.
    producer: Optional[str] = None

    def __post_init__(self):
        check_object_name(self.name)
        if isinstance(self.attributes, dict):
            self.attributes = AttributeSet(self.attributes)

    @property
    def is_virtual(self) -> bool:
        """True when the record describes no physical representation."""
        return isinstance(self.descriptor, VirtualDescriptor)

    def copy(self) -> "Dataset":
        """An independent copy: mutating it leaves ``self`` untouched.

        Skips the constructor's validation (``self`` already passed it)
        and shares the frozen type and descriptor, so a catalog can
        decode a stored dataset once and hand each reader its own
        object for a fraction of the decode.
        """
        clone = object.__new__(type(self))
        clone.name = self.name
        clone.dataset_type = self.dataset_type
        clone.descriptor = self.descriptor
        clone.attributes = self.attributes.copy()
        clone.producer = self.producer
        return clone

    def size_estimate(self, default: int = 0) -> int:
        """Best-effort size in bytes for planning purposes.

        Preference order: an explicit ``size`` attribute, the
        descriptor's nominal size, then ``default``.
        """
        attr_size = self.attributes.get("size")
        if isinstance(attr_size, (int, float)):
            return int(attr_size)
        nominal = self.descriptor.nominal_size()
        if nominal is not None:
            return nominal
        return default

    def to_dict(self) -> dict[str, Any]:
        """Serialize for catalog persistence."""
        return {
            "name": self.name,
            "type": self.dataset_type.as_dict(),
            "descriptor": descriptor_to_dict(self.descriptor),
            "attributes": self.attributes.as_dict(),
            "producer": self.producer,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Dataset":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            dataset_type=DatasetType.from_dict(data.get("type", {})),
            descriptor=descriptor_from_dict(data["descriptor"]),
            attributes=AttributeSet(data.get("attributes") or {}),
            producer=data.get("producer"),
        )

    def __str__(self) -> str:
        tag = "virtual" if self.is_virtual else self.descriptor.KIND
        return f"Dataset({self.name}: {self.dataset_type} [{tag}])"
