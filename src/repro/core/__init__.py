"""Core virtual data schema: the paper's primary contribution (§3).

Re-exports the five schema object classes (dataset, replica,
transformation, derivation, invocation), the three-dimensional dataset
type model, descriptors, naming, attributes and versioning.
"""

from repro.core.attributes import Annotation, AttributeSet
from repro.core.dataset import Dataset
from repro.core.derivation import ActualArg, DatasetArg, Derivation
from repro.core.descriptors import (
    ArchiveDescriptor,
    Descriptor,
    FileDescriptor,
    FileSlice,
    FilesetDescriptor,
    IndexedDescriptor,
    ObjectClosureDescriptor,
    SliceDescriptor,
    SpreadsheetDescriptor,
    SQLRowsDescriptor,
    VirtualDescriptor,
    descriptor_from_dict,
    descriptor_to_dict,
)
from repro.core.invocation import (
    ExecutionContext,
    Invocation,
    ResourceUsage,
    STATUSES,
)
from repro.core.naming import OBJECT_KINDS, VDPRef, check_object_name
from repro.core.replica import Replica
from repro.core.transformation import (
    ArgumentTemplate,
    CompoundTransformation,
    DIRECTIONS,
    FormalArg,
    FormalRef,
    SimpleTransformation,
    Transformation,
    TransformationCall,
    TransformationSignature,
    two_stage,
)
from repro.core.types import (
    ANY_DATASET,
    ANY_DATASET_NAME,
    DIMENSION_ROOTS,
    DIMENSIONS,
    DatasetType,
    TypeRegistry,
    TypeUnion,
    default_registry,
)
from repro.core.versioning import (
    CompatibilityAssertion,
    Version,
    VersionRegistry,
)

__all__ = [
    "ANY_DATASET",
    "ANY_DATASET_NAME",
    "ActualArg",
    "Annotation",
    "ArchiveDescriptor",
    "ArgumentTemplate",
    "AttributeSet",
    "CompatibilityAssertion",
    "CompoundTransformation",
    "DIMENSIONS",
    "DIMENSION_ROOTS",
    "DIRECTIONS",
    "Dataset",
    "DatasetArg",
    "DatasetType",
    "Derivation",
    "Descriptor",
    "ExecutionContext",
    "FileDescriptor",
    "FileSlice",
    "FilesetDescriptor",
    "FormalArg",
    "FormalRef",
    "IndexedDescriptor",
    "Invocation",
    "OBJECT_KINDS",
    "ObjectClosureDescriptor",
    "Replica",
    "ResourceUsage",
    "STATUSES",
    "SQLRowsDescriptor",
    "SimpleTransformation",
    "SliceDescriptor",
    "SpreadsheetDescriptor",
    "Transformation",
    "TransformationCall",
    "TransformationSignature",
    "TypeRegistry",
    "TypeUnion",
    "VDPRef",
    "Version",
    "VersionRegistry",
    "VirtualDescriptor",
    "check_object_name",
    "default_registry",
    "descriptor_from_dict",
    "descriptor_to_dict",
    "two_stage",
]
