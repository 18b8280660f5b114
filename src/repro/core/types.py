"""The Chimera dataset-type model.

A dataset's type comprises three *dimensions* (§3.1 of the paper):

* **content** — the semantic content (e.g. ``cms-simulation``),
* **format** — the physical representation (e.g. ``tar-archive``),
* **encoding** — the encoding used in that representation (e.g. ``ascii``).

Within each dimension, type names are arranged in a hierarchy of
subtypes, which allows generalization and specialization.  The base
types of the three dimensions are ``Dataset-content``,
``Dataset-format`` and ``Dataset-encoding``; ``Dataset`` is a synonym
for the collective base type, so a formal transformation argument typed
simply as ``Dataset`` accepts any dataset.

The model intentionally does **not** describe the byte-level layout of a
dataset; its purpose is discovery and type-checking of transformation
signatures (see :mod:`repro.core.transformation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.errors import TypeSystemError, UnknownTypeError

#: The three type dimensions, in canonical order.
DIMENSIONS = ("content", "format", "encoding")

#: Name of the root type in each dimension, keyed by dimension.
DIMENSION_ROOTS = {
    "content": "Dataset-content",
    "format": "Dataset-format",
    "encoding": "Dataset-encoding",
}

#: Synonym for "any dataset": every dimension at its root.
ANY_DATASET_NAME = "Dataset"


class TypeRegistry:
    """A per-community registry of dataset type hierarchies.

    There are no predefined base types beyond the three dimension roots:
    each user community defines its own set of type names (§3.1).  The
    registry stores, for every dimension, a forest rooted at the
    dimension's base type, and answers subtype queries by walking parent
    links.

    Type names are case-preserving but compared case-insensitively, so
    ``"Fileset"`` and ``"fileset"`` denote the same node.
    """

    def __init__(self):
        # dimension -> canonical(lower) name -> (display name, parent canonical or None)
        self._nodes: dict[str, dict[str, tuple[str, Optional[str]]]] = {}
        for dim, root in DIMENSION_ROOTS.items():
            self._nodes[dim] = {root.lower(): (root, None)}
        # (actual, formals) -> conforms_to_any's answer, for the
        # registry's contents as they are: cleared when a type is added.
        self._conformance: dict[tuple, bool] = {}

    # -- registration ------------------------------------------------

    def register(self, dimension: str, name: str, parent: Optional[str] = None) -> None:
        """Register ``name`` as a subtype of ``parent`` in ``dimension``.

        ``parent=None`` attaches the type directly under the dimension
        root.  Re-registering an existing name with the same parent is a
        no-op; with a different parent it is an error (hierarchies are
        append-only so provenance records never change meaning).
        """
        dim = self._check_dimension(dimension)
        nodes = self._nodes[dim]
        parent_key = (parent or DIMENSION_ROOTS[dim]).lower()
        if parent_key not in nodes:
            raise UnknownTypeError(
                f"parent type {parent!r} not registered in dimension {dim!r}"
            )
        key = name.lower()
        if key in nodes:
            existing_parent = nodes[key][1]
            if existing_parent != parent_key:
                raise TypeSystemError(
                    f"type {name!r} already registered in dimension {dim!r} "
                    f"under a different parent"
                )
            return
        nodes[key] = (name, parent_key)
        self._conformance.clear()

    def register_hierarchy(self, dimension: str, tree: dict) -> None:
        """Register a nested ``{name: {child: {...}}}`` tree of subtypes.

        Top-level keys attach under the dimension root.  Convenient for
        loading an Appendix-C-style hierarchy in one call.
        """
        self._register_tree(dimension, None, tree)

    def _register_tree(
        self, dimension: str, parent: Optional[str], tree: dict
    ) -> None:
        for name, children in tree.items():
            self.register(dimension, name, parent)
            if children:
                self._register_tree(dimension, name, children)

    # -- queries -----------------------------------------------------

    def knows(self, dimension: str, name: str) -> bool:
        """Return whether ``name`` is registered in ``dimension``."""
        dim = self._check_dimension(dimension)
        return name.lower() in self._nodes[dim]

    def parent(self, dimension: str, name: str) -> Optional[str]:
        """Return the display name of ``name``'s parent, or None at the root."""
        dim = self._check_dimension(dimension)
        node = self._lookup(dim, name)
        parent_key = node[1]
        if parent_key is None:
            return None
        return self._nodes[dim][parent_key][0]

    def ancestry(self, dimension: str, name: str) -> list[str]:
        """Return the path from ``name`` up to the dimension root, inclusive."""
        dim = self._check_dimension(dimension)
        path = []
        key: Optional[str] = name.lower()
        while key is not None:
            display, parent_key = self._lookup(dim, key)
            path.append(display)
            key = parent_key
        return path

    def is_subtype(self, dimension: str, candidate: str, ancestor: str) -> bool:
        """Return whether ``candidate`` equals or specializes ``ancestor``.

        Every registered type is a subtype of its dimension root, and of
        itself (subtyping is reflexive).
        """
        dim = self._check_dimension(dimension)
        target = ancestor.lower()
        if target not in self._nodes[dim]:
            raise UnknownTypeError(
                f"type {ancestor!r} not registered in dimension {dim!r}"
            )
        key: Optional[str] = candidate.lower()
        while key is not None:
            if key == target:
                return True
            key = self._lookup(dim, key)[1]
        return False

    def descendants(self, dimension: str, name: str) -> list[str]:
        """Return display names of all strict descendants of ``name``."""
        dim = self._check_dimension(dimension)
        self._lookup(dim, name)  # existence check
        root_key = name.lower()
        out = []
        for key, (display, _) in self._nodes[dim].items():
            if key != root_key and self.is_subtype(dim, key, root_key):
                out.append(display)
        return sorted(out)

    def names(self, dimension: str) -> list[str]:
        """Return all display names registered in ``dimension``, sorted."""
        dim = self._check_dimension(dimension)
        return sorted(display for display, _ in self._nodes[dim].values())

    # -- dataset types -----------------------------------------------

    def make_type(
        self,
        content: str = DIMENSION_ROOTS["content"],
        format: str = DIMENSION_ROOTS["format"],
        encoding: str = DIMENSION_ROOTS["encoding"],
    ) -> "DatasetType":
        """Build a :class:`DatasetType`, validating every dimension name."""
        for dim, name in (("content", content), ("format", format), ("encoding", encoding)):
            self._lookup(dim, name)
        return DatasetType(content=content, format=format, encoding=encoding)

    def conforms(self, actual: "DatasetType", formal: "DatasetType") -> bool:
        """Type-conformance rule of the virtual data model (§3.2).

        A dataset may be supplied where ``formal`` is expected iff its
        type is a (reflexive) subtype of the formal type in **every**
        dimension — the multiple-inheritance-style check the paper
        describes as "a proper subtype of the type list".
        """
        return all(
            self.is_subtype(dim, getattr(actual, dim), getattr(formal, dim))
            for dim in DIMENSIONS
        )

    def conforms_to_any(self, actual: "DatasetType", formals: Iterable["DatasetType"]) -> bool:
        """Return whether ``actual`` conforms to at least one formal type.

        Transformation arguments may be typed as a *list* of dataset
        types, meaning a union: the actual type must match one member.
        Answers are memoized per (actual, formals) pair: a define checks
        the same few pairs once per dataset argument.  Unknown types
        raise every time.
        """
        key = (actual, tuple(formals))
        answer = self._conformance.get(key)
        if answer is None:
            answer = self._conformance[key] = any(
                self.conforms(actual, formal) for formal in key[1]
            )
        return answer

    # -- internals ---------------------------------------------------

    @staticmethod
    def _check_dimension(dimension: str) -> str:
        dim = dimension.lower()
        if dim not in DIMENSION_ROOTS:
            raise TypeSystemError(
                f"unknown type dimension {dimension!r}; expected one of {DIMENSIONS}"
            )
        return dim

    def _lookup(self, dimension: str, name: str) -> tuple[str, Optional[str]]:
        try:
            return self._nodes[dimension][name.lower()]
        except KeyError:
            raise UnknownTypeError(
                f"type {name!r} not registered in dimension {dimension!r}"
            ) from None

    def __iter__(self) -> Iterator[tuple[str, str, Optional[str]]]:
        """Yield ``(dimension, name, parent)`` triples for every node."""
        for dim in DIMENSIONS:
            for display, parent_key in self._nodes[dim].values():
                parent = self._nodes[dim][parent_key][0] if parent_key else None
                yield dim, display, parent


@dataclass(frozen=True, slots=True)
class DatasetType:
    """A fully specified dataset type: one name per dimension.

    Instances are plain value objects; subtype relations live in the
    :class:`TypeRegistry` that minted the names.  Use
    :meth:`TypeRegistry.make_type` to get validated instances.
    """

    content: str = DIMENSION_ROOTS["content"]
    format: str = DIMENSION_ROOTS["format"]
    encoding: str = DIMENSION_ROOTS["encoding"]

    def is_any(self) -> bool:
        """True when every dimension sits at its root ("Dataset")."""
        if self is ANY_DATASET:  # what every untyped record shares
            return True
        return all(
            getattr(self, dim).lower() == DIMENSION_ROOTS[dim].lower()
            for dim in DIMENSIONS
        )

    def as_dict(self) -> dict[str, str]:
        """Return a ``{dimension: name}`` mapping."""
        return {dim: getattr(self, dim) for dim in DIMENSIONS}

    @staticmethod
    def from_dict(data: dict[str, str]) -> "DatasetType":
        """Inverse of :meth:`as_dict`; the untyped case decodes to the
        shared :data:`ANY_DATASET` instead of one copy per record."""
        if data == _ANY_DATASET_DOC:
            return ANY_DATASET
        return DatasetType(**data)

    def __str__(self) -> str:
        if self.is_any():
            return ANY_DATASET_NAME
        return f"[{self.content} / {self.format} / {self.encoding}]"


#: Convenience instance meaning "any dataset" (essentially untyped).
ANY_DATASET = DatasetType()
_ANY_DATASET_DOC = ANY_DATASET.as_dict()


@dataclass(frozen=True)
class TypeUnion:
    """A union of dataset types used as a formal-argument type list.

    A transformation argument "can be typed as a list of dataset-types,
    indicating that the transformation can accept a union of types for
    that argument" (§3.2).
    """

    members: tuple[DatasetType, ...] = field(default=(ANY_DATASET,))

    def __post_init__(self):
        if not self.members:
            raise TypeSystemError("a type union must have at least one member")

    def accepts(self, actual: DatasetType, registry: TypeRegistry) -> bool:
        """Return whether ``actual`` conforms to some member of the union."""
        return registry.conforms_to_any(actual, self.members)

    def __str__(self) -> str:
        return " | ".join(str(m) for m in self.members)


def default_registry() -> TypeRegistry:
    """Build a registry pre-loaded with the Appendix C example hierarchy.

    The hierarchy mirrors the paper's "Example dataset-type Hierarchy":
    format (filesets, spreadsheets, relations), encoding (text flavours,
    tables, HDF, SPSS, SAS) and content (UChicago records, CMS
    simulation/analysis, SDSS products).
    """
    reg = TypeRegistry()
    reg.register_hierarchy(
        "format",
        {
            "Fileset": {
                "Simple": {},
                "Multi-file-list": {},
                "Tar-archive": {},
                "Zip-archive": {},
            },
            "Spreadsheet": {"Excel-95": {}, "Excel-2000": {}},
            "Relation": {
                "SQL-table": {},
                "SQL-table-set": {},
                "SQL-table-keyrange": {},
            },
            "Object-store": {"Object-closure": {}},
        },
    )
    reg.register_hierarchy(
        "encoding",
        {
            "Text": {
                "ASCII": {"DOS-text": {}, "UNIX-text": {}},
                "EBCDIC": {"MVS-text": {}},
                "Unicode": {},
            },
            "Table": {"Tab-separated-table": {}, "Comma-separated-table": {}},
            "HDF-file": {"HDF-4-file": {}, "HDF-5-file": {}},
            "SPSS": {"SPSS-portable": {}, "SPSS-native": {}},
            "SAS": {"SAS-transport": {}, "SAS-native": {}},
            "Binary": {},
        },
    )
    reg.register_hierarchy(
        "content",
        {
            "UChicago": {
                "UChicago-student-record": {},
                "UChicago-class-record": {},
            },
            "CMS": {
                "Simulation": {"Zebra-file": {}, "Geant-4-file": {}},
                "Analysis": {"ROOT-IO-file": {}, "PAW-ntuple-file": {}},
            },
            "SDSS": {
                "FITS-file": {},
                "Object-map": {},
                "Spectrometry-raw": {},
                "Image-raw": {},
            },
        },
    )
    return reg
