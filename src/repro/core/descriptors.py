"""Dataset descriptors: how a dataset maps onto concrete containers.

"A dataset's descriptor provides all information needed to access and
manipulate the dataset's contents.  The nature of this descriptor will
depend on the nature of the dataset." (§3.1)

The paper enumerates a spectrum of representations — single files, file
sets, slices of files, archives, index+data pairs, SQL row sets, object
closures, spreadsheet regions.  One descriptor class per representation
lives here.  A descriptor is a pure *description*: it never touches
storage itself.  Storage backends (:mod:`repro.grid`) and local
executors interpret descriptors to move or materialize bytes.

All descriptors serialize to/from plain dicts via :func:`descriptor_to_dict`
and :func:`descriptor_from_dict`, which is what catalogs persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SchemaError


@dataclass(frozen=True)
class Descriptor:
    """Base class for all dataset descriptors."""

    #: Short tag used in serialized form; overridden per subclass.
    KIND = "abstract"

    def files(self) -> tuple[str, ...]:
        """Return the file names this descriptor touches (possibly empty)."""
        return ()

    def nominal_size(self) -> Optional[int]:
        """Return the descriptor's own size claim in bytes, if it has one."""
        return None


@dataclass(frozen=True)
class FileDescriptor(Descriptor):
    """A dataset whose contents live in a single file."""

    KIND = "file"
    path: str
    size: Optional[int] = None

    def __post_init__(self):
        if not self.path:
            raise SchemaError("file descriptor requires a non-empty path")

    def files(self) -> tuple[str, ...]:
        return (self.path,)

    def nominal_size(self) -> Optional[int]:
        return self.size


@dataclass(frozen=True)
class FilesetDescriptor(Descriptor):
    """A set of files viewed as a single logical entity."""

    KIND = "fileset"
    paths: tuple[str, ...] = ()
    size: Optional[int] = None

    def __post_init__(self):
        if not self.paths:
            raise SchemaError("fileset descriptor requires at least one path")
        if len(set(self.paths)) != len(self.paths):
            raise SchemaError("fileset descriptor paths must be distinct")

    def files(self) -> tuple[str, ...]:
        return tuple(self.paths)

    def nominal_size(self) -> Optional[int]:
        return self.size


@dataclass(frozen=True)
class FileSlice:
    """One ``(path, offset, length)`` extraction from a file."""

    path: str
    offset: int
    length: int

    def __post_init__(self):
        if not self.path:
            raise SchemaError("file slice requires a path")
        if self.offset < 0 or self.length < 0:
            raise SchemaError("file slice offset/length must be non-negative")


@dataclass(frozen=True)
class SliceDescriptor(Descriptor):
    """A list of files with offset-length pairs specifying data to extract."""

    KIND = "slices"
    slices: tuple[FileSlice, ...] = ()

    def __post_init__(self):
        if not self.slices:
            raise SchemaError("slice descriptor requires at least one slice")

    def files(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for s in self.slices:
            seen.setdefault(s.path, None)
        return tuple(seen)

    def nominal_size(self) -> Optional[int]:
        return sum(s.length for s in self.slices)


@dataclass(frozen=True)
class ArchiveDescriptor(Descriptor):
    """A set of member files inside a tar/zip/other archive."""

    KIND = "archive"
    archive_path: str
    archive_format: str = "tar"
    members: tuple[str, ...] = ()
    size: Optional[int] = None

    def __post_init__(self):
        if not self.archive_path:
            raise SchemaError("archive descriptor requires an archive path")
        if self.archive_format not in ("tar", "zip", "other"):
            raise SchemaError(f"unknown archive format {self.archive_format!r}")

    def files(self) -> tuple[str, ...]:
        return (self.archive_path,)

    def nominal_size(self) -> Optional[int]:
        return self.size


@dataclass(frozen=True)
class IndexedDescriptor(Descriptor):
    """An index file plus data files (e.g. a gdbm database)."""

    KIND = "indexed"
    index_path: str
    data_paths: tuple[str, ...] = ()
    size: Optional[int] = None

    def __post_init__(self):
        if not self.index_path:
            raise SchemaError("indexed descriptor requires an index path")
        if not self.data_paths:
            raise SchemaError("indexed descriptor requires at least one data path")

    def files(self) -> tuple[str, ...]:
        return (self.index_path, *self.data_paths)

    def nominal_size(self) -> Optional[int]:
        return self.size


@dataclass(frozen=True)
class SQLRowsDescriptor(Descriptor):
    """A set of rows extracted by primary key from one or more tables.

    ``keys`` lists individual primary-key values; ``key_range`` is an
    inclusive ``(low, high)`` pair.  Either (or both) may be given.
    Fine-grained relational provenance (§8 future work) hangs off this
    descriptor: lineage can be computed at row granularity because the
    key set is part of the dataset identity.
    """

    KIND = "sql-rows"
    database: str
    tables: tuple[str, ...] = ()
    key_column: str = "id"
    keys: tuple[str, ...] = ()
    key_range: Optional[tuple[str, str]] = None

    def __post_init__(self):
        if not self.database:
            raise SchemaError("sql-rows descriptor requires a database name")
        if not self.tables:
            raise SchemaError("sql-rows descriptor requires at least one table")
        if not self.keys and self.key_range is None:
            raise SchemaError("sql-rows descriptor requires keys or a key range")

    def row_count_hint(self) -> Optional[int]:
        """Number of addressed rows when enumerable (explicit key list)."""
        if self.keys:
            return len(self.keys) * len(self.tables)
        return None

    def overlaps(self, other: "SQLRowsDescriptor") -> bool:
        """Conservative row-overlap test used by fine-grained lineage."""
        if self.database != other.database:
            return False
        if not set(self.tables) & set(other.tables):
            return False
        if self.keys and other.keys:
            return bool(set(self.keys) & set(other.keys))
        return True  # ranges or mixed: assume overlap conservatively


@dataclass(frozen=True)
class ObjectClosureDescriptor(Descriptor):
    """A closure of object references from a persistent object database."""

    KIND = "object-closure"
    store: str
    roots: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.store:
            raise SchemaError("object-closure descriptor requires a store name")
        if not self.roots:
            raise SchemaError("object-closure descriptor requires root object ids")


@dataclass(frozen=True)
class SpreadsheetDescriptor(Descriptor):
    """A set of cell-region references denoting a segment of a spreadsheet."""

    KIND = "spreadsheet"
    workbook: str
    regions: tuple[str, ...] = ()  # e.g. ("Sheet1!A1:C20",)

    def __post_init__(self):
        if not self.workbook:
            raise SchemaError("spreadsheet descriptor requires a workbook path")
        if not self.regions:
            raise SchemaError("spreadsheet descriptor requires at least one region")

    def files(self) -> tuple[str, ...]:
        return (self.workbook,)


@dataclass(frozen=True)
class VirtualDescriptor(Descriptor):
    """Descriptor for data that does not (yet) exist physically.

    A dataset carrying this descriptor is *virtual*: it is defined only
    by the derivation that can produce it.  ``size_hint`` lets producers
    declare an expected size for planning and estimation.
    """

    KIND = "virtual"
    size_hint: Optional[int] = None

    def nominal_size(self) -> Optional[int]:
        return self.size_hint


_DESCRIPTOR_CLASSES: dict[str, type] = {
    cls.KIND: cls
    for cls in (
        FileDescriptor,
        FilesetDescriptor,
        SliceDescriptor,
        ArchiveDescriptor,
        IndexedDescriptor,
        SQLRowsDescriptor,
        ObjectClosureDescriptor,
        SpreadsheetDescriptor,
        VirtualDescriptor,
    )
}


def descriptor_to_dict(descriptor: Descriptor) -> dict:
    """Serialize a descriptor to a plain dict with a ``kind`` tag."""
    out: dict = {"kind": descriptor.KIND}
    for key, value in vars(descriptor).items():
        if isinstance(value, tuple):
            items = [
                dict(vars(item)) if isinstance(item, FileSlice) else item
                for item in value
            ]
            out[key] = items
        else:
            out[key] = value
    return out


def descriptor_from_dict(data: dict) -> Descriptor:
    """Rebuild a descriptor from :func:`descriptor_to_dict` output."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _DESCRIPTOR_CLASSES.get(kind)
    if cls is None:
        raise SchemaError(f"unknown descriptor kind {kind!r}")
    if cls is SliceDescriptor:
        data["slices"] = tuple(FileSlice(**s) for s in data.get("slices", []))
    else:
        for key, value in list(data.items()):
            if isinstance(value, list):
                data[key] = tuple(value)
    if "key_range" in data and isinstance(data["key_range"], (list, tuple)):
        data["key_range"] = tuple(data["key_range"])
    return cls(**data)
