"""Attribute and annotation support shared by all schema objects.

For each object the virtual data model "specifies a set of required
attributes while also allowing for the definition of arbitrary
additional attributes used to capture application-specific information"
(§3).  :class:`AttributeSet` holds those arbitrary attributes;
:class:`Annotation` wraps one attribute value with authorship metadata
so communities can implement documentation and quality processes on top
(§2 "Documentation", §4.2 "Quality").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import SchemaError

#: Attribute values are restricted to JSON-ish scalars and flat lists so
#: that every backend (sqlite, filetree, XML) can store them faithfully.
SCALAR_TYPES = (str, int, float, bool)


def _check_value(value: Any) -> Any:
    if isinstance(value, SCALAR_TYPES):
        return value
    if isinstance(value, (list, tuple)):
        items = list(value)
        for item in items:
            if not isinstance(item, SCALAR_TYPES):
                raise SchemaError(
                    f"attribute list items must be scalars, got {type(item).__name__}"
                )
        return items
    raise SchemaError(
        f"attribute values must be scalars or flat lists, got {type(value).__name__}"
    )


@dataclass
class Annotation:
    """One user-supplied metadata assertion about a schema object.

    ``author`` identifies the principal who made the assertion and
    ``timestamp`` is an application-supplied logical or wall-clock time;
    both are optional, matching ad-hoc personal annotation as well as
    curated community process.
    """

    key: str
    value: Any
    author: Optional[str] = None
    timestamp: Optional[float] = None

    def __post_init__(self):
        if not self.key:
            raise SchemaError("annotation key must be non-empty")
        self.value = _check_value(self.value)


class AttributeSet:
    """A mapping of arbitrary named attributes with annotation history.

    Plain dict-style access reads and writes the *current* value of an
    attribute; the full history of :class:`Annotation` records is kept so
    provenance of metadata itself is never lost.
    """

    def __init__(self, initial: Optional[dict[str, Any]] = None):
        self._history: dict[str, list[Annotation]] = {}
        if initial:
            for key, value in initial.items():
                self.set(key, value)

    # -- mutation ------------------------------------------------------

    def set(
        self,
        key: str,
        value: Any,
        author: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> Annotation:
        """Record a new value for ``key`` and return the annotation."""
        note = Annotation(key=key, value=value, author=author, timestamp=timestamp)
        self._history.setdefault(key, []).append(note)
        return note

    def remove(self, key: str) -> None:
        """Forget ``key`` entirely, including its history."""
        if key not in self._history:
            raise KeyError(key)
        del self._history[key]

    # -- access --------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Return the current value of ``key`` or ``default``."""
        notes = self._history.get(key)
        if not notes:
            return default
        return notes[-1].value

    def history(self, key: str) -> list[Annotation]:
        """Return all annotations ever recorded for ``key`` (oldest first)."""
        return list(self._history.get(key, []))

    def keys(self) -> list[str]:
        return sorted(self._history)

    def as_dict(self) -> dict[str, Any]:
        """Return a snapshot of current values, suitable for serialization.

        List values are copied: the snapshot shares nothing mutable
        with this set, so a catalog may keep it as the stored document.
        """
        return {
            key: list(value)
            if isinstance(value := notes[-1].value, list)
            else value
            for key, notes in self._history.items()
        }

    def matches(self, criteria: dict[str, Any]) -> bool:
        """Return whether every ``criteria`` item equals the current value."""
        return all(self.get(key) == value for key, value in criteria.items())

    # -- dunder --------------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        notes = self._history.get(key)
        if not notes:
            raise KeyError(key)
        return notes[-1].value

    def __setitem__(self, key: str, value: Any) -> None:
        self.set(key, value)

    def __contains__(self, key: str) -> bool:
        return key in self._history

    def __len__(self) -> int:
        return len(self._history)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._history))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"AttributeSet({self.as_dict()!r})"

    def copy(self) -> "AttributeSet":
        """Return a deep copy including annotation history."""
        clone = AttributeSet()
        for key, notes in self._history.items():
            clone._history[key] = [
                Annotation(n.key, n.value, n.author, n.timestamp) for n in notes
            ]
        return clone
