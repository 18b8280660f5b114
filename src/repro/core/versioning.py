"""Structured versioning of transformations and compatibility assertions.

The paper lists this as "an important issue not yet addressed in our
design": "It is important that we be able not only to track precisely
what version of a transformation was executed to derive a given
dataset, but also to express 'equivalence' among different versions."
(§3.2)  This module implements that future-work item.

A :class:`Version` is a dotted numeric tuple with ordering.  A
:class:`VersionRegistry` records, per transformation name, the known
versions and a set of *compatibility assertions* — signed statements by
some authority that version B is equivalent to version A for a class of
uses.  Equivalence is reflexive and transitive within an assertion
class; :meth:`VersionRegistry.equivalent` answers whether two versions
may be substituted for one another, which the planner uses to decide
whether existing derived data can satisfy a request against a newer
transformation version.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.errors import SchemaError

_VERSION_RE = re.compile(r"^\d+(\.\d+)*$")


@dataclass(frozen=True, order=False)
class Version:
    """A dotted numeric version with component-wise ordering."""

    parts: tuple[int, ...]

    @classmethod
    def parse(cls, text: str) -> "Version":
        if not _VERSION_RE.match(text):
            raise SchemaError(f"invalid version string {text!r}")
        return cls(tuple(int(p) for p in text.split(".")))

    def _key(self) -> tuple[int, ...]:
        # Normalize trailing zeros so 1.0 == 1 == 1.0.0.
        parts = list(self.parts)
        while len(parts) > 1 and parts[-1] == 0:
            parts.pop()
        return tuple(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __lt__(self, other: "Version") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Version") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Version") -> bool:
        return other < self

    def __ge__(self, other: "Version") -> bool:
        return self == other or other < self

    def __str__(self) -> str:
        return ".".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class CompatibilityAssertion:
    """An authority's claim that two versions are interchangeable.

    ``scope`` qualifies the claim: ``"exact"`` asserts bitwise-identical
    outputs; ``"semantic"`` asserts equivalent meaning (the paper's
    "equivalent in their behavior and semantics for a certain class of
    transformations"); any other string names a community-defined
    equivalence class.
    """

    transformation: str
    version_a: Version
    version_b: Version
    scope: str = "semantic"
    authority: Optional[str] = None

    def covers(self, a: Version, b: Version) -> bool:
        return {a, b} == {self.version_a, self.version_b}


class VersionRegistry:
    """Known versions and compatibility assertions per transformation."""

    def __init__(self):
        self._versions: dict[str, set[Version]] = {}
        self._assertions: dict[str, list[CompatibilityAssertion]] = {}
        #: Assertions recorded so far.  Whatever memoizes an
        #: :meth:`equivalent` answer compares this to notice new ones.
        self.assertion_count = 0

    def register(self, transformation: str, version: str | Version) -> Version:
        """Record a version of ``transformation``; returns it parsed."""
        v = version if isinstance(version, Version) else Version.parse(version)
        self._versions.setdefault(transformation, set()).add(v)
        return v

    def versions(self, transformation: str) -> list[Version]:
        """All known versions, oldest first."""
        return sorted(self._versions.get(transformation, ()))

    def latest(self, transformation: str) -> Optional[Version]:
        vs = self._versions.get(transformation)
        return max(vs) if vs else None

    def assert_compatible(
        self,
        transformation: str,
        version_a: str | Version,
        version_b: str | Version,
        scope: str = "semantic",
        authority: Optional[str] = None,
    ) -> CompatibilityAssertion:
        """Record (and return) a compatibility assertion between versions."""
        a = self.register(transformation, version_a)
        b = self.register(transformation, version_b)
        assertion = CompatibilityAssertion(
            transformation=transformation,
            version_a=a,
            version_b=b,
            scope=scope,
            authority=authority,
        )
        self._assertions.setdefault(transformation, []).append(assertion)
        self.assertion_count += 1
        return assertion

    def assertions(self, transformation: str) -> list[CompatibilityAssertion]:
        return list(self._assertions.get(transformation, ()))

    def equivalent(
        self,
        transformation: str,
        version_a: str | Version,
        version_b: str | Version,
        scope: str = "semantic",
    ) -> bool:
        """Whether two versions are interchangeable under ``scope``.

        Equivalence is the reflexive-transitive closure of the recorded
        assertions whose scope matches.  ``"exact"`` assertions also
        satisfy ``"semantic"`` queries (bitwise-identical implies
        semantically equivalent), but not vice versa.
        """
        a = version_a if isinstance(version_a, Version) else Version.parse(version_a)
        b = version_b if isinstance(version_b, Version) else Version.parse(version_b)
        if a == b:
            return True
        acceptable = {scope}
        if scope == "semantic":
            acceptable.add("exact")
        # Union-find over the assertion graph restricted to `acceptable`.
        frontier = {a}
        seen = {a}
        while frontier:
            current = frontier.pop()
            for assertion in self._assertions.get(transformation, ()):
                if assertion.scope not in acceptable:
                    continue
                other: Optional[Version] = None
                if assertion.version_a == current:
                    other = assertion.version_b
                elif assertion.version_b == current:
                    other = assertion.version_a
                if other is None or other in seen:
                    continue
                if other == b:
                    return True
                seen.add(other)
                frontier.add(other)
        return False

    def equivalence_class(
        self, transformation: str, version: str | Version, scope: str = "semantic"
    ) -> list[Version]:
        """All versions interchangeable with ``version`` under ``scope``."""
        v = version if isinstance(version, Version) else Version.parse(version)
        return sorted(
            candidate
            for candidate in self._versions.get(transformation, {v}) | {v}
            if self.equivalent(transformation, v, candidate, scope=scope)
        )
