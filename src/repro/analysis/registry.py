"""The lint rules by name, and which of them a run leaves out.

A :class:`Rule` is the stable metadata of one family of checks: a
short kebab-case name and the ``VDGxxx`` codes it may emit.  The
checks themselves run per node (:mod:`repro.analysis.rules`); a rule
only names them.  :class:`RuleRegistry` holds an ordered set of rules
and supports suppression by rule name *or* diagnostic code, so CI can
say ``--no-rule VDG402`` or ``--no-rule dead-code`` and mean the same
thing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class Rule:
    """One family of checks, by name and codes."""

    name: str
    codes: tuple[str, ...]

    def matches(self, token: str) -> bool:
        """Whether a suppression token (rule name or code) targets us."""
        return token == self.name or token.upper() in self.codes


class RuleRegistry:
    """Ordered, suppressible collection of lint rules."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None) -> None:
        self._rules: list[Rule] = []
        self._disabled: set[str] = set()
        for r in rules or ():
            self.register(r)

    def register(self, rule: Rule) -> Rule:
        if any(existing.name == rule.name for existing in self._rules):
            raise ValueError(f"duplicate rule name {rule.name!r}")
        self._rules.append(rule)
        return rule

    def disable(self, *tokens: str) -> None:
        """Suppress rules by name (``output-race``) or code (``VDG201``)."""
        self._disabled.update(tokens)

    def disabled_codes(self) -> set[str]:
        """Every code a run drops: each disabled rule's, and codes
        named on their own (front-end ones like ``VDG010`` included)."""
        codes = {t.upper() for t in self._disabled if t.upper().startswith("VDG")}
        for r in self._rules:
            if any(r.matches(t) for t in self._disabled):
                codes.update(r.codes)
        return codes

    def rule(self, name: str) -> Rule:
        for r in self._rules:
            if r.name == name:
                return r
        raise KeyError(name)


#: The built-in rules, in documentation order (``docs/LINTING.md``
#: describes each code).
RULES = (
    Rule("duplicate-transformation", ("VDG001",)),
    Rule("unknown-transformation", ("VDG002",)),
    Rule(
        "signature-conformance",
        ("VDG101", "VDG102", "VDG103", "VDG104", "VDG105", "VDG106"),
    ),
    Rule("output-race", ("VDG201", "VDG202", "VDG203")),
    Rule("derivation-cycle", ("VDG301",)),
    Rule("dead-code", ("VDG401", "VDG402", "VDG403", "VDG404")),
    Rule("versioning", ("VDG501", "VDG502")),
)


def default_rules() -> RuleRegistry:
    """A fresh registry holding every built-in rule."""
    return RuleRegistry(RULES)
