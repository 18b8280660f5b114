"""Invocations: records of actual derivation executions.

"An invocation specializes a derivation by specifying a specific
environment and context (e.g., date, time, processor, OS) in which its
associated derivation was executed.  Specific replicas of datasets can
be associated with a particular invocation for tracking and diagnostic
purposes." (§3)

Invocation records double as the estimator's training data: resource
requirements recorded with provenance information "can be used to guide
subsequent planning decisions" (§2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.attributes import AttributeSet
from repro.core.naming import check_object_name
from repro.errors import SchemaError

_last_invocation_ordinal = 0
# The parallel executor records invocations from pool threads; without
# the lock two threads could be issued the same ordinal.
_invocation_id_lock = threading.Lock()


def _next_invocation_id() -> str:
    global _last_invocation_ordinal
    with _invocation_id_lock:
        _last_invocation_ordinal += 1
        return f"inv-{_last_invocation_ordinal:08d}"


def observe_invocation_id(invocation_id: str) -> None:
    # Advance the allocator past IDs loaded from persistent catalogs so
    # a process reopening a populated workspace never re-issues one.
    global _last_invocation_ordinal
    if invocation_id.startswith("inv-"):
        try:
            ordinal = int(invocation_id[4:])
        except ValueError:
            return
        with _invocation_id_lock:
            if ordinal > _last_invocation_ordinal:
                _last_invocation_ordinal = ordinal


#: Terminal states an invocation may end in.
STATUSES = ("success", "failure", "aborted")


@dataclass(frozen=True)
class ExecutionContext:
    """Where and under what environment a derivation ran."""

    site: str = "local"
    host: str = "localhost"
    os: str = "linux"
    processor: str = "x86_64"
    environment: tuple[tuple[str, str], ...] = ()

    @classmethod
    def make(cls, site="local", host="localhost", os="linux",
             processor="x86_64", environment: Optional[dict[str, str]] = None):
        """Build a context from a plain environment dict."""
        env = tuple(sorted((environment or {}).items()))
        return cls(site=site, host=host, os=os, processor=processor,
                   environment=env)

    def environment_dict(self) -> dict[str, str]:
        return dict(self.environment)


@dataclass(frozen=True)
class ResourceUsage:
    """Measured resource consumption of one execution."""

    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    peak_memory: int = 0

    def __post_init__(self):
        for name in ("cpu_seconds", "wall_seconds"):
            if getattr(self, name) < 0:
                raise SchemaError(f"{name} must be non-negative")
        for name in ("bytes_read", "bytes_written", "peak_memory"):
            if getattr(self, name) < 0:
                raise SchemaError(f"{name} must be non-negative")


@dataclass
class Invocation:
    """One recorded execution of a derivation.

    ``replica_bindings`` maps formal argument names to the replica ids
    actually read or written, pinning provenance to physical copies.
    ``start_time`` is in the executing clock's domain (simulation time
    for grid runs, epoch seconds for local runs).
    """

    derivation_name: str
    invocation_id: str = field(default_factory=_next_invocation_id)
    status: str = "success"
    start_time: float = 0.0
    context: ExecutionContext = field(default_factory=ExecutionContext)
    usage: ResourceUsage = field(default_factory=ResourceUsage)
    replica_bindings: dict[str, str] = field(default_factory=dict)
    exit_code: int = 0
    error: Optional[str] = None
    attributes: AttributeSet = field(default_factory=AttributeSet)

    def __post_init__(self):
        check_object_name(self.derivation_name)
        if self.status not in STATUSES:
            raise SchemaError(
                f"invalid invocation status {self.status!r}; "
                f"expected one of {STATUSES}"
            )
        if isinstance(self.attributes, dict):
            self.attributes = AttributeSet(self.attributes)
        observe_invocation_id(self.invocation_id)

    def copy(self) -> "Invocation":
        """An independent, unvalidated copy sharing the frozen context
        and usage (see :meth:`repro.core.dataset.Dataset.copy`)."""
        clone = object.__new__(type(self))
        clone.derivation_name = self.derivation_name
        clone.invocation_id = self.invocation_id
        clone.status = self.status
        clone.start_time = self.start_time
        clone.context = self.context
        clone.usage = self.usage
        clone.replica_bindings = dict(self.replica_bindings)
        clone.exit_code = self.exit_code
        clone.error = self.error
        clone.attributes = self.attributes.copy()
        return clone

    @property
    def succeeded(self) -> bool:
        return self.status == "success"

    @property
    def end_time(self) -> float:
        return self.start_time + self.usage.wall_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "invocation_id": self.invocation_id,
            "derivation_name": self.derivation_name,
            "status": self.status,
            "start_time": self.start_time,
            "context": {
                "site": self.context.site,
                "host": self.context.host,
                "os": self.context.os,
                "processor": self.context.processor,
                "environment": self.context.environment_dict(),
            },
            "usage": {
                "cpu_seconds": self.usage.cpu_seconds,
                "wall_seconds": self.usage.wall_seconds,
                "bytes_read": self.usage.bytes_read,
                "bytes_written": self.usage.bytes_written,
                "peak_memory": self.usage.peak_memory,
            },
            "replica_bindings": dict(self.replica_bindings),
            "exit_code": self.exit_code,
            "error": self.error,
            "attributes": self.attributes.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Invocation":
        ctx = data.get("context", {})
        usage = data.get("usage", {})
        return cls(
            derivation_name=data["derivation_name"],
            invocation_id=data.get("invocation_id") or _next_invocation_id(),
            status=data.get("status", "success"),
            start_time=data.get("start_time", 0.0),
            context=ExecutionContext.make(
                site=ctx.get("site", "local"),
                host=ctx.get("host", "localhost"),
                os=ctx.get("os", "linux"),
                processor=ctx.get("processor", "x86_64"),
                environment=ctx.get("environment") or {},
            ),
            usage=ResourceUsage(
                cpu_seconds=usage.get("cpu_seconds", 0.0),
                wall_seconds=usage.get("wall_seconds", 0.0),
                bytes_read=usage.get("bytes_read", 0),
                bytes_written=usage.get("bytes_written", 0),
                peak_memory=usage.get("peak_memory", 0),
            ),
            replica_bindings=dict(data.get("replica_bindings", {})),
            exit_code=data.get("exit_code", 0),
            error=data.get("error"),
            attributes=AttributeSet(data.get("attributes") or {}),
        )

    def __str__(self) -> str:
        return (
            f"Invocation({self.invocation_id} of {self.derivation_name}: "
            f"{self.status} at {self.context.site} in "
            f"{self.usage.wall_seconds:.1f}s)"
        )
