"""Rescue-DAG recovery: resume a killed or failed workflow run.

Condor DAGMan's rescue-DAG mechanism (the §5.4 workflow manager this
repo models) writes a file naming every node that already completed,
so a crashed campaign restarts by re-executing only the remainder.
This module is that mechanism for :class:`~repro.planner.dag.Plan`
runs:

* :func:`rescue_from_result` distils a (partial or failed)
  :class:`~repro.planner.scheduler.WorkflowResult` into a
  :class:`RescueFile` — completed steps with their chosen site and
  checksummed outputs, failed steps with their errors, and steps
  skipped as ``upstream-failed``;
* :func:`apply_rescue` replays a rescue file against a (possibly
  fresh) grid before re-execution: recorded outputs are re-registered
  with the replica location service, every replica is re-verified
  against its recorded size/digest, and corrupt copies are
  **quarantined** — deleted from site storage, unregistered, their
  catalog replicas removed and their provenance blast radius computed
  via :func:`repro.provenance.invalidation.invalidated_by` — so the
  producing step simply re-executes.

The file is JSON so operators can inspect and hand-edit it, exactly
like a DAGMan rescue file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.durability.atomic import atomic_write_text
from repro.errors import RescueError
from repro.observability.instrument import NULL, Instrumentation

if TYPE_CHECKING:  # import cycle guards: scheduler imports nothing from here
    from repro.catalog.base import VirtualDataCatalog
    from repro.grid.gram import GridExecutionService
    from repro.planner.dag import Plan
    from repro.planner.scheduler import WorkflowResult

#: Version 2 is line-oriented (header line + one line per step entry)
#: so a file torn by a crash still yields its valid prefix, exactly
#: like flight records; version-1 single-document files still load.
RESCUE_VERSION = 2


def expected_digest(lfn: str, size: int) -> str:
    """The simulated content digest of an honestly produced replica.

    The simulator has no real bytes, so the "checksum" of a correct
    copy is a stable function of (LFN, size); corrupted stage-outs
    record a different digest, which is what verification catches —
    the moral equivalent of GridFTP checksum validation.
    """
    return "sha256:" + sha256(f"{lfn}:{size}".encode()).hexdigest()[:16]


def plan_signature(plan: "Plan") -> str:
    """A stable fingerprint of a plan's structure (steps + edges).

    Resuming against a differently shaped plan would silently skip the
    wrong work, so :func:`apply_rescue` refuses on mismatch.
    """
    payload = {
        "targets": sorted(plan.targets),
        "steps": sorted(plan.steps),
        "deps": {
            name: sorted(deps) for name, deps in sorted(plan.dependencies.items())
        },
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return sha256(blob).hexdigest()[:24]


@dataclass
class RescueStep:
    """One completed step as recorded in a rescue file."""

    step: str
    site: str
    attempts: int
    #: output LFN -> {"size": int, "digest": str}
    outputs: dict[str, dict] = field(default_factory=dict)


@dataclass
class RescueFile:
    """The on-disk record of one (partial) workflow run."""

    targets: tuple[str, ...]
    signature: str
    completed: dict[str, RescueStep] = field(default_factory=dict)
    #: failed step -> {"site": ..., "attempts": ..., "error": ...}
    failed: dict[str, dict] = field(default_factory=dict)
    #: skipped step -> reason (e.g. "upstream-failed:stepX")
    skipped: dict[str, str] = field(default_factory=dict)
    finished: bool = False
    version: int = RESCUE_VERSION
    #: Set by :meth:`load` when the file ended in a torn line (crash
    #: mid-append): the valid prefix was salvaged.  ``save`` rewrites
    #: the file whole, clearing the tear.
    truncated: bool = False

    @property
    def unfinished(self) -> bool:
        return not self.finished

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "targets": list(self.targets),
            "signature": self.signature,
            "finished": self.finished,
            "completed": {
                name: {
                    "site": s.site,
                    "attempts": s.attempts,
                    "outputs": s.outputs,
                }
                for name, s in sorted(self.completed.items())
            },
            "failed": dict(sorted(self.failed.items())),
            "skipped": dict(sorted(self.skipped.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RescueFile":
        try:
            version = int(data.get("version", RESCUE_VERSION))
            if version > RESCUE_VERSION:
                raise RescueError(
                    f"rescue file version {version} is newer than "
                    f"supported ({RESCUE_VERSION})"
                )
            return cls(
                targets=tuple(data["targets"]),
                signature=str(data["signature"]),
                completed={
                    name: RescueStep(
                        step=name,
                        site=entry["site"],
                        attempts=int(entry.get("attempts", 1)),
                        outputs=dict(entry.get("outputs", {})),
                    )
                    for name, entry in data.get("completed", {}).items()
                },
                failed=dict(data.get("failed", {})),
                skipped=dict(data.get("skipped", {})),
                finished=bool(data.get("finished", False)),
                version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RescueError(f"malformed rescue file: {exc}") from exc

    def save(self, path: str | Path) -> None:
        """Write the v2 line-oriented form, atomically.

        A header line carries the identity fields; each completed,
        failed and skipped step gets its own line.  The temp-file +
        rename dance means a crash during save leaves either the old
        file or the new one — never a half-written hybrid — and a
        crash tearing a line (e.g. on a dying disk) still costs only
        that line on load.
        """
        lines = [
            json.dumps(
                {
                    "kind": "rescue",
                    "version": RESCUE_VERSION,
                    "targets": list(self.targets),
                    "signature": self.signature,
                    "finished": self.finished,
                },
                sort_keys=True,
            )
        ]
        for name, entry in sorted(self.completed.items()):
            lines.append(
                json.dumps(
                    {
                        "kind": "completed",
                        "step": name,
                        "site": entry.site,
                        "attempts": entry.attempts,
                        "outputs": entry.outputs,
                    },
                    sort_keys=True,
                )
            )
        for name, info in sorted(self.failed.items()):
            lines.append(
                json.dumps(
                    {"kind": "failed", "step": name, **info}, sort_keys=True
                )
            )
        for name, reason in sorted(self.skipped.items()):
            lines.append(
                json.dumps(
                    {"kind": "skipped", "step": name, "reason": reason},
                    sort_keys=True,
                )
            )
        atomic_write_text(Path(path), "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RescueFile":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise RescueError(
                f"cannot read rescue file {str(path)!r}: {exc}"
            ) from exc
        try:
            # Version-1 rescue files are one (pretty-printed) document.
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError:
            pass
        return cls._load_lines(text, path)

    @classmethod
    def _load_lines(cls, text: str, path: str | Path) -> "RescueFile":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise RescueError(f"rescue file {str(path)!r} is empty")
        records: list[dict] = []
        truncated = False
        for i, raw in enumerate(lines):
            try:
                records.append(json.loads(raw))
            except json.JSONDecodeError as exc:
                if i == len(lines) - 1:
                    # Torn final line: salvage the valid prefix.
                    truncated = True
                    break
                raise RescueError(
                    f"cannot read rescue file {str(path)!r}: "
                    f"unparseable line {i + 1}"
                ) from exc
        header = records[0] if records else None
        if not isinstance(header, dict) or header.get("kind") != "rescue":
            raise RescueError(
                f"cannot read rescue file {str(path)!r}: not a rescue "
                "header"
            )
        version = int(header.get("version", RESCUE_VERSION))
        if version > RESCUE_VERSION:
            raise RescueError(
                f"rescue file version {version} is newer than "
                f"supported ({RESCUE_VERSION})"
            )
        try:
            rescue = cls(
                targets=tuple(header["targets"]),
                signature=str(header["signature"]),
                finished=bool(header.get("finished", False)),
                version=version,
                truncated=truncated,
            )
            for record in records[1:]:
                kind = record.get("kind")
                name = record["step"]
                if kind == "completed":
                    rescue.completed[name] = RescueStep(
                        step=name,
                        site=record["site"],
                        attempts=int(record.get("attempts", 1)),
                        outputs=dict(record.get("outputs", {})),
                    )
                elif kind == "failed":
                    rescue.failed[name] = {
                        key: value
                        for key, value in record.items()
                        if key not in ("kind", "step")
                    }
                elif kind == "skipped":
                    rescue.skipped[name] = str(record.get("reason", ""))
                else:
                    raise RescueError(
                        f"unknown rescue entry kind {kind!r}"
                    )
        except (KeyError, TypeError, ValueError) as exc:
            raise RescueError(f"malformed rescue file: {exc}") from exc
        return rescue


def rescue_from_result(
    result: "WorkflowResult", plan: Optional["Plan"] = None
) -> RescueFile:
    """Distil a run summary into a rescue file."""
    plan = plan or result.plan
    rescue = RescueFile(
        targets=tuple(plan.targets),
        signature=plan_signature(plan),
        finished=result.succeeded,
    )
    for name, outcome in result.outcomes.items():
        record = outcome.record
        if record.succeeded and name not in result.failed_steps:
            rescue.completed[name] = RescueStep(
                step=name,
                site=outcome.site,
                attempts=outcome.attempts,
                outputs={
                    lfn: {"size": size, "digest": expected_digest(lfn, size)}
                    for lfn, size in record.spec.outputs.items()
                },
            )
        else:
            rescue.failed[name] = {
                "site": outcome.site,
                "attempts": outcome.attempts,
                "error": record.error or record.status,
            }
    rescue.skipped = dict(result.skipped_steps)
    return rescue


@dataclass
class RescueRestore:
    """What :func:`apply_rescue` did to the grid before re-execution."""

    #: Steps that remain completed (skip re-execution).
    completed: set[str] = field(default_factory=set)
    #: Steps recorded complete whose outputs failed verification.
    invalidated_steps: set[str] = field(default_factory=set)
    #: (lfn, site) replicas re-registered from the rescue record.
    restored: list[tuple[str, str]] = field(default_factory=list)
    #: (lfn, site) replicas deleted as corrupt.
    quarantined: list[tuple[str, str]] = field(default_factory=list)
    #: Datasets whose provenance is tainted by quarantined replicas.
    tainted_datasets: set[str] = field(default_factory=set)


def apply_rescue(
    plan: "Plan",
    rescue: RescueFile,
    grid: "GridExecutionService",
    catalog: Optional["VirtualDataCatalog"] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> RescueRestore:
    """Trust-but-verify replay of a rescue file against ``grid``.

    Every completed step's outputs are checked: a replica already on
    the grid must match its recorded size/digest (corrupt copies are
    quarantined and the step re-executes); a replica missing from the
    grid — e.g. when resuming in a fresh process — is restored from
    the rescue record, modelling data that survived the crash on the
    site's disks.
    """
    obs = instrumentation or NULL
    signature = plan_signature(plan)
    if rescue.signature != signature:
        raise RescueError(
            f"rescue file does not match this plan (rescue signature "
            f"{rescue.signature}, plan signature {signature}); the "
            f"workflow definition changed since the rescue was written"
        )
    restore = RescueRestore()
    now = grid.simulator.now
    for name, entry in sorted(rescue.completed.items()):
        if name not in plan.steps:
            continue
        step_ok = True
        for lfn, meta in sorted(entry.outputs.items()):
            size = int(meta["size"])
            digest = str(meta.get("digest") or expected_digest(lfn, size))
            site = grid.sites.get(entry.site)
            if site is None:
                step_ok = False
                continue
            if grid.replicas.has(lfn, entry.site) and site.storage.holds(lfn):
                stored = site.storage.file(lfn)
                if stored.size == size and (
                    stored.digest is None or stored.digest == digest
                ):
                    continue  # verified in place
                _quarantine(lfn, entry.site, grid, catalog, restore, obs)
                step_ok = False
            elif grid.replicas.has(lfn):
                continue  # a copy survives elsewhere on the grid
            else:
                # Fresh world: the bytes survived on the site's disk
                # even though this process has no memory of them.
                site.storage.store(lfn, size, now, digest=digest)
                grid.replicas.register(lfn, entry.site, size)
                restore.restored.append((lfn, entry.site))
                if obs.enabled:
                    obs.count(
                        "rescue.replicas.restored",
                        help="replicas re-registered from rescue files",
                    )
        if step_ok:
            restore.completed.add(name)
        else:
            restore.invalidated_steps.add(name)
    if obs.enabled:
        obs.count(
            "rescue.steps.resumed",
            len(restore.completed),
            help="steps skipped on resume thanks to a rescue file",
        )
    return restore


def _quarantine(
    lfn: str,
    site_name: str,
    grid: "GridExecutionService",
    catalog: Optional["VirtualDataCatalog"],
    restore: RescueRestore,
    obs: Instrumentation,
) -> None:
    """Remove one corrupt replica everywhere it is recorded."""
    site = grid.sites[site_name]
    if site.storage.holds(lfn):
        site.storage.delete(lfn)
    if grid.replicas.has(lfn, site_name):
        grid.replicas.unregister(lfn, site_name)
    restore.quarantined.append((lfn, site_name))
    if obs.enabled:
        obs.count(
            "rescue.replicas.quarantined",
            help="corrupt replicas deleted during rescue validation",
        )
    if catalog is None:
        return
    for replica in catalog.replicas_of(lfn):
        if replica.location == site_name:
            catalog.remove_replica(replica.replica_id)
    from repro.provenance.invalidation import invalidated_by

    report = invalidated_by(catalog.derivation_graph(), bad_datasets=[lfn])
    restore.tainted_datasets |= report.tainted_datasets | {lfn}
