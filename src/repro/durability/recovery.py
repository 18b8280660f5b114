"""``repro fsck``: reconcile catalog, files, journal, rescues, records.

After an arbitrary process kill, five stores can disagree about what
happened: the catalog's provenance record, the sandbox's materialized
files, the intent journal, the rescue files, and the flight records.
:class:`RecoveryManager` walks all five and reduces every disagreement
to a typed :class:`Finding` with a deterministic repair:

================================ ======== ===================================
kind                             severity repair
================================ ======== ===================================
``journal-corrupt``              error    quarantine the journal file
``torn-journal-tail``            error    truncate the torn final line
``uncommitted-txn``              error    roll back via each op's ``prev``
``phantom-replica``              error    drop the replica record
``corrupt-replica``              error    quarantine file, drop replica,
                                          invalidate downstream provenance
``half-committed-invocation``    error    drop the invocation record
``orphan-output``                error    quarantine the file (its producer
                                          re-runs with full provenance)
``orphan-file``                  warning  quarantine the file
``stale-dataset-state``          warning  reset the dataset to virtual
``torn-rescue-tail``             warning  rewrite the salvaged valid prefix
``corrupt-rescue-file``          warning  quarantine the rescue file
``stale-temporary``              info     delete the ``*.vdg-tmp`` file
``crashed-run-record``           info     none needed (readers tolerate it)
================================ ======== ===================================

Error-severity findings are *corruption*: ``materialize``/``run``
refuse to start (exit 2) while any remain unrepaired, because planning
against them either loses provenance (orphan outputs get reused with
no invocation behind them) or trusts records with no bytes behind them
(phantom replicas).  Warnings and infos never block.

Quarantined files move under ``<workspace>/quarantine/`` rather than
being deleted, so nothing fsck does is destructive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.descriptors import FileDescriptor
from repro.durability import journal as journal_mod
from repro.durability.atomic import TMP_MARKER
from repro.durability.checksum import DIGEST_PREFIX, file_digest
from repro.observability.instrument import NULL, Instrumentation

if TYPE_CHECKING:
    from repro.catalog.base import VirtualDataCatalog

#: Findings fsck can fix without `--repair` during a command preflight:
#: the journal repairs are safe (they only restore the pre-crash
#: commit frontier) and must run before anything appends to the file.
PREFLIGHT_AUTO_REPAIR = (
    "torn-journal-tail",
    "uncommitted-txn",
    "stale-temporary",
)

_SEVERITIES = ("error", "warning", "info")


def sandbox_filename(dataset_name: str) -> str:
    """The sandbox file name of a dataset (the executor's mapping)."""
    return dataset_name.replace("/", "_")


@dataclass
class Finding:
    """One inconsistency between the workspace's stores."""

    kind: str
    severity: str
    object: str
    detail: str
    #: Human description of the deterministic repair.
    repair: str = ""
    repaired: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "object": self.object,
            "detail": self.detail,
            "repair": self.repair,
            "repaired": self.repaired,
        }

    def render(self) -> str:
        mark = "fixed" if self.repaired else self.severity
        line = f"[{mark}] {self.kind}: {self.object} — {self.detail}"
        if self.repair and not self.repaired:
            line += f" (repair: {self.repair})"
        return line


@dataclass
class FsckReport:
    """Everything one fsck pass found (and possibly repaired)."""

    findings: list[Finding] = field(default_factory=list)
    checked_replicas: int = 0
    checked_files: int = 0
    checked_invocations: int = 0
    checksums_verified: bool = False

    def add(self, finding: Finding) -> Finding:
        self.findings.append(finding)
        return finding

    @property
    def clean(self) -> bool:
        return not self.findings

    def unrepaired(self, severity: str = "error") -> list[Finding]:
        """Findings at (or above) ``severity`` still needing repair."""
        rank = _SEVERITIES.index(severity)
        return [
            f
            for f in self.findings
            if not f.repaired and _SEVERITIES.index(f.severity) <= rank
        ]

    @property
    def corrupted(self) -> bool:
        """Unrepaired error-severity findings remain."""
        return bool(self.unrepaired("error"))

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.kind] = out.get(finding.kind, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "corrupted": self.corrupted,
            "checked": {
                "replicas": self.checked_replicas,
                "files": self.checked_files,
                "invocations": self.checked_invocations,
            },
            "checksums_verified": self.checksums_verified,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
        scope = "full" if self.checksums_verified else "structural"
        lines.append(
            f"fsck ({scope}): {self.checked_replicas} replicas, "
            f"{self.checked_files} files, "
            f"{self.checked_invocations} invocations checked; "
            f"{len(self.findings)} finding(s), "
            f"{sum(1 for f in self.findings if f.repaired)} repaired"
        )
        if self.corrupted:
            lines.append(
                "workspace is corrupted: run 'fsck --repair' "
                "(or pass --no-verify to proceed anyway)"
            )
        elif self.findings:
            lines.append("workspace is consistent (after repairs/warnings)")
        else:
            lines.append("workspace is clean")
        return "\n".join(lines)


class RecoveryManager:
    """Reconciles one workspace's stores; the engine behind fsck."""

    def __init__(
        self,
        catalog: "VirtualDataCatalog",
        sandbox_dir: Optional[str | Path] = None,
        journal_dir: Optional[str | Path] = None,
        rescue_dir: Optional[str | Path] = None,
        runs_dir: Optional[str | Path] = None,
        quarantine_dir: Optional[str | Path] = None,
        site_name: str = "local",
        instrumentation: Optional[Instrumentation] = None,
    ):
        self.catalog = catalog
        self.sandbox_dir = Path(sandbox_dir) if sandbox_dir else None
        self.journal_dir = Path(journal_dir) if journal_dir else None
        self.rescue_dir = Path(rescue_dir) if rescue_dir else None
        self.runs_dir = Path(runs_dir) if runs_dir else None
        self.quarantine_dir = (
            Path(quarantine_dir)
            if quarantine_dir
            else (self.sandbox_dir.parent / "quarantine"
                  if self.sandbox_dir else None)
        )
        self.site_name = site_name
        self.obs = instrumentation or NULL

    # -- entry points --------------------------------------------------------

    def fsck(
        self,
        checksums: bool = True,
        repair: bool = False,
        auto_repair: Iterable[str] = (),
    ) -> FsckReport:
        """One reconciliation pass over every store.

        ``checksums=False`` is the cheap structural mode (existence and
        sizes only) used by the ``materialize``/``run`` preflight.
        ``repair`` applies every finding's deterministic fix;
        ``auto_repair`` limits fixing to the named kinds (the preflight
        repairs journal findings only).
        """
        report = FsckReport(checksums_verified=checksums)
        auto = set(auto_repair)

        def fixing(kind: str) -> bool:
            return repair or kind in auto

        self._check_journal(report, fixing)
        self._check_temporaries(report, fixing)
        self._check_replicas(report, fixing, checksums)
        self._check_invocations(report, fixing)
        self._check_datasets_and_files(report, fixing)
        self._check_rescues(report, fixing)
        self._check_runs(report)
        if self.obs.enabled:
            for kind, count in sorted(report.counts().items()):
                self.obs.count(
                    "durability.fsck.findings",
                    count,
                    kind=kind,
                    help="fsck findings by kind",
                )
        return report

    def preflight(self) -> FsckReport:
        """The cheap startup check executing commands run first.

        Structural only (no content digests); journal findings are
        repaired in place — replaying or discarding the torn tail is
        exactly the "recover on startup" contract — everything else is
        reported for ``fsck --repair`` to handle.
        """
        return self.fsck(
            checksums=False, repair=False, auto_repair=PREFLIGHT_AUTO_REPAIR
        )

    # -- journal -------------------------------------------------------------

    def _check_journal(self, report: FsckReport, fixing) -> None:
        if self.journal_dir is None:
            return
        state = journal_mod.load_journal_state(self.journal_dir)
        journal_path = self.journal_dir / journal_mod.JOURNAL_FILENAME
        if state.corrupt:
            finding = report.add(
                Finding(
                    kind="journal-corrupt",
                    severity="error",
                    object=str(journal_path),
                    detail=state.corrupt,
                    repair="quarantine the journal file",
                )
            )
            if fixing(finding.kind):
                journal_mod.quarantine_journal(self.journal_dir)
                finding.repaired = True
            return
        if state.uncommitted:
            for txn in state.uncommitted:
                finding = report.add(
                    Finding(
                        kind="uncommitted-txn",
                        severity="error",
                        object=txn.txn_id,
                        detail=(
                            f"transaction {txn.label or txn.txn_id!r} has "
                            f"{len(txn.ops)} op(s) and no commit marker "
                            "(crash mid-commit)"
                        ),
                        repair="roll back each op to its prior payload",
                    )
                )
            if fixing("uncommitted-txn"):
                journal_mod.rollback_uncommitted(self.catalog, state)
                for finding in report.findings:
                    if finding.kind == "uncommitted-txn":
                        finding.repaired = True
        if state.torn_tail:
            finding = report.add(
                Finding(
                    kind="torn-journal-tail",
                    severity="error",
                    object=str(journal_path),
                    detail="final journal line is torn (crash mid-append)",
                    repair="truncate the torn line",
                )
            )
            if fixing(finding.kind):
                self._truncate_torn_tail(journal_path)
                finding.repaired = True
        # After a full rollback the journal records are history the
        # durable store no longer needs; checkpoint so the rolled-back
        # transactions are not re-reported on the next pass.
        if state.uncommitted and fixing("uncommitted-txn"):
            journal = journal_mod.IntentJournal(self.journal_dir)
            try:
                journal.checkpoint()
            finally:
                journal.close()

    @staticmethod
    def _truncate_torn_tail(path: Path) -> None:
        if not path.is_file():
            return
        raw = path.read_bytes()
        cut = raw.rfind(b"\n")
        with open(path, "r+b") as handle:
            handle.truncate(cut + 1 if cut >= 0 else 0)

    # -- stale atomic-write temporaries --------------------------------------

    def _check_temporaries(self, report: FsckReport, fixing) -> None:
        """Sandbox, rescue directory, and wherever the catalog backend
        keeps its documents (a put killed before its rename)."""
        for directory in (
            self.sandbox_dir,
            self.rescue_dir,
            *self.catalog.storage_directories(),
        ):
            if directory is None or not directory.is_dir():
                continue
            # By name first: the catalog's directories hold a file per
            # object, and only a temporary is worth a stat.
            for name in sorted(os.listdir(directory)):
                if TMP_MARKER not in name:
                    continue
                child = directory / name
                if not child.is_file():
                    continue
                finding = report.add(
                    Finding(
                        kind="stale-temporary",
                        severity="info",
                        object=str(child),
                        detail="in-flight atomic-write temporary "
                        "left by a crash",
                        repair="delete it",
                    )
                )
                if fixing(finding.kind):
                    child.unlink(missing_ok=True)
                    finding.repaired = True

    # -- replicas ------------------------------------------------------------

    def _local_path_of(self, replica) -> Optional[Path]:
        descriptor = replica.descriptor
        if isinstance(descriptor, FileDescriptor) and descriptor.path:
            return Path(descriptor.path)
        return None

    def _check_replicas(
        self, report: FsckReport, fixing, checksums: bool
    ) -> None:
        catalog = self.catalog
        for replica_id in catalog.replica_ids():
            replica = catalog.get_replica(replica_id)
            path = self._local_path_of(replica)
            if path is None:
                # Simulated-grid replica: no local bytes to check.
                continue
            report.checked_replicas += 1
            if not path.is_file():
                finding = report.add(
                    Finding(
                        kind="phantom-replica",
                        severity="error",
                        object=f"{replica_id} ({replica.dataset_name})",
                        detail=f"cataloged at {path}, but the file is gone",
                        repair="drop the replica record",
                    )
                )
                if fixing(finding.kind):
                    catalog.remove_replica(replica_id)
                    finding.repaired = True
                continue
            mismatch = None
            size = path.stat().st_size
            if replica.size is not None and size != replica.size:
                mismatch = f"size {size} != recorded {replica.size}"
            elif (
                checksums
                and replica.digest
                and not replica.digest.startswith(DIGEST_PREFIX)
                and file_digest(path) != replica.digest
            ):
                mismatch = "content digest mismatch"
            if mismatch:
                if self.obs.enabled:
                    self.obs.count(
                        "durability.checksum.failures",
                        help="replica checksum/size verification failures",
                    )
                finding = report.add(
                    Finding(
                        kind="corrupt-replica",
                        severity="error",
                        object=f"{replica_id} ({replica.dataset_name})",
                        detail=f"{path}: {mismatch}",
                        repair="quarantine the file, drop the replica, "
                        "invalidate downstream provenance",
                    )
                )
                if fixing(finding.kind):
                    self._quarantine_file(path)
                    catalog.remove_replica(replica_id)
                    tainted = self._invalidate(replica.dataset_name)
                    if tainted:
                        finding.detail += (
                            f"; tainted downstream: {', '.join(tainted)}"
                        )
                    finding.repaired = True

    def _invalidate(self, dataset_name: str) -> list[str]:
        """Blast radius of a corrupt dataset, via the provenance graph."""
        from repro.provenance.invalidation import invalidated_by

        invalidation = invalidated_by(
            self.catalog.derivation_graph(), bad_datasets=[dataset_name]
        )
        return sorted(invalidation.tainted_datasets)

    # -- invocations ---------------------------------------------------------

    def _check_invocations(self, report: FsckReport, fixing) -> None:
        catalog = self.catalog
        for invocation_id in catalog.invocation_ids():
            invocation = catalog.get_invocation(invocation_id)
            report.checked_invocations += 1
            missing = sorted(
                rid
                for rid in invocation.replica_bindings.values()
                if not self._has_replica(rid)
            )
            if not missing:
                continue
            finding = report.add(
                Finding(
                    kind="half-committed-invocation",
                    severity="error",
                    object=f"{invocation_id} ({invocation.derivation_name})",
                    detail=(
                        "invocation references missing replica(s) "
                        + ", ".join(missing)
                    ),
                    repair="drop the invocation record "
                    "(its step re-runs with full provenance)",
                )
            )
            if fixing(finding.kind):
                catalog.restore_payload("invocation", invocation_id, None)
                finding.repaired = True

    def _has_replica(self, replica_id: str) -> bool:
        from repro.errors import NotFoundError

        try:
            self.catalog.get_replica(replica_id)
            return True
        except NotFoundError:
            return False

    # -- datasets and sandbox files ------------------------------------------

    def _check_datasets_and_files(self, report: FsckReport, fixing) -> None:
        catalog = self.catalog
        by_filename: dict[str, str] = {}
        producers: dict[str, bool] = {}
        for name in catalog.dataset_names():
            by_filename[sandbox_filename(name)] = name
        # A dataset record claiming bytes that no longer exist (and no
        # replica backing it elsewhere) flips back to a recipe.
        for name in catalog.dataset_names():
            ds = catalog.get_dataset(name)
            producers[name] = bool(ds.producer)
            if ds.is_virtual:
                continue
            descriptor = ds.descriptor
            path = (
                Path(descriptor.path)
                if isinstance(descriptor, FileDescriptor) and descriptor.path
                else None
            )
            if path is None or path.is_file():
                continue
            if catalog.replicas_of(name):
                continue
            finding = report.add(
                Finding(
                    kind="stale-dataset-state",
                    severity="warning",
                    object=name,
                    detail=f"marked materialized at {path}, but no file "
                    "and no replicas back it",
                    repair="reset the dataset to virtual",
                )
            )
            if fixing(finding.kind):
                catalog.add_dataset(_revirtualized(ds), replace=True)
                finding.repaired = True
        if self.sandbox_dir is None or not self.sandbox_dir.is_dir():
            return
        for child in sorted(self.sandbox_dir.iterdir()):
            if not child.is_file() or TMP_MARKER in child.name:
                continue
            report.checked_files += 1
            dataset = by_filename.get(child.name)
            if dataset is None:
                finding = report.add(
                    Finding(
                        kind="orphan-file",
                        severity="warning",
                        object=str(child),
                        detail="file matches no cataloged dataset",
                        repair="quarantine the file",
                    )
                )
                if fixing(finding.kind):
                    self._quarantine_file(child)
                    finding.repaired = True
                continue
            if catalog.replicas_of(dataset):
                continue  # cataloged normally
            if not producers.get(dataset):
                continue  # a source the user staged in by hand
            # Derived output on disk with no replica record: a crash
            # between stage-out and the provenance commit.  Reusing it
            # would silently lose the invocation record, so it goes to
            # quarantine and the producer re-runs.
            finding = report.add(
                Finding(
                    kind="orphan-output",
                    severity="error",
                    object=str(child),
                    detail=f"uncataloged output of dataset {dataset!r} "
                    "(crash between stage-out and provenance commit)",
                    repair="quarantine the file so the producer re-runs",
                )
            )
            if fixing(finding.kind):
                self._quarantine_file(child)
                ds = catalog.get_dataset(dataset)
                if not ds.is_virtual:
                    catalog.add_dataset(_revirtualized(ds), replace=True)
                finding.repaired = True

    # -- rescue files --------------------------------------------------------

    def _check_rescues(self, report: FsckReport, fixing) -> None:
        if self.rescue_dir is None or not self.rescue_dir.is_dir():
            return
        from repro.errors import RescueError
        from repro.resilience.rescue import RescueFile

        for child in sorted(self.rescue_dir.iterdir()):
            if not child.is_file() or not child.name.endswith(".json"):
                continue
            try:
                rescue = RescueFile.load(child)
            except RescueError as exc:
                finding = report.add(
                    Finding(
                        kind="corrupt-rescue-file",
                        severity="warning",
                        object=str(child),
                        detail=str(exc),
                        repair="quarantine the rescue file",
                    )
                )
                if fixing(finding.kind):
                    self._quarantine_file(child)
                    finding.repaired = True
                continue
            if rescue.truncated:
                finding = report.add(
                    Finding(
                        kind="torn-rescue-tail",
                        severity="warning",
                        object=str(child),
                        detail="rescue file ended in a torn line; the "
                        "valid prefix was salvaged",
                        repair="rewrite the salvaged content atomically",
                    )
                )
                if fixing(finding.kind):
                    rescue.save(child)
                    finding.repaired = True

    # -- flight records ------------------------------------------------------

    def _check_runs(self, report: FsckReport) -> None:
        if self.runs_dir is None or not self.runs_dir.is_dir():
            return
        from repro.observability.recorder import RunRecord

        for child in sorted(self.runs_dir.iterdir()):
            record_path = child / "record.jsonl"
            if not record_path.is_file():
                continue
            try:
                record = RunRecord.load(record_path)
            except (ValueError, OSError):
                report.add(
                    Finding(
                        kind="crashed-run-record",
                        severity="info",
                        object=str(record_path),
                        detail="flight record unreadable",
                    )
                )
                continue
            if record.truncated or not record.finished:
                report.add(
                    Finding(
                        kind="crashed-run-record",
                        severity="info",
                        object=record.run_id,
                        detail="flight record has no result line "
                        "(the run crashed); readers tolerate this",
                    )
                )

    # -- quarantine ----------------------------------------------------------

    def _quarantine_file(self, path: Path) -> Path:
        """Move a suspect file aside; never deletes data."""
        target_dir = self.quarantine_dir or path.parent / "quarantine"
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        ordinal = 0
        while target.exists():
            ordinal += 1
            target = target_dir / f"{path.name}.{ordinal}"
        os.replace(path, target)
        return target


def _revirtualized(ds):
    """A copy of ``ds`` reset to a virtual (recipe-only) descriptor."""
    from repro.core.dataset import Dataset

    return Dataset(
        name=ds.name,
        dataset_type=ds.dataset_type,
        attributes=ds.attributes.copy(),
        producer=ds.producer,
    )
