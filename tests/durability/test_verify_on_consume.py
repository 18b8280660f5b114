"""Integration tests: checksum verification on replica consumption.

A corrupt sandbox file must never satisfy reuse — the executor
quarantines it, drops its records, invalidates downstream provenance,
and the next materialize transparently re-derives from the recipe.
"""

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.executor.local import LocalExecutor
from repro.observability.instrument import Instrumentation

PIPELINE = """
TR make( output o ) {
  argument stdout = ${output:o};
  exec = "py:make";
}
TR copy( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "py:copy";
}
DV mk->make( o=@{output:"base.txt"} );
DV cp->copy( o=@{output:"derived.txt"}, i=@{input:"base.txt"} );
"""


@pytest.fixture
def executor(tmp_path):
    catalog = MemoryCatalog().define(PIPELINE)
    ex = LocalExecutor(
        catalog,
        tmp_path / "sandbox",
        quarantine_dir=tmp_path / "quarantine",
        instrumentation=Instrumentation(),
    )
    ex.register("py:make", lambda ctx: ctx.write_output("o", "base-bytes"))
    ex.register(
        "py:copy",
        lambda ctx: ctx.write_output("o", ctx.read_input("i").upper()),
    )
    return ex


class TestHasValidReplica:
    def test_clean_file_verifies(self, executor):
        executor.materialize("base.txt")
        assert executor.has_valid_replica("base.txt")

    def test_missing_file_fails(self, executor):
        assert not executor.has_valid_replica("base.txt")

    def test_one_stat_answers_a_verified_file(self, executor, syscalls):
        executor.materialize("base.txt")
        assert executor.has_valid_replica("base.txt")  # verified, cached
        syscalls.clear()
        assert executor.has_valid_replica("base.txt")
        assert not executor.has_valid_replica("derived.txt")
        assert dict(syscalls) == {"stat": 2}  # one each: present, absent

    def test_unrecorded_file_verifies_trivially(self, executor):
        # A user-staged source has no replica record to check against.
        executor.path_for("staged.dat").write_bytes(b"hand-made")
        assert executor.has_valid_replica("staged.dat")

    def test_tampered_file_quarantined(self, executor):
        executor.materialize("base.txt")
        path = executor.path_for("base.txt")
        path.write_bytes(b"fake-bytes")  # same size, different content

        assert not executor.has_valid_replica("base.txt")
        assert not path.exists()
        assert executor.catalog.replicas_of("base.txt") == []
        assert executor.catalog.get_dataset("base.txt").is_virtual
        quarantined = list(executor.quarantine_dir.iterdir())
        assert any(p.name.startswith("base.txt") for p in quarantined)

    def test_quarantine_reads_the_live_graph(self, executor, derivation_scans):
        """The blast radius comes from the catalog's own graph, not
        from a rescan of every stored derivation."""
        executor.materialize("derived.txt")
        executor.path_for("base.txt").write_bytes(b"fake-bytes")
        scans = derivation_scans(executor.catalog)
        assert not executor.has_valid_replica("base.txt")
        assert executor.catalog.replicas_of("derived.txt") == []  # tainted
        assert scans == []

    def test_checksum_failure_counted(self, executor):
        executor.materialize("base.txt")
        executor.path_for("base.txt").write_bytes(b"fake-bytes")
        executor.has_valid_replica("base.txt")
        metrics = executor.obs.metrics.to_dict()
        assert any("durability.checksum.failures" in k for k in metrics)

    def test_verification_cache_skips_rehash(self, executor, monkeypatch):
        executor.materialize("base.txt")
        assert executor.has_valid_replica("base.txt")
        # Second consult must be served from the (size, mtime) stamp.
        import repro.executor.local as local_mod

        def explode(*a, **k):
            raise AssertionError("digest recomputed despite clean stamp")

        monkeypatch.setattr(local_mod, "verify_file", explode)
        assert executor.has_valid_replica("base.txt")


class TestRederivation:
    def test_corrupt_upstream_rederived_downstream_rebuilt(self, executor):
        executor.materialize("derived.txt")
        # Corrupt the upstream output after the fact.  The intact
        # downstream copy keeps satisfying reuse until the corrupt
        # replica is actually consumed — then the quarantine taints
        # the whole blast radius.
        executor.path_for("base.txt").write_bytes(b"fake-bytes")
        assert executor.materialize("derived.txt") == []  # no consumption
        assert not executor.has_valid_replica("base.txt")  # consume: boom

        invocations = executor.materialize("derived.txt")
        # The quarantine invalidated both datasets, so both re-derive.
        assert {i.derivation_name for i in invocations} == {"mk", "cp"}
        assert (
            executor.path_for("derived.txt").read_bytes() == b"BASE-BYTES"
        )
        assert executor.has_valid_replica("base.txt")
        assert executor.has_valid_replica("derived.txt")

    def test_clean_rematerialize_still_reuses(self, executor):
        executor.materialize("derived.txt")
        again = executor.materialize("derived.txt")
        assert again == []  # nothing to re-run; reuse hit
