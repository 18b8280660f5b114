"""Integration: iterating over changeable analysis codes (§6).

"...iterate in an unstructured manner over a small number of
changeable analysis codes..."  The catalog must keep every version of
an analysis transformation, track which version produced which data,
and let compatibility assertions decide what survives a code change.
"""

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.executor.local import LocalExecutor


@pytest.fixture
def lab(tmp_path):
    catalog = MemoryCatalog()
    catalog.define(
        """
        TR analyze@1.0( output o, input i ) {
          argument stdin = ${input:i};
          argument stdout = ${output:o};
          exec = "py:analyze-v1";
        }
        TR analyze@1.1( output o, input i ) {
          argument stdin = ${input:i};
          argument stdout = ${output:o};
          exec = "py:analyze-v2";
        }
        DV run.a->analyze( o=@{output:"result.a"}, i=@{input:"events"} );
        """
    )
    executor = LocalExecutor(catalog, tmp_path)
    executor.register("py:analyze-v1", lambda ctx: ctx.write_output(
        "o", "v1:" + ctx.read_input("i").decode()))
    executor.register("py:analyze-v2", lambda ctx: ctx.write_output(
        "o", "v2:" + ctx.read_input("i").decode()))
    executor.path_for("events").write_text("data")
    return catalog, executor


class TestVersionIteration:
    def test_both_versions_kept(self, lab):
        catalog, _ = lab
        assert catalog.get_transformation("analyze", "1.0").executable == "py:analyze-v1"
        assert catalog.get_transformation("analyze", "1.1").executable == "py:analyze-v2"

    def test_latest_version_wins_by_default(self, lab):
        catalog, executor = lab
        executor.materialize("result.a")
        assert executor.path_for("result.a").read_text() == "v2:data"

    def test_versions_registered_in_registry(self, lab):
        catalog, _ = lab
        assert [str(v) for v in catalog.versions.versions("analyze")] == [
            "1.0", "1.1",
        ]

    def test_invalidating_one_version_only(self, lab):
        """A bug found in v1.1 must not taint v1.0 products... at
        name granularity both versions share the transformation name,
        so the conservative blast radius includes both — the version
        filter is then applied via invocation records."""
        from repro.provenance.graph import DerivationGraph
        from repro.provenance.invalidation import invalidated_by

        catalog, executor = lab
        executor.materialize("result.a")
        graph = DerivationGraph.from_catalog(catalog)
        blast = invalidated_by(graph, bad_transformations=["analyze"])
        assert "result.a" in blast.tainted_datasets
        # The invocation record pins which executable actually ran,
        # letting an auditor exonerate runs of the other version.
        inv = catalog.invocations_of("run.a")[0]
        assert inv.succeeded
