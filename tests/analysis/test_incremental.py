"""The incremental analyzer: event intake, pass semantics, lifecycle."""

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.dataset import Dataset
from repro.core.derivation import DatasetArg, Derivation
from repro.core.naming import VDPRef
from repro.core.replica import Replica
from repro.core.types import DatasetType
from repro.executor.local import LocalExecutor
from repro.workloads import sdss

PIPELINE_VDL = """
TR gen( output o ) { argument stdout = ${output:o}; exec = "/bin/gen"; }
TR step( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/step";
}
DV g1->gen( o=@{output:"raw"} );
DV s1->step( o=@{output:"mid"}, i=@{input:"raw"} );
DV s2->step( o=@{output:"end"}, i=@{input:"mid"} );
"""


def put_replica(catalog, lfn, rid=None):
    replica = Replica(
        dataset_name=lfn, location="site-a", replica_id=rid or f"rep-{lfn}"
    )
    catalog.add_replica(replica)
    return replica.replica_id


class TestGraphLifecycle:
    def test_built_from_existing_catalog(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        stats = analyzer.stats()
        assert stats["derivations"] == 3
        assert stats["nodes"] == 6  # 3 dv + 3 ds
        assert analyzer.diagnostics() == []

    def test_live_analyzer_is_a_singleton(self):
        catalog = MemoryCatalog()
        assert catalog.live_analyzer() is catalog.live_analyzer()

    def test_derivation_events_update_graph(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        catalog.define('DV s3->step( o=@{output:"extra"}, i=@{input:"end"} );')
        assert analyzer.stats()["derivations"] == 4
        catalog.remove_derivation("s3")
        stats = analyzer.stats()
        assert stats["derivations"] == 3
        assert stats["nodes"] == 6  # dv:s3 and ds:extra both dropped

    def test_shared_dataset_node_survives_one_remover(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        catalog.define('DV s3->step( o=@{output:"alt"}, i=@{input:"mid"} );')
        catalog.remove_derivation("s3")
        # ds:mid is still referenced by s1/s2.
        assert analyzer.stats()["nodes"] == 6

    def test_import_snapshot_triggers_rebuild(self):
        source = MemoryCatalog().define(PIPELINE_VDL)
        catalog = MemoryCatalog()
        analyzer = catalog.live_analyzer()
        assert analyzer.stats()["nodes"] == 0
        catalog.import_snapshot(source.export_snapshot())
        assert analyzer.stats()["derivations"] == 3
        assert analyzer.diagnostics() == []

    def test_close_detaches_from_event_stream(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        before = analyzer.stats()["derivations"]
        analyzer.close()
        catalog.define('DV s3->step( o=@{output:"x"}, i=@{input:"end"} );')
        assert analyzer.stats()["derivations"] == before

    def test_unknown_pass_name_rejected(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        with pytest.raises(KeyError, match="unknown analysis pass"):
            catalog.live_analyzer().diagnostics(passes=["no-such-pass"])

    def test_solves_are_lazy_and_incremental(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        analyzer.diagnostics()
        first = analyzer.stats()["solves"]
        analyzer.diagnostics()  # nothing dirty: no new solves
        assert analyzer.stats()["solves"] == first
        put_replica(catalog, "end")
        analyzer.diagnostics(passes=["dead-data"])
        per_pass = analyzer.stats()["passes"]["dead-data"]
        assert per_pass["mode"] == "incremental"
        assert per_pass["seeds"] >= 1

    def test_stats_count_dirty_node_names(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        analyzer.diagnostics()
        for per_pass in analyzer.stats()["passes"].values():
            assert per_pass["dirty"] == 0
        put_replica(catalog, "mid")
        # The replica's dataset, its producer s1 and its consumer s2.
        for per_pass in analyzer.stats()["passes"].values():
            assert per_pass["dirty"] == 3
        analyzer.diagnostics()
        for per_pass in analyzer.stats()["passes"].values():
            assert per_pass["dirty"] == 0


class TestDeadDataPass:
    def test_unneeded_replica_flagged(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        put_replica(catalog, "mid")
        put_replica(catalog, "end")
        diags = analyzer.diagnostics(passes=["dead-data"])
        # "end" is materialized, so nothing downstream needs "mid".
        assert [d.obj for d in diags if d.code == "VDG611"] == ["mid"]

    def test_sink_replica_never_flagged(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        put_replica(catalog, "end")
        assert analyzer.diagnostics(passes=["dead-data"]) == []

    def test_new_consumer_revives_dead_replica(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        put_replica(catalog, "mid")
        put_replica(catalog, "end")
        assert analyzer.diagnostics(passes=["dead-data"])
        # A new un-materialized consumer of "mid" makes it live again.
        catalog.define('DV s3->step( o=@{output:"alt"}, i=@{input:"mid"} );')
        assert analyzer.diagnostics(passes=["dead-data"]) == []

    def test_replica_removal_clears_finding(self):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        rid = put_replica(catalog, "mid")
        put_replica(catalog, "end")
        assert analyzer.diagnostics(passes=["dead-data"])
        catalog.remove_replica(rid)
        assert analyzer.diagnostics(passes=["dead-data"]) == []

    def test_orphan_invocation_reported(self, tmp_path):
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        executor = LocalExecutor(catalog, tmp_path)
        for name in ("gen", "step"):
            executor.register(
                f"/bin/{name}", lambda ctx: ctx.write_output("o", "x")
            )
        executor.materialize("end")
        no_orphans = analyzer.diagnostics(passes=["dead-data"])
        assert not any(d.code == "VDG612" for d in no_orphans)
        catalog.remove_derivation("s2")
        diags = analyzer.diagnostics(passes=["dead-data"])
        orphans = [d for d in diags if d.code == "VDG612"]
        assert orphans and all("'s2'" in d.message for d in orphans)


class TestStalenessPass:
    def _materialized_sdss(self, tmp_path, fields=3):
        catalog = MemoryCatalog()
        campaign = sdss.define_campaign(
            catalog, fields=fields, fields_per_stripe=fields
        )
        executor = LocalExecutor(catalog, tmp_path)
        sdss.register_bodies(executor)
        sdss.materialize_fields(executor, campaign, galaxies=100)
        executor.materialize(campaign.targets[0])
        return catalog, campaign

    def test_fresh_campaign_is_clean(self, tmp_path):
        catalog, _ = self._materialized_sdss(tmp_path)
        analyzer = catalog.live_analyzer()
        assert analyzer.diagnostics(passes=["staleness"]) == []

    def test_version_bump_flags_exactly_downstream_replicas(self, tmp_path):
        """The PR's acceptance scenario: ``analyze --stale`` must flag
        the downstream replicas of a version-bumped transformation and
        nothing else."""
        catalog, _ = self._materialized_sdss(tmp_path)
        analyzer = catalog.live_analyzer()
        catalog.define(
            'TR sdss-brg@2.0( output brgs, input galaxies, '
            'none maglim="17.0" ) {\n'
            '  argument = "-maglim "${none:maglim};\n'
            "  argument stdin = ${input:galaxies};\n"
            "  argument stdout = ${output:brgs};\n"
            '  exec = "py:sdss-brg";\n'
            "}\n"
        )
        diags = analyzer.diagnostics(passes=["staleness"])
        flagged = {(d.code, d.obj) for d in diags}
        # Direct outputs of the bumped stage: stale at the root.
        assert ("VDG601", "field00000.brg") in flagged
        # Transitively derived replicas: stale via upstream inputs.
        assert ("VDG602", "field00000.cand") in flagged
        assert ("VDG602", "stripe000.catalog") in flagged
        # Upstream of the bump stays clean.
        upstream = {obj for _code, obj in flagged}
        assert not any(obj.endswith(".gal") for obj in upstream)
        assert not any(obj.endswith(".img") for obj in upstream)
        assert all(code != "VDG601" or obj.endswith(".brg")
                   for code, obj in flagged)

    def test_compatibility_assertion_silences_staleness(self, tmp_path):
        catalog, _ = self._materialized_sdss(tmp_path)
        analyzer = catalog.live_analyzer()
        catalog.define(
            "TR sdss-brg@2.0( output brgs, input galaxies, "
            'none maglim="17.5" ) {\n'
            "  argument stdin = ${input:galaxies};\n"
            "  argument stdout = ${output:brgs};\n"
            '  exec = "py:sdss-brg";\n'
            "}\n"
        )
        assert analyzer.diagnostics(passes=["staleness"])
        catalog.versions.assert_compatible(
            "sdss-brg", "1.0", "2.0", authority="survey-board"
        )
        # Compatibility lives outside the event stream; callers must
        # invalidate explicitly (repro analyze always starts fresh).
        analyzer.invalidate()
        assert analyzer.diagnostics(passes=["staleness"]) == []

    def test_rerun_after_bump_clears_staleness(self, tmp_path):
        catalog = MemoryCatalog()
        campaign = sdss.define_campaign(
            catalog, fields=2, fields_per_stripe=2
        )
        executor = LocalExecutor(catalog, tmp_path)
        sdss.register_bodies(executor)
        sdss.materialize_fields(executor, campaign, galaxies=100)
        executor.materialize(campaign.targets[0])
        analyzer = catalog.live_analyzer()
        catalog.define(
            "TR sdss-brg@2.0( output brgs, input galaxies, "
            'none maglim="17.0" ) {\n'
            '  argument = "-maglim "${none:maglim};\n'
            "  argument stdin = ${input:galaxies};\n"
            "  argument stdout = ${output:brgs};\n"
            '  exec = "py:sdss-brg";\n'
            "}\n"
        )
        assert analyzer.diagnostics(passes=["staleness"])
        # Re-executing with the new recipe refreshes the stamps.
        executor.materialize(campaign.targets[0], reuse="never")
        assert analyzer.diagnostics(passes=["staleness"]) == []


class TestTypeFlowPass:
    TYPED_VDL = """
TR consume( output o, input i : SDSS/Simple/ASCII ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/c";
}
TR wrap( output o, input x ) {
  consume( o=${output:o}, i=${input:x} );
}
DV w1->wrap( o=@{output:"res"}, x=@{input:"mydata"} );
"""

    def test_nonconforming_deep_type_flagged(self):
        catalog = MemoryCatalog().define(self.TYPED_VDL)
        analyzer = catalog.live_analyzer()
        catalog.add_dataset(
            Dataset(
                name="mydata",
                dataset_type=DatasetType(
                    content="Image-raw", format="Simple", encoding="Binary"
                ),
            ),
            replace=True,
        )
        diags = analyzer.diagnostics(passes=["type-flow"])
        assert [d.code for d in diags] == ["VDG621"]
        assert "consume.i" in diags[0].message

    def test_untyped_dataset_stays_silent(self):
        # May-analysis: no declared or inferred type means no finding.
        catalog = MemoryCatalog().define(self.TYPED_VDL)
        analyzer = catalog.live_analyzer()
        assert analyzer.diagnostics(passes=["type-flow"]) == []

    def test_retype_event_clears_finding(self):
        catalog = MemoryCatalog().define(self.TYPED_VDL)
        analyzer = catalog.live_analyzer()
        catalog.add_dataset(
            Dataset(
                name="mydata",
                dataset_type=DatasetType(
                    content="Image-raw", format="Simple", encoding="Binary"
                ),
            ),
            replace=True,
        )
        assert analyzer.diagnostics(passes=["type-flow"])
        catalog.add_dataset(
            Dataset(
                name="mydata",
                dataset_type=DatasetType(
                    content="SDSS", format="Simple", encoding="ASCII"
                ),
            ),
            replace=True,
        )
        assert analyzer.diagnostics(passes=["type-flow"]) == []


class TestOutputConflictPass:
    CONFLICT_VDL = """
TR emitx( output o ) { argument stdout = ${output:o}; exec = "/bin/e"; }
TR twice( output o ) {
  emitx( o=${output:o} );
  emitx( o=${output:o} );
}
TR hidden( output o ) {
  emitx( o=${output:o} );
  emitx( o="shared.tmp" );
}
"""

    def test_self_duplicate_through_compound(self):
        catalog = MemoryCatalog().define(
            self.CONFLICT_VDL + 'DV t1->twice( o=@{output:"dup.out"} );'
        )
        diags = catalog.live_analyzer().diagnostics(
            passes=["output-conflict"]
        )
        assert [d.code for d in diags] == ["VDG631"]
        assert "more than once" in diags[0].message

    def test_cross_writer_literal_conflict(self):
        catalog = MemoryCatalog().define(
            self.CONFLICT_VDL
            + 'DV h1->hidden( o=@{output:"h1.out"} );\n'
            + 'DV h2->hidden( o=@{output:"h2.out"} );'
        )
        diags = catalog.live_analyzer().diagnostics(
            passes=["output-conflict"]
        )
        assert len(diags) == 1  # each pair reported once
        assert "'h1' and 'h2'" in diags[0].message
        assert "shared.tmp" in diags[0].message

    def test_removing_one_writer_clears_conflict(self):
        catalog = MemoryCatalog().define(
            self.CONFLICT_VDL
            + 'DV h1->hidden( o=@{output:"h1.out"} );\n'
            + 'DV h2->hidden( o=@{output:"h2.out"} );'
        )
        analyzer = catalog.live_analyzer()
        assert analyzer.diagnostics(passes=["output-conflict"])
        catalog.remove_derivation("h1")
        assert analyzer.diagnostics(passes=["output-conflict"]) == []

    def test_surface_surface_left_to_vdg201(self):
        catalog = MemoryCatalog().define(
            self.CONFLICT_VDL
            + 'DV a->emitx( o=@{output:"same.out"} );\n'
            + 'DV b->emitx( o=@{output:"same.out"} );'
        )
        diags = catalog.live_analyzer().diagnostics(
            passes=["output-conflict"]
        )
        assert diags == []  # the static surface rule owns that pair


class TestLiveLint:
    """The lint checks kept live: nothing before the first lint, then
    only the changed region re-checked."""

    def test_nothing_kept_or_marked_before_the_first_lint(self):
        from repro.analysis import Linter

        catalog = MemoryCatalog().define(PIPELINE_VDL)
        analyzer = catalog.live_analyzer()
        catalog.define('DV s3->step( o=@{output:"x"}, i=@{input:"end"} );')
        put_replica(catalog, "mid")
        assert analyzer._lint is None
        for per_pass in analyzer.stats()["passes"].values():
            assert not per_pass["solved"] and per_pass["dirty"] == 0
        Linter().lint_catalog(catalog, incremental=True)
        catalog.remove_derivation("s3")
        assert any(analyzer._lint.nodes.dirty)

    def test_a_relint_rechecks_only_the_changed_region(self, monkeypatch):
        from repro.analysis import Linter
        from repro.analysis.incremental import LintPass

        checked = []
        for hook in ("report_dataset", "report_derivation"):
            check = getattr(LintPass, hook)

            def counted(self, name, *rest, check=check):
                checked.append(name)
                return check(self, name, *rest)

            monkeypatch.setattr(LintPass, hook, counted)
        catalog = MemoryCatalog().define(PIPELINE_VDL)
        lint = lambda: Linter().lint_catalog(catalog, incremental=True)
        lint()
        assert sorted(checked) == ["end", "g1", "mid", "raw", "s1", "s2"]
        checked.clear()
        lint()
        assert checked == []
        catalog.define('DV s3->step( o=@{output:"x"}, i=@{input:"end"} );')
        lint()
        # s3, the datasets it links, and their other writer s2.
        assert sorted(checked) == ["end", "s2", "s3", "x"]

    def test_new_writer_version_retypes_what_a_reader_sees(self):
        from repro.analysis import Linter
        from repro.analysis.incremental import IncrementalAnalyzer

        catalog = MemoryCatalog().define(
            'TR mk( output o ) { argument stdout = ${output:o}; exec = "/mk"; }\n'
            "TR use( input i : SDSS/Simple/ASCII, output o ) {\n"
            "  argument stdin = ${input:i};\n"
            "  argument stdout = ${output:o};\n"
            '  exec = "/use";\n'
            "}\n"
            'DV w->mk( o=@{output:"l"} );\n'
        )
        # Untyped ``l`` fails ``use``'s input type: only lint may see it.
        catalog.add_derivation(
            Derivation(
                name="x",
                transformation=VDPRef.parse("use", default_kind="transformation"),
                actuals={
                    "i": DatasetArg(dataset="l", direction="input"),
                    "o": DatasetArg(dataset="out", direction="output"),
                },
            ),
            validate=False,
        )
        lint = lambda: Linter().lint_catalog(catalog, incremental=True)
        assert "VDG105" not in [d.code for d in lint().diagnostics]
        catalog.define(
            "TR mk@2.0( output o : SDSS/Simple/Binary ) {\n"
            '  argument stdout = ${output:o}; exec = "/mk2";\n'
            "}\n"
        )
        (found,) = [d for d in lint().diagnostics if d.code == "VDG105"]
        assert found.obj == "x"
        fresh = IncrementalAnalyzer(catalog)
        try:
            assert [d.code for d in fresh.lint("<workspace>")] == [
                d.code for d in lint().diagnostics
            ]
        finally:
            fresh.close()
