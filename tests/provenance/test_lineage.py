"""Tests for lineage reports (audit trails)."""


from repro.core.invocation import Invocation, ResourceUsage
from repro.provenance.lineage import lineage_report


class TestLineageReport:
    def test_source_dataset(self, diamond_catalog):
        report = lineage_report(diamond_catalog, "unknown.raw")
        assert report.is_source
        assert report.depth() == 0
        assert report.all_source_datasets() == {"unknown.raw"}
        assert "[source]" in report.render()

    def test_full_trail(self, diamond_catalog):
        report = lineage_report(diamond_catalog, "final")
        assert report.depth() == 3
        assert report.all_derivations() == {"g1", "g2", "s1", "s2", "a1"}
        # gens have no dataset inputs, so the raw datasets are not
        # sources (they are produced); the trail bottoms out at gens.
        assert report.all_source_datasets() == set()

    def test_parameters_surface(self, diamond_catalog):
        report = lineage_report(diamond_catalog, "raw1")
        assert report.steps[0].parameters() == {"seed": "42"}
        assert "seed='42'" in report.render()

    def test_transformation_version_reported(self, diamond_catalog):
        report = lineage_report(diamond_catalog, "final")
        assert report.steps[0].transformation_version == "1.0"

    def test_invocations_included(self, diamond_catalog):
        diamond_catalog.add_invocation(
            Invocation(
                derivation_name="a1",
                usage=ResourceUsage(cpu_seconds=12.0, wall_seconds=15.0),
            )
        )
        report = lineage_report(diamond_catalog, "final")
        assert len(report.steps[0].invocations) == 1
        assert report.total_cpu_seconds() == 12.0
        without = lineage_report(
            diamond_catalog, "final", include_invocations=False
        )
        assert without.steps[0].invocations == []

    def test_max_depth_truncation(self, diamond_catalog):
        report = lineage_report(diamond_catalog, "final", max_depth=1)
        assert report.depth() == 1
        inputs = report.steps[0].inputs
        assert all(r.is_source for r in inputs.values())

    def test_multiple_producers_reported(self, diamond_catalog):
        diamond_catalog.define(
            'DV a1b->ana( o=@{output:"final"}, a=@{input:"sim1"},'
            ' b=@{input:"sim2"} );',
        )
        report = lineage_report(diamond_catalog, "final")
        assert {s.derivation.name for s in report.steps} == {"a1", "a1b"}

    def test_cycle_guard(self, catalog):
        catalog.define(
            """
            TR t( output o, input i ) {
              argument stdin = ${input:i};
              argument stdout = ${output:o};
              exec = "/b";
            }
            DV d1->t( o=@{output:"b"}, i=@{input:"a"} );
            DV d2->t( o=@{output:"a"}, i=@{input:"b"} );
            """
        )
        report = lineage_report(catalog, "a")  # must terminate
        assert report.steps

    def test_render_shape(self, diamond_catalog):
        text = lineage_report(diamond_catalog, "final").render()
        assert text.splitlines()[0] == "final"
        assert "<- a1 -> ana" in text
        assert "raw2" in text


CHAIN_TRS = """
TR step( output o, input i, none level="0" ) {
  argument = "-l "${none:level};
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/step";
}
TR merge( output o, input a, input b ) {
  argument = ${input:a}" "${input:b};
  argument stdout = ${output:o};
  exec = "/bin/merge";
}
"""

#: ``render()`` of ``top`` over a 5-deep chain, as the recursive
#: implementation printed it.
FIVE_DEEP = """\
top
  <- m -> merge (v1.0)
      d2
        <- s2 -> step (v1.0)
           params: level='2'
            d1
              <- s1 -> step (v1.0)
                 params: level='1'
                  d0  [source]
      d5
        <- s5 -> step (v1.0)
           params: level='5'
            d4
              <- s4 -> step (v1.0)
                 params: level='4'
                  d3
                    <- s3 -> step (v1.0), 1 run(s)
                       params: level='3'
                        d2
                          <- s2 -> step (v1.0)
                             params: level='2'
                              d1
                                <- s1 -> step (v1.0)
                                   params: level='1'
                                    d0  [source]"""

FIVE_DEEP_CUT_AT_3 = """\
  top
    <- m -> merge (v1.0)
        d2
          <- s2 -> step (v1.0)
             params: level='2'
              d1
                <- s1 -> step (v1.0)
                   params: level='1'
                    d0  [source]
        d5
          <- s5 -> step (v1.0)
             params: level='5'
              d4
                <- s4 -> step (v1.0)
                   params: level='4'
                    d3  [source]"""


def define_chain(catalog, depth):
    """d0 -> s1 -> d1 -> ... -> s<depth> -> d<depth>"""
    catalog.define(CHAIN_TRS)
    catalog.define(
        "\n".join(
            f'DV s{k}->step( o=@{{output:"d{k}"}}, '
            f'i=@{{input:"d{k - 1}"}}, level="{k}" );'
            for k in range(1, depth + 1)
        )
    )


class TestDeepChains:
    def test_five_deep_renders_as_before(self, catalog):
        define_chain(catalog, 5)
        catalog.define(
            'DV m->merge( o=@{output:"top"}, a=@{input:"d5"},'
            ' b=@{input:"d2"} );'
        )
        catalog.add_invocation(
            Invocation(derivation_name="s3", status="success")
        )
        assert lineage_report(catalog, "top").render() == FIVE_DEEP
        cut = lineage_report(catalog, "top", max_depth=3)
        assert cut.render(indent=1) == FIVE_DEEP_CUT_AT_3

    def test_three_thousand_deep(self, catalog):
        depth = 3000  # three times the interpreter's recursion limit
        define_chain(catalog, depth)
        report = lineage_report(catalog, f"d{depth}")
        assert report.all_derivations() == {
            f"s{k}" for k in range(1, depth + 1)
        }
        assert report.all_source_datasets() == {"d0"}
        lines = report.render().splitlines()
        assert len(lines) == 3 * depth + 1
        assert lines[0] == f"d{depth}"
        assert lines[-1] == "  " * (3 * depth) + "d0  [source]"

    def test_depth_and_cpu_three_thousand_deep(self, catalog):
        depth = 3000
        define_chain(catalog, depth)
        cpu = {k: 0.1 * (k % 7 + 1) for k in range(1, depth + 1)}
        for k, seconds in cpu.items():
            catalog.add_invocation(
                Invocation(
                    derivation_name=f"s{k}",
                    status="success",
                    usage=ResourceUsage(cpu_seconds=seconds),
                )
            )
        report = lineage_report(catalog, f"d{depth}")
        assert report.depth() == depth
        # Each report sums its own step first, then its inputs' totals.
        expected = 0.0
        for k in range(1, depth + 1):
            expected = 0.0 + cpu[k] + expected
        assert report.total_cpu_seconds() == expected

    def test_cycle_reports_the_repeat_as_a_source(self, catalog):
        catalog.define(CHAIN_TRS)
        catalog.define(
            'DV f->step( o=@{output:"b"}, i=@{input:"a"} );\n'
            'DV g->step( o=@{output:"a"}, i=@{input:"b"} );\n'
            'DV h->merge( o=@{output:"c"}, a=@{input:"a"}, b=@{input:"a2"} );\n'
            'DV k->step( o=@{output:"a2"}, i=@{input:"a"} );'
        )
        report = lineage_report(catalog, "c")
        # The guard is per path: ``a`` is expanded under ``c`` and again
        # under ``a2``, and closes its own cycle as a source both times.
        (h,) = report.steps
        for a in (h.inputs["a"], h.inputs["a2"].steps[0].inputs["a"]):
            (g,) = a.steps
            (f,) = g.inputs["b"].steps
            assert f.inputs["a"].is_source
