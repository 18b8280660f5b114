"""Golden tests: one minimal triggering program per diagnostic code.

Each snippet here also appears (in spirit) in ``docs/LINTING.md``; if a
rule's behavior changes, update both.
"""

import json

import pytest

from repro.analysis import (
    Linter,
    Severity,
    default_rules,
    render_json,
)
from repro.analysis.reporters import exit_code
from repro.core.versioning import VersionRegistry

SIMPLE_PAIR = """TR extract( input a, output b ) {
  exec = "/bin/extract";
  argument = ${input:a}" "${output:b};
}
TR analyze( input x, output y ) {
  exec = "/bin/analyze";
  argument = ${input:x}" "${output:y};
}
"""


def lint(source, **kwargs):
    return Linter(**kwargs).lint_source(source, file="p.vdl")


def codes(source, **kwargs):
    return [d.code for d in lint(source, **kwargs).diagnostics]


class TestFrontEndCodes:
    def test_vdg000_parse_error(self):
        result = lint("TR broken( input a {")
        (diag,) = result.diagnostics
        assert diag.code == "VDG000"
        assert diag.severity is Severity.ERROR
        assert diag.span.line == 1
        assert diag.span.column > 0

    def test_vdg010_semantic_error_has_line(self):
        source = (
            'TR t( input a ) {\n'
            '  exec = "/bin/t";\n'
            "  argument = ${input:nope};\n"
            "}\n"
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG010"]
        assert "undeclared formal" in diag.message
        assert diag.span.line == 3

    def test_vdg010_does_not_mask_other_declarations(self):
        # A broken TR must not stop the racy DVs from being checked.
        source = (
            SIMPLE_PAIR
            + 'TR broken( input a ) {\n  exec = "/t";\n'
            + "  argument = ${input:ghost};\n}\n"
            + 'DV d1->extract( a=@{input:"r"}, b=@{output:"o.dat"} );\n'
            + 'DV d2->analyze( x=@{input:"r"}, y=@{output:"o.dat"} );\n'
        )
        found = codes(source)
        assert "VDG010" in found
        assert "VDG201" in found


class TestSignatureCodes:
    def test_vdg001_duplicate_transformation(self):
        source = (
            'TR extract( input a, output b ) {\n  exec = "/e";\n'
            "  argument = ${input:a}${output:b};\n}\n"
            'TR extract( input a, output b ) {\n  exec = "/e2";\n'
            "  argument = ${input:a}${output:b};\n}\n"
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG001"]
        assert diag.span.line == 5

    def test_vdg002_unknown_dv_target(self):
        assert codes('DV d->ghost( a=@{input:"r.dat"} );') == [
            "VDG002",
            "VDG403",
        ]

    def test_vdg002_unknown_compound_callee(self):
        source = (
            "TR outer( input a ) {\n"
            "  ghost( x=${input:a} );\n"
            "}\n"
        )
        assert "VDG002" in codes(source)

    def test_vdg002_skips_remote_targets(self):
        source = 'DV d->vdp://other.org/tr( a=@{input:"r.dat"} );'
        assert "VDG002" not in codes(source)

    def test_vdg101_unknown_actual(self):
        source = SIMPLE_PAIR + (
            'DV d->extract( a=@{input:"r"}, b=@{output:"o"}, zz="1" );'
        )
        assert "VDG101" in codes(source)

    def test_vdg102_missing_required_actual(self):
        source = SIMPLE_PAIR + 'DV d->extract( a=@{input:"r"} );'
        assert "VDG102" in codes(source)

    def test_vdg102_defaulted_formal_not_required(self):
        source = (
            'TR t( input a, none tag="x" ) {\n'
            '  exec = "/t";\n'
            "  argument = ${input:a}${none:tag};\n"
            "}\n"
            'DV d->t( a=@{input:"r"} );\n'
        )
        assert "VDG102" not in codes(source)

    def test_vdg103_direction_mismatch(self):
        source = SIMPLE_PAIR + (
            'DV d->extract( a=@{output:"r"}, b=@{output:"o"} );'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG103"]
        assert "'input'" in diag.message and "'output'" in diag.message

    def test_vdg103_inout_formal_accepts_any_direction(self):
        source = (
            "TR t( inout d ) {\n"
            '  exec = "/t";\n'
            "  argument = ${inout:d};\n"
            "}\n"
            'DV d1->t( d=@{input:"a.dat"} );\n'
        )
        assert "VDG103" not in codes(source)

    def test_vdg104_string_for_dataset_formal(self):
        source = SIMPLE_PAIR + 'DV d->extract( a="oops", b=@{output:"o"} );'
        assert "VDG104" in codes(source)

    def test_vdg104_dataset_for_string_formal(self):
        source = (
            'TR t( none tag ) {\n  exec = "/t";\n'
            "  argument = ${none:tag};\n}\n"
            'DV d->t( tag=@{input:"r.dat"} );\n'
        )
        assert "VDG104" in codes(source)

    def test_vdg105_type_mismatch_across_derivations(self):
        source = (
            "TR make( output o : ROOT-IO-file ) {\n"
            '  exec = "/m";\n  argument = ${output:o};\n}\n'
            "TR need( input i : Spectrometry-raw ) {\n"
            '  exec = "/n";\n  argument = ${input:i};\n}\n'
            'DV p->make( o=@{output:"x.dat"} );\n'
            'DV c->need( i=@{input:"x.dat"} );\n'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG105"]
        assert "x.dat" in diag.message
        assert diag.span.line == 10

    def test_vdg105_silent_when_producer_untyped(self):
        source = SIMPLE_PAIR.replace(
            "input x", "input x : Spectrometry-raw"
        ) + (
            'DV p->extract( a=@{input:"r"}, b=@{output:"mid"} );\n'
            'DV c->analyze( x=@{input:"mid"}, y=@{output:"out"} );\n'
        )
        assert "VDG105" not in codes(source)

    def test_vdg106_unknown_type_name(self):
        source = (
            "TR t( input a : NoSuchType ) {\n"
            '  exec = "/t";\n  argument = ${input:a};\n}\n'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG106"]
        assert "NoSuchType" in diag.message
        # The plain VDG010 for the same failure must be deduplicated.
        assert "VDG010" not in [d.code for d in result.diagnostics]


class TestRaceCodes:
    def test_vdg201_two_pure_outputs(self):
        source = SIMPLE_PAIR + (
            'DV d1->extract( a=@{input:"r"}, b=@{output:"o.dat"} );\n'
            'DV d2->analyze( x=@{input:"r"}, y=@{output:"o.dat"} );\n'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG201"]
        assert diag.severity is Severity.ERROR
        assert "o.dat" in diag.message

    def test_vdg201_single_producer_is_fine(self):
        source = SIMPLE_PAIR + (
            'DV d1->extract( a=@{input:"r"}, b=@{output:"mid"} );\n'
            'DV d2->analyze( x=@{input:"mid"}, y=@{output:"out"} );\n'
        )
        assert "VDG201" not in codes(source)

    def test_vdg202_compound_calls_write_same_sink(self):
        source = (
            "TR step( input i, output o ) {\n"
            '  exec = "/s";\n  argument = ${input:i}${output:o};\n}\n'
            "TR outer( input raw, output final ) {\n"
            "  step( i=${input:raw}, o=${output:final} );\n"
            "  step( i=${input:raw}, o=${output:final} );\n"
            "}\n"
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG202"]
        assert "final" in diag.message

    def test_vdg203_inout_aliases_other_use(self):
        source = (
            "TR upd( inout d ) {\n"
            '  exec = "/u";\n  argument = ${inout:d};\n}\n'
            + SIMPLE_PAIR
            + 'DV d1->upd( d=@{inout:"shared"} );\n'
            'DV d2->extract( a=@{input:"shared"}, b=@{output:"o"} );\n'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG203"]
        assert diag.severity is Severity.WARNING

    def test_vdg203_lone_inout_is_fine(self):
        source = (
            "TR upd( inout d ) {\n"
            '  exec = "/u";\n  argument = ${inout:d};\n}\n'
            'DV d1->upd( d=@{inout:"mine"} );\n'
        )
        assert "VDG203" not in codes(source)


class TestCycleCode:
    def test_vdg301_two_dv_cycle(self):
        source = SIMPLE_PAIR + (
            'DV d1->extract( a=@{input:"b.dat"}, b=@{output:"a.dat"} );\n'
            'DV d2->analyze( x=@{input:"a.dat"}, y=@{output:"b.dat"} );\n'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG301"]
        assert "d1" in diag.message and "d2" in diag.message

    def test_vdg301_self_cycle(self):
        source = SIMPLE_PAIR + (
            'DV d1->extract( a=@{input:"x.dat"}, b=@{output:"x.dat"} );\n'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG301"]
        assert "depends on itself" in diag.message

    def test_vdg301_acyclic_chain_is_fine(self):
        source = SIMPLE_PAIR + (
            'DV d1->extract( a=@{input:"r"}, b=@{output:"mid"} );\n'
            'DV d2->analyze( x=@{input:"mid"}, y=@{output:"out"} );\n'
        )
        assert "VDG301" not in codes(source)


class TestDeadCodeCodes:
    def test_vdg401_unused_string_formal(self):
        source = (
            'TR t( input a, none tag="x" ) {\n'
            '  exec = "/t";\n  argument = ${input:a};\n}\n'
            'DV d->t( a=@{input:"r"} );\n'
        )
        assert "VDG401" in codes(source)

    def test_vdg401_ignores_unreferenced_dataset_formals(self):
        # Dataset formals drive staging even when absent from templates.
        source = (
            "TR t( input a, input extra ) {\n"
            '  exec = "/t";\n  argument = ${input:a};\n}\n'
            'DV d->t( a=@{input:"r"}, extra=@{input:"s"} );\n'
        )
        assert "VDG401" not in codes(source)

    def test_vdg401_compound_flags_any_unbound_formal(self):
        source = (
            "TR step( input i ) {\n"
            '  exec = "/s";\n  argument = ${input:i};\n}\n'
            "TR outer( input used, input unused ) {\n"
            "  step( i=${input:used} );\n"
            "}\n"
            'DV d->outer( used=@{input:"r"}, unused=@{input:"s"} );\n'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG401"]
        assert "unused" in diag.message

    def test_vdg402_never_called(self):
        result = lint(SIMPLE_PAIR)
        found = [d for d in result.diagnostics if d.code == "VDG402"]
        assert {d.obj for d in found} == {"extract", "analyze"}

    def test_vdg402_compound_call_counts_as_use(self):
        source = (
            "TR step( input i ) {\n"
            '  exec = "/s";\n  argument = ${input:i};\n}\n'
            "TR outer( input a ) {\n"
            "  step( i=${input:a} );\n"
            "}\n"
            'DV d->outer( a=@{input:"r"} );\n'
        )
        assert "VDG402" not in codes(source)

    def test_vdg403_consumed_never_produced_is_info(self):
        source = SIMPLE_PAIR + (
            'DV d->extract( a=@{input:"raw"}, b=@{output:"o"} );'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG403"]
        assert diag.severity is Severity.INFO
        assert exit_code(result) != 1 or result.errors

    def test_vdg404_shadowed_dv_name(self):
        source = SIMPLE_PAIR + (
            'DV d->extract( a=@{input:"r"}, b=@{output:"o1"} );\n'
            'DV d->analyze( x=@{input:"o1"}, y=@{output:"o2"} );\n'
        )
        assert "VDG404" in codes(source)


class TestVersionCodes:
    def test_vdg501_invalid_tr_version(self):
        source = (
            "TR t@beta( input a ) {\n"
            '  exec = "/t";\n  argument = ${input:a};\n}\n'
        )
        assert "VDG501" in codes(source)

    def test_vdg502_unknown_requested_version(self):
        source = SIMPLE_PAIR + (
            'DV d->extract@9.9( a=@{input:"r"}, b=@{output:"o"} );'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG502"]
        assert diag.severity is Severity.WARNING
        assert "9.9" in diag.message

    def test_vdg502_matching_version_is_fine(self):
        source = SIMPLE_PAIR + (
            'DV d->extract@1.0( a=@{input:"r"}, b=@{output:"o"} );'
        )
        assert "VDG502" not in codes(source)

    def test_vdg502_suppressed_by_compatibility_assertion(self):
        versions = VersionRegistry()
        versions.assert_compatible("extract", "1.0", "9.9")
        source = SIMPLE_PAIR + (
            'DV d->extract@9.9( a=@{input:"r"}, b=@{output:"o"} );'
        )
        assert "VDG502" not in codes(source, versions=versions)

    def test_versioned_dv_target_is_vdg010_like_define(self):
        """``define`` rejects a versioned DV target, so lint must fail
        it too; the version rules still report on it as before."""
        source = SIMPLE_PAIR + (
            'DV d->extract@9.9( a=@{input:"r"}, b=@{output:"o"} );'
        )
        result = lint(source)
        (diag,) = [d for d in result.diagnostics if d.code == "VDG010"]
        assert diag.message == "invalid object name 'extract@9.9'"
        assert diag.span.line == 9
        assert diag.obj == "d"
        assert "VDG502" in codes(source)
        assert exit_code(result) == 1


class TestSuppression:
    RACY = SIMPLE_PAIR + (
        'DV d1->extract( a=@{input:"r"}, b=@{output:"o"} );\n'
        'DV d2->analyze( x=@{input:"r"}, y=@{output:"o"} );\n'
    )

    def test_disable_rule_by_name(self):
        registry = default_rules()
        registry.disable("output-race")
        assert "VDG201" not in codes(self.RACY, registry=registry)

    def test_disable_single_code(self):
        registry = default_rules()
        registry.disable("VDG201")
        found = codes(self.RACY, registry=registry)
        assert "VDG201" not in found
        assert "VDG403" in found  # sibling rules still run

    def test_registry_rejects_duplicate_names(self):
        registry = default_rules()
        with pytest.raises(ValueError, match="duplicate rule name"):
            registry.register(registry.rule("output-race"))


class TestAcceptanceScenario:
    """ISSUE acceptance: collision + cycle + type violation in one
    program reports three distinct codes with positions, exits non-zero,
    and the JSON output is machine-parseable."""

    SOURCE = (
        "TR make( output o : ROOT-IO-file ) {\n"       # 1
        '  exec = "/m";\n  argument = ${output:o};\n}\n'
        "TR need( input i : Spectrometry-raw, output o ) {\n"  # 5
        '  exec = "/n";\n  argument = ${input:i}${output:o};\n}\n'
        'DV p1->make( o=@{output:"x.dat"} );\n'        # 9
        'DV p2->make( o=@{output:"x.dat"} );\n'        # 10
        'DV c->need( i=@{input:"x.dat"}, o=@{output:"y.dat"} );\n'  # 11
        'DV loop1->need( i=@{input:"w1.dat"}, o=@{output:"w2.dat"} );\n'
        'DV loop2->need( i=@{input:"w2.dat"}, o=@{output:"w1.dat"} );\n'
    )

    def test_three_distinct_codes_with_positions(self):
        result = lint(self.SOURCE)
        found = {d.code for d in result.diagnostics}
        assert {"VDG201", "VDG301", "VDG105"} <= found
        by_code = {d.code: d for d in result.diagnostics}
        assert by_code["VDG201"].span.line == 10
        assert by_code["VDG105"].span.line == 11
        assert all(
            d.span.file == "p.vdl" and d.span.line > 0
            for d in result.diagnostics
        )

    def test_exit_code_is_nonzero(self):
        assert exit_code(lint(self.SOURCE)) == 1

    def test_json_output_parses(self):
        payload = json.loads(render_json(lint(self.SOURCE)))
        assert payload["exit_code"] == 1
        assert payload["summary"]["error"] >= 3
        codes_in_json = {d["code"] for d in payload["diagnostics"]}
        assert {"VDG201", "VDG301", "VDG105"} <= codes_in_json
