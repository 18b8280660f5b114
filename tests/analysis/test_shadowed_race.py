"""Pinned: the full lint of a program whose derivations share a name.

Two declarations of DV ``d`` race on ``y`` (VDG201 between them, and
VDG404 for the shadowing), and the name ``d`` closes a cycle with
``e``.  Race and shadowing are judged per declaration; the cycle is
judged per derivation *name*, anchored at the last declaration of each
name.  The rendered output below is the contract.
"""

from repro.analysis import Linter, render_json, render_text

SOURCE = (
    "TR extract( input a, output b ) {\n"  # 1
    '  exec = "/bin/extract";\n'
    '  argument = ${input:a}" "${output:b};\n'
    "}\n"
    'DV d->extract( a=@{input:"x"}, b=@{output:"y"} );\n'  # 5
    'DV e->extract( a=@{input:"y"}, b=@{output:"x"} );\n'  # 6
    'DV d->extract( a=@{input:"q"}, b=@{output:"y"} );\n'  # 7
)

RENDERED = """\
shadow.vdl:6: error[VDG301]: derivation cycle: d -> e -> d; no materialization order exists
shadow.vdl:7: error[VDG201]: dataset 'y' is produced by DV 'd' and by DV 'd' (line 5); materialization order would be nondeterministic
shadow.vdl:7: info[VDG403]: dataset 'q' is consumed (by DV 'd') but no derivation produces it and no replica is known
shadow.vdl:7: warning[VDG404]: DV 'd' shadows an earlier derivation of the same name (line 5)
shadow.vdl: 2 errors, 1 warning, 1 info"""


def test_shadowed_derivations_render_exactly():
    result = Linter().lint_source(SOURCE, file="shadow.vdl")
    assert render_text(result) == RENDERED
    assert [(d.code, d.obj, d.span.line, d.rule) for d in result.diagnostics] == [
        ("VDG301", "e", 6, "derivation-cycle"),
        ("VDG201", "y", 7, "output-race"),
        ("VDG403", "q", 7, "dead-code"),
        ("VDG404", "d", 7, "dead-code"),
    ]
    assert '"exit_code": 1' in render_json(result)
