"""Hostile input to the VDL front end.

Random printable text and mutated valid programs either compile or
raise :class:`VDLSyntaxError` / :class:`VDLSemanticError` carrying a
line (and, for a syntax error, a column) inside the source — never any
other exception.  The fixed cases pin linear-time scanning on the
inputs a backtracking scanner chokes on; run with ``-s`` to see the
scan rate of each.
"""

from __future__ import annotations

import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import VDLSemanticError, VDLSyntaxError
from repro.vdl.semantics import compile_vdl

#: Every production of the grammar at least once.
PROGRAM = """
# a line comment
TR ns::extract@2.0( output img : Image-raw/Simple/Binary | Image-raw,
                    input raw, none tag="x\\"y",
                    inout work=@{inout:"tmp":""} ) {
  argument = "-i "${input:raw}" -t "${none:tag};
  argument stdout = ${output:img};
  env.MAXMEM = "100"${tag};
  profile hints.pfnHint = "/usr/bin/extract";
  exec = "/usr/bin/extract";
}
/* a block
   comment */
TR pipeline( input a, output b ) {
  ns::extract( raw=${input:a}, img=${output:b}, tag="p" );
  vdp://grid.example.org/ns::other( x=${a} );
}
DV run1.exp15->ns::extract( img=@{output:"run1.img"},
                            raw=@{input:"run1.raw"}, tag="t" );
DV d2->vdp://host/remote( a=@{input:"run1.img"} );
"""

PIECES = list("ab_09.-@+>$#{}()\"\\/*:;,=| \t\n^") + [
    "->", "${", "@{", "/*", "*/", "::", "vdp://", "DV ", "TR ",
    "input", "output", "inout", "none", "env.", '""', "é",
]


def assert_front_end_contract(source: str) -> None:
    """Compile, or fail with a VDL error positioned inside ``source``."""
    lines = source.split("\n")
    try:
        compile_vdl(source)
    except VDLSyntaxError as exc:
        assert 1 <= exc.line <= len(lines), (exc, source)
        assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, (exc, source)
    except VDLSemanticError as exc:
        # Semantic errors point at a declaration or statement line.
        assert 1 <= exc.line <= len(lines), (exc, source)


def test_the_seed_program_compiles():
    objects = compile_vdl(PROGRAM)
    assert len(objects.transformations) == 2
    assert len(objects.derivations) == 2


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126)
        | st.sampled_from("\n\t\r"),
        max_size=200,
    )
)
def test_random_printable_text(source):
    assert_front_end_contract(source)


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(PROGRAM)),
            st.sampled_from(["insert", "delete", "replace", "repeat"]),
            st.sampled_from(PIECES),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_mutated_programs(edits):
    source = PROGRAM
    for at, op, piece, width in edits:
        at = min(at, len(source))
        if op == "insert":
            source = source[:at] + piece + source[at:]
        elif op == "delete":
            source = source[:at] + source[at + width:]
        elif op == "replace":
            source = source[:at] + piece + source[at + len(piece):]
        else:
            source = source[:at] + source[at:at + width] * 2 + source[at + width:]
    assert_front_end_contract(source)


RUN = 10**5

#: (label, source, error message, line, column).  Each is one long run
#: a backtracking scanner would revisit once per character.
LONG_RUNS = [
    ("dots after a name", "DV a" + "." * RUN,
     "unexpected character '.'", 1, 5),
    ("dashes after a name", "DV a" + "-" * RUN,
     "unexpected character '-'", 1, 5),
    ("dots and dashes after a name", "DV a" + ".-" * (RUN // 2) + "->",
     "unexpected character '.'", 1, 5),
    ("unterminated string", 'DV a->b( x="' + "s" * RUN,
     "unterminated string literal", 1, 12),
    ("unterminated string of escapes", '"' + "\\q" * (RUN // 2),
     "unterminated string literal", 1, 1),
    ("unterminated block comment", "DV /*" + "*" * RUN,
     "unterminated block comment", 1, 4),
    ("${ openers", "TR t( input i ) { argument = " + "${" * (RUN // 10),
     "expected IDENT, got DOLLAR_LBRACE '${'", 1, 32),
]


@pytest.mark.parametrize(
    "label, source, message, line, column",
    LONG_RUNS,
    ids=[case[0] for case in LONG_RUNS],
)
def test_long_runs_scan_in_linear_time(label, source, message, line, column):
    start = time.perf_counter()
    with pytest.raises(VDLSyntaxError) as exc:
        compile_vdl(source)
    elapsed = time.perf_counter() - start
    assert (exc.value.bare_message, exc.value.line, exc.value.column) == (
        message, line, column,
    )
    print(
        f"\n{label}: {len(source):,} chars in {elapsed * 1e3:.1f} ms "
        f"({len(source) / elapsed / 1e6:.1f} M chars/s)"
    )
    # Linear scanning takes milliseconds; one quadratic pass over 10^5
    # characters takes minutes.
    assert elapsed < 2.0
