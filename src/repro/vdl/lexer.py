"""Scanner for the Chimera Virtual Data Language (Appendix A).

One compiled master regex walks the source once and fills three
columns: token kinds, token values and start offsets.  No object is
built per token and no line or column is tracked per character: a
position is computed from an offset (:func:`position`, a bisection of
the line-start offsets) only where one is needed — an error message or
an AST ``line=`` field.  The lexical subtleties are:

* ``->`` (the derivation arrow) must win over ``-`` inside identifiers
  such as ``srch-muon``;
* identifiers may embed ``::`` (namespaces), ``.`` (dotted keys such as
  ``env.MAXMEM`` and ``hints.pfnHint``), ``@`` (versions) and ``-``,
  but never end in ``.`` or ``-``;
* ``${`` and ``@{`` open formal and actual dataset references;
* strings are double-quoted with backslash escapes.

No alternative can match the same text in two ways, so a failed
match gives a run back at most once and hostile input scans in
linear time.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import VDLSyntaxError

#: Token types.
TT_IDENT = "IDENT"
TT_STRING = "STRING"
TT_LPAREN = "LPAREN"
TT_RPAREN = "RPAREN"
TT_LBRACE = "LBRACE"
TT_RBRACE = "RBRACE"
TT_DOLLAR_LBRACE = "DOLLAR_LBRACE"  # ${
TT_AT_LBRACE = "AT_LBRACE"          # @{
TT_COMMA = "COMMA"
TT_SEMI = "SEMI"
TT_COLON = "COLON"
TT_EQUALS = "EQUALS"
TT_ARROW = "ARROW"                  # ->
TT_PIPE = "PIPE"                    # |
TT_SLASH = "SLASH"                  # /
TT_EOF = "EOF"

_PUNCTUATION = {
    "(": TT_LPAREN,
    ")": TT_RPAREN,
    "{": TT_LBRACE,
    "}": TT_RBRACE,
    "${": TT_DOLLAR_LBRACE,
    "@{": TT_AT_LBRACE,
    ",": TT_COMMA,
    ";": TT_SEMI,
    ":": TT_COLON,
    "=": TT_EQUALS,
    "->": TT_ARROW,
    "|": TT_PIPE,
    "/": TT_SLASH,
}

# Whitespace and comments match without a group and are dropped.
# Line comments use '#' only: '//' would be ambiguous with the '//'
# inside vdp:// references.  ':' is deliberately NOT an identifier
# character — namespace qualifiers (example1::t1) and direction
# prefixes (${input:a1}) are reassembled by the parser from COLON
# tokens.  The groups for '/*', '"' and any other character match
# only where a comment, a string or a token is broken.
_TOKEN = re.compile(
    r"""
      [ \t\r\n]+ | \#[^\n]* | /\*.*?\*/
    | ([A-Za-z0-9_][A-Za-z0-9_@+]*(?:[.-]+[A-Za-z0-9_@+]+)*)
    | "([^"\\\n]*(?:\\.[^"\\\n]*)*)"
    | (/\*)
    | (\$\{|@\{|->|[(){},;:=|/])
    | (") | (.)
    """,
    re.VERBOSE | re.DOTALL,
)
_IDENT, _STRING, _OPEN_COMMENT, _PUNCT, _OPEN_STRING, _STRAY = range(1, 7)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(match: re.Match) -> str:
    char = match[1]
    return _ESCAPES.get(char, char)


def scan(source: str) -> tuple[list[str], list[str], list[int]]:
    """Scan ``source`` into (kinds, values, start offsets).

    The columns end in one ``EOF`` entry at ``len(source)``.
    """
    kinds: list[str] = []
    values: list[str] = []
    starts: list[int] = []
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group is None:
            continue
        text = match[group]
        if group == _IDENT:
            kinds.append(TT_IDENT)
        elif group == _PUNCT:
            kinds.append(_PUNCTUATION[text])
        elif group == _STRING:
            kinds.append(TT_STRING)
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
        else:
            if group == _OPEN_COMMENT:
                message = "unterminated block comment"
            elif group == _OPEN_STRING:
                message = "unterminated string literal"
            else:
                message = f"unexpected character {text!r}"
            raise VDLSyntaxError(
                message, *position(line_starts(source), match.start())
            )
        values.append(text)
        starts.append(match.start())
    kinds.append(TT_EOF)
    values.append("")
    starts.append(len(source))
    return kinds, values, starts


def line_starts(source: str) -> list[int]:
    """The offset at which each line of ``source`` begins."""
    starts = [0]
    find = source.find
    at = find("\n")
    while at >= 0:
        starts.append(at + 1)
        at = find("\n", at + 1)
    return starts


def position(starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``offset``, given :func:`line_starts`."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


@dataclass(frozen=True)
class Token:
    """One lexical token with its 1-based source position."""

    type: str
    value: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.type}({self.value!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into a token list ending in an ``EOF`` token."""
    kinds, values, offsets = scan(source)
    starts = line_starts(source)
    return [
        Token(kind, value, *position(starts, offset))
        for kind, value, offset in zip(kinds, values, offsets)
    ]
