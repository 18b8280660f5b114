"""Recursive-descent parser for the Virtual Data Language.

Grammar (Appendix A of the paper, with the type-expression extension)::

    program        := declaration*
    declaration    := tr_decl | dv_decl
    tr_decl        := "TR" qname "(" formal_list? ")" "{" body_stmt* "}"
    formal_list    := formal ("," formal)*
    formal         := direction IDENT (":" type_expr)? ("=" default)?
    direction      := "input" | "output" | "inout" | "none"
    type_expr      := type_triple ("|" type_triple)*
    type_triple    := tname "/" tname "/" tname | tname
    default        := STRING | dataset_ref
    body_stmt      := argument_stmt | exec_stmt | env_stmt
                    | profile_stmt | call_stmt
    argument_stmt  := "argument" IDENT? "=" template ";"
    template       := (STRING | formal_ref)+
    exec_stmt      := "exec" "=" STRING ";"
    env_stmt       := ENV_KEY "=" template ";"          # ident "env.VAR"
    profile_stmt   := "profile" IDENT "=" STRING ";"
    call_stmt      := target "(" binding_list? ")" ";"
    binding_list   := binding ("," binding)*
    binding        := IDENT "=" (STRING | formal_ref)
    dv_decl        := "DV" qname "->" target
                      "(" actual_list? ")" ";"
    actual_list    := actual ("," actual)*
    actual         := IDENT "=" (STRING | dataset_ref)
    formal_ref     := "${" (direction ":")? IDENT "}"
    dataset_ref    := "@{" direction ":" STRING (":" STRING)? "}"
    qname          := IDENT ("::" IDENT)*
    target         := qname | "vdp" ":" "/" "/" IDENT ("/" IDENT)*

``TR`` and ``DV`` are recognized case-insensitively, as are the
direction keywords.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.errors import VDLSyntaxError
from repro.vdl.ast import (
    ArgumentStmtNode,
    BodyStmtNode,
    CallStmtNode,
    DatasetRefNode,
    DerivationDeclNode,
    EnvStmtNode,
    ExecStmtNode,
    FormalDeclNode,
    FormalRefNode,
    ProfileStmtNode,
    ProgramNode,
    TemplatePartNode,
    TransformationDeclNode,
    TypeExprNode,
)
from repro.vdl.lexer import (
    TT_ARROW,
    TT_AT_LBRACE,
    TT_COLON,
    TT_COMMA,
    TT_DOLLAR_LBRACE,
    TT_EOF,
    TT_EQUALS,
    TT_IDENT,
    TT_LBRACE,
    TT_LPAREN,
    TT_PIPE,
    TT_RBRACE,
    TT_RPAREN,
    TT_SEMI,
    TT_SLASH,
    TT_STRING,
    line_starts,
    position,
    scan,
)

_DIRECTIONS = ("input", "output", "inout", "none")
_VDP_TAIL = [TT_COLON, TT_SLASH, TT_SLASH]
#: The most tokens the parser looks past the current one (``vdp://``).
_LOOKAHEAD = 3


class Parser:
    """Parses one VDL compilation unit into a :class:`ProgramNode`.

    It reads the scanner's columns with an integer cursor: ``_kinds``
    and ``_values`` at the cursor are the current token, and a source
    position is computed from ``_starts`` only for an error or an AST
    ``line``.  ``_kinds`` is padded with ``EOF`` so that lookahead
    never runs off its end.
    """

    def __init__(self, source: str):
        self._kinds, self._values, self._starts = scan(source)
        self._kinds.extend((TT_EOF,) * _LOOKAHEAD)
        self._lines = line_starts(source)
        self._i = 0

    # -- public ----------------------------------------------------------

    def parse(self) -> ProgramNode:
        kinds, values = self._kinds, self._values
        declarations = []
        while kinds[self._i] != TT_EOF:
            i = self._i
            keyword = values[i].lower() if kinds[i] == TT_IDENT else ""
            if keyword == "tr":
                declarations.append(self._tr_decl())
            elif keyword == "dv":
                declarations.append(self._dv_decl())
            else:
                raise self._error(
                    f"expected TR or DV declaration, got {values[i]!r}", i
                )
        return ProgramNode(declarations=tuple(declarations))

    # -- declarations ------------------------------------------------------

    def _tr_decl(self) -> TransformationDeclNode:
        line = self._keyword()
        name = self._qname()
        version: Optional[str] = None
        if "@" in name:
            name, _, version = name.rpartition("@")
        formals = self._list(self._formal)
        self._expect(TT_LBRACE)
        body: list[BodyStmtNode] = []
        while self._kinds[self._i] != TT_RBRACE:
            body.append(self._body_stmt())
        self._i += 1
        return TransformationDeclNode(
            name=name, formals=formals, body=tuple(body), version=version,
            line=line,
        )

    def _formal(self) -> FormalDeclNode:
        at = self._i
        word = self._expect(TT_IDENT)
        direction = word.lower()
        if direction not in _DIRECTIONS:
            raise self._error(f"expected argument direction, got {word!r}", at)
        name = self._expect(TT_IDENT)
        type_expr = None
        if self._kinds[self._i] == TT_COLON and self._kinds[self._i + 1] == TT_IDENT:
            # Disambiguate from '::' (handled inside qname) — a single
            # colon after the name introduces a type expression.
            self._i += 1
            type_expr = self._type_expr()
        default: Optional[Union[str, DatasetRefNode]] = None
        if self._accept(TT_EQUALS):
            default = self._string_or(
                TT_AT_LBRACE, self._dataset_ref,
                "formal default must be a string or @{...} reference",
            )
        return FormalDeclNode(
            direction=direction, name=name, type_expr=type_expr,
            default=default, line=self._line(at),
        )

    def _type_expr(self) -> TypeExprNode:
        members = [self._type_triple()]
        while self._accept(TT_PIPE):
            members.append(self._type_triple())
        return TypeExprNode(members=tuple(members))

    def _type_triple(self) -> tuple[str, str, str]:
        content = self._expect(TT_IDENT)
        if not self._accept(TT_SLASH):
            return (content, "-", "-")
        fmt = self._expect(TT_IDENT)
        self._expect(TT_SLASH)
        return (content, fmt, self._expect(TT_IDENT))

    def _body_stmt(self) -> BodyStmtNode:
        i = self._i
        if self._kinds[i] != TT_IDENT:
            raise self._error(
                f"expected a body statement, got {self._values[i]!r}", i
            )
        lowered = self._values[i].lower()
        if lowered == "argument":
            return self._argument_stmt()
        if lowered == "exec":
            return self._exec_stmt()
        if lowered == "profile":
            return self._profile_stmt()
        if lowered.startswith("env."):
            return self._env_stmt()
        return self._call_stmt()

    def _argument_stmt(self) -> ArgumentStmtNode:
        line = self._keyword()
        name = None
        if self._kinds[self._i] == TT_IDENT:
            name = self._expect(TT_IDENT)
        self._expect(TT_EQUALS)
        parts = self._template()
        self._expect(TT_SEMI)
        return ArgumentStmtNode(parts=parts, name=name, line=line)

    def _exec_stmt(self) -> ExecStmtNode:
        line = self._keyword()
        self._expect(TT_EQUALS)
        path = self._expect(TT_STRING)
        self._expect(TT_SEMI)
        return ExecStmtNode(path=path, line=line)

    def _env_stmt(self) -> EnvStmtNode:
        at = self._i
        line = self._keyword()
        variable = self._values[at][len("env."):]
        if not variable:
            raise self._error(
                "env statement requires a variable name (env.VAR = ...)", at
            )
        self._expect(TT_EQUALS)
        parts = self._template()
        self._expect(TT_SEMI)
        return EnvStmtNode(variable=variable, parts=parts, line=line)

    def _profile_stmt(self) -> ProfileStmtNode:
        line = self._keyword()
        key = self._expect(TT_IDENT)
        self._expect(TT_EQUALS)
        value = self._expect(TT_STRING)
        self._expect(TT_SEMI)
        return ProfileStmtNode(key=key, value=value, line=line)

    def _call_stmt(self) -> CallStmtNode:
        line = self._line(self._i)
        target = self._target()
        bindings = self._list(self._binding)
        self._expect(TT_SEMI)
        return CallStmtNode(target=target, bindings=bindings, line=line)

    def _binding(self) -> tuple[str, Union[str, FormalRefNode]]:
        name = self._expect(TT_IDENT)
        self._expect(TT_EQUALS)
        return name, self._string_or(
            TT_DOLLAR_LBRACE, self._formal_ref,
            "call binding must be a string or ${...} reference",
        )

    def _dv_decl(self) -> DerivationDeclNode:
        line = self._keyword()
        name = self._qname()
        self._expect(TT_ARROW)
        target = self._target()
        actuals = self._list(self._actual)
        self._expect(TT_SEMI)
        return DerivationDeclNode(
            name=name, target=target, actuals=actuals, line=line
        )

    def _actual(self) -> tuple[str, Union[str, DatasetRefNode]]:
        name = self._expect(TT_IDENT)
        self._expect(TT_EQUALS)
        return name, self._string_or(
            TT_AT_LBRACE, self._dataset_ref,
            "derivation actual must be a string or @{...} reference",
        )

    # -- leaf constructs ---------------------------------------------------

    def _list(self, item: Callable) -> tuple:
        """``"(" (item ("," item)*)? ")"``."""
        self._expect(TT_LPAREN)
        items = []
        if self._kinds[self._i] != TT_RPAREN:
            items.append(item())
            while self._accept(TT_COMMA):
                items.append(item())
        self._expect(TT_RPAREN)
        return tuple(items)

    def _string_or(self, opener: str, reference: Callable, message: str):
        """A string literal, or the reference that ``opener`` starts."""
        kind = self._kinds[self._i]
        if kind == TT_STRING:
            self._i += 1
            return self._values[self._i - 1]
        if kind == opener:
            return reference()
        raise self._error(message, self._i)

    def _template(self) -> tuple[TemplatePartNode, ...]:
        parts: list[TemplatePartNode] = []
        while True:
            kind = self._kinds[self._i]
            if kind == TT_STRING:
                parts.append(self._values[self._i])
                self._i += 1
            elif kind == TT_DOLLAR_LBRACE:
                parts.append(self._formal_ref())
            else:
                break
        if not parts:
            raise self._error(
                "expected a template (string literals and ${...} refs)",
                self._i,
            )
        return tuple(parts)

    def _formal_ref(self) -> FormalRefNode:
        opener = self._i
        self._i += 1
        name = self._expect(TT_IDENT)
        direction: Optional[str] = None
        if self._accept(TT_COLON):
            direction = name.lower()
            if direction not in _DIRECTIONS:
                raise self._error(
                    f"invalid direction {name!r} in ${{...}} reference", opener
                )
            name = self._expect(TT_IDENT)
        self._expect(TT_RBRACE)
        return FormalRefNode(
            name=name, direction=direction, line=self._line(opener)
        )

    def _dataset_ref(self) -> DatasetRefNode:
        opener = self._i
        self._i += 1
        direction = self._expect(TT_IDENT).lower()
        if direction not in _DIRECTIONS or direction == "none":
            raise self._error(
                f"invalid direction {direction!r} in @{{...}} reference", opener
            )
        self._expect(TT_COLON)
        lfn = self._expect(TT_STRING)
        temporary = self._accept(TT_COLON)
        if temporary and self._expect(TT_STRING):
            raise self._error(
                "third component of @{...} must be the empty string", opener
            )
        self._expect(TT_RBRACE)
        return DatasetRefNode(
            direction=direction, lfn=lfn, temporary=temporary,
            line=self._line(opener),
        )

    def _qname(self) -> str:
        name = self._expect(TT_IDENT)
        kinds = self._kinds
        while (
            kinds[self._i] == TT_COLON
            and kinds[self._i + 1] == TT_COLON
            and kinds[self._i + 2] == TT_IDENT
        ):
            self._i += 3
            name += "::" + self._values[self._i - 1]
        return name

    def _target(self) -> str:
        """A call/derivation target: qname or vdp://host/path."""
        at = self._i
        if (
            self._kinds[at] == TT_IDENT
            and self._values[at].lower() == "vdp"
            and self._kinds[at + 1:at + 4] == _VDP_TAIL
        ):
            self._i = at + 4
            host = self._expect(TT_IDENT)
            segments = []
            while self._accept(TT_SLASH):
                segments.append(self._qname())
            if not segments:
                raise self._error(
                    "vdp:// reference requires an object name", at
                )
            return f"vdp://{host}/" + "/".join(segments)
        return self._qname()

    # -- the cursor ----------------------------------------------------------

    def _keyword(self) -> int:
        """Step over a statement's leading keyword; return its line."""
        self._i += 1
        return self._line(self._i - 1)

    def _accept(self, kind: str) -> bool:
        if self._kinds[self._i] == kind:
            self._i += 1
            return True
        return False

    def _expect(self, kind: str) -> str:
        """Consume a token of ``kind`` and return its value."""
        i = self._i
        if self._kinds[i] != kind:
            raise self._error(
                f"expected {kind}, got {self._kinds[i]} {self._values[i]!r}", i
            )
        self._i = i + 1
        return self._values[i]

    def _line(self, i: int) -> int:
        return position(self._lines, self._starts[i])[0]

    def _error(self, message: str, i: int) -> VDLSyntaxError:
        return VDLSyntaxError(message, *position(self._lines, self._starts[i]))


def parse(source: str) -> ProgramNode:
    """Parse VDL ``source`` into a :class:`ProgramNode`."""
    return Parser(source).parse()
