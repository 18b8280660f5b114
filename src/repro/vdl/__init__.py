"""The Chimera Virtual Data Language front-end (Appendix A).

``parse`` turns VDL text into an AST; ``analyze``/``compile_vdl`` lower
it onto core schema objects; ``unparse*`` pretty-print objects back to
VDL; ``to_xml``/``from_xml`` implement the machine-to-machine format.
"""

from repro.vdl.ast import ProgramNode
from repro.vdl.lexer import Token, tokenize
from repro.vdl.parser import Parser, parse
from repro.vdl.semantics import Analyzer, ProgramObjects, analyze, compile_vdl
from repro.vdl.unparser import (
    unparse,
    unparse_derivation,
    unparse_transformation,
)
from repro.vdl.xml_io import (
    derivation_from_xml,
    derivation_to_xml,
    from_xml,
    to_xml,
    transformation_from_xml,
    transformation_to_xml,
)

__all__ = [
    "Analyzer",
    "Parser",
    "ProgramNode",
    "ProgramObjects",
    "Token",
    "analyze",
    "compile_vdl",
    "derivation_from_xml",
    "derivation_to_xml",
    "from_xml",
    "parse",
    "to_xml",
    "tokenize",
    "transformation_from_xml",
    "transformation_to_xml",
    "unparse",
    "unparse_derivation",
    "unparse_transformation",
]
