"""Transformations: typed computational procedures (§3.2).

A transformation "is a typed computational procedure that may take as
arguments both strings, which are passed by value, and datasets, which
are passed by reference".  We distinguish:

* :class:`SimpleTransformation` — a black box, modelled on POSIX program
  execution: an executable, command-line argument templates, environment
  variable bindings, and stdin/stdout/stderr redirection;
* :class:`CompoundTransformation` — a composition of one or more
  transformations "in a directed acyclic execution graph".

Both share the typed formal-argument list.  The type-conformance rule is
implemented in :meth:`TransformationSignature.check_actuals`: a dataset
can be bound to a formal argument iff its type is a (reflexive) subtype
of one member of the formal's type list.

Versioning — which the paper flags as "an important issue not yet
addressed in our design" — is implemented in
:mod:`repro.core.versioning` and hangs off the ``version`` field here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.core.attributes import AttributeSet
from repro.core.naming import VDPRef, check_object_name
from repro.core.types import DatasetType, TypeRegistry, TypeUnion
from repro.errors import SchemaError, SignatureMismatchError, TypeConformanceError

#: Argument directionality.  ``none`` marks a pass-by-value string
#: parameter (the VDL spelling); the others are dataset references.
DIRECTIONS = ("input", "output", "inout", "none")

#: Reserved template names that redirect standard streams instead of
#: contributing to the command line.
STREAM_NAMES = ("stdin", "stdout", "stderr")


@dataclass(frozen=True)
class FormalRef:
    """A ``${direction:name}`` reference inside an argument template."""

    name: str
    direction: Optional[str] = None

    def __post_init__(self):
        if self.direction is not None and self.direction not in DIRECTIONS:
            raise SchemaError(f"invalid direction {self.direction!r} in template ref")

    def __str__(self) -> str:
        if self.direction:
            return "${%s:%s}" % (self.direction, self.name)
        return "${%s}" % self.name


#: A template is a sequence of literal strings and formal references.
TemplatePart = Union[str, FormalRef]


@dataclass(frozen=True)
class FormalArg:
    """One formal argument of a transformation.

    ``direction='none'`` arguments are strings; the rest denote
    datasets typed by ``dataset_types`` (a union — §3.2).  ``default``
    supplies an actual value used when a caller omits the argument;
    compound transformations use defaults to declare scratch
    intermediates (e.g. ``inout a4=@{inout:"somewhere":""}``).
    """

    name: str
    direction: str
    dataset_types: TypeUnion = field(default_factory=TypeUnion)
    default: Optional[str] = None
    #: True when the default names a scratch intermediate that need not
    #: outlive the workflow (the VDL ``@{inout:"x":""}`` form).
    temporary_default: bool = False

    def __post_init__(self):
        check_object_name(self.name)
        if self.direction not in DIRECTIONS:
            raise SchemaError(
                f"invalid argument direction {self.direction!r}; "
                f"expected one of {DIRECTIONS}"
            )

    @property
    def is_string(self) -> bool:
        return self.direction == "none"

    @property
    def is_output(self) -> bool:
        return self.direction in ("output", "inout")

    @property
    def is_input(self) -> bool:
        return self.direction in ("input", "inout")

    def __str__(self) -> str:
        if self.is_string:
            return f"none {self.name}"
        return f"{self.direction} {self.name}: {self.dataset_types}"


class TransformationSignature:
    """The ordered, typed formal-argument list of a transformation."""

    def __init__(self, formals: Sequence[FormalArg]):
        names = [f.name for f in formals]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate formal argument names in {names}")
        self._formals = tuple(formals)
        self._by_name = {f.name: f for f in formals}

    @property
    def formals(self) -> tuple[FormalArg, ...]:
        return self._formals

    def formal(self, name: str) -> FormalArg:
        try:
            return self._by_name[name]
        except KeyError:
            raise SignatureMismatchError(f"no formal argument named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._formals)

    def inputs(self) -> tuple[FormalArg, ...]:
        return tuple(f for f in self._formals if f.is_input)

    def outputs(self) -> tuple[FormalArg, ...]:
        return tuple(f for f in self._formals if f.is_output)

    def strings(self) -> tuple[FormalArg, ...]:
        return tuple(f for f in self._formals if f.is_string)

    def check_actuals(
        self,
        actuals: dict[str, Any],
        registry: Optional[TypeRegistry] = None,
        actual_types: Optional[dict[str, DatasetType]] = None,
    ) -> None:
        """Validate a binding of actual arguments against this signature.

        * every formal without a default must be bound;
        * no unknown argument names;
        * when ``registry`` and ``actual_types`` are supplied, each bound
          dataset's type must conform to the formal's type union.

        Raises :class:`SignatureMismatchError` or
        :class:`TypeConformanceError` accordingly.
        """
        unknown = set(actuals) - set(self._by_name)
        if unknown:
            raise SignatureMismatchError(
                f"unknown actual argument(s): {sorted(unknown)}"
            )
        for formal in self._formals:
            if formal.name not in actuals and formal.default is None:
                raise SignatureMismatchError(
                    f"missing actual for required argument {formal.name!r}"
                )
        if registry is None or actual_types is None:
            return
        for name, dtype in actual_types.items():
            formal = self._by_name.get(name)
            if formal is None or formal.is_string:
                continue
            if not formal.dataset_types.accepts(dtype, registry):
                raise TypeConformanceError(
                    f"dataset bound to {name!r} has type {dtype} which does not "
                    f"conform to {formal.dataset_types}"
                )

    def type_signature(self) -> str:
        """Render a human-readable signature string (as in Fig 1)."""
        parts = []
        for f in self._formals:
            if f.is_string:
                parts.append(f"none {f.name}")
            else:
                parts.append(f"{f.direction} {f.dataset_types} {f.name}")
        return ", ".join(parts)


@dataclass
class ArgumentTemplate:
    """One ``argument`` line of a simple transformation.

    ``name`` is optional; the reserved names in :data:`STREAM_NAMES`
    redirect standard streams.  ``parts`` interleaves literal text and
    :class:`FormalRef` placeholders and is joined without separators at
    instantiation time (VDL semantics).
    """

    parts: tuple[TemplatePart, ...]
    name: Optional[str] = None

    def references(self) -> tuple[str, ...]:
        """Formal argument names referenced by this template, in order."""
        return tuple(p.name for p in self.parts if isinstance(p, FormalRef))

    def render(self, values: dict[str, str]) -> str:
        """Substitute ``values`` for formal references and join."""
        out = []
        for part in self.parts:
            if isinstance(part, FormalRef):
                try:
                    out.append(values[part.name])
                except KeyError:
                    raise SignatureMismatchError(
                        f"template references unbound argument {part.name!r}"
                    ) from None
            else:
                out.append(part)
        return "".join(out)


class Transformation:
    """Common base of simple and compound transformations.

    ``name`` may be namespace-qualified (``example1::t1``); ``version``
    participates in the structured-versioning machinery of
    :mod:`repro.core.versioning`.
    """

    #: ``(structure, canonical XML)`` of the last :meth:`to_dict`.
    _xml_memo: Optional[tuple[tuple, str]] = None

    def __init__(
        self,
        name: str,
        formals: Sequence[FormalArg],
        version: str = "1.0",
        attributes: Optional[dict | AttributeSet] = None,
    ):
        check_object_name(name)
        self.name = name
        self.version = version
        self.signature = TransformationSignature(formals)
        if isinstance(attributes, AttributeSet):
            self.attributes = attributes
        else:
            self.attributes = AttributeSet(attributes or {})

    @property
    def is_compound(self) -> bool:
        raise NotImplementedError

    def _structure(self) -> tuple:
        """An immutable snapshot of everything the canonical XML encodes.

        Subclasses append their body.  Must cover every field
        :func:`repro.vdl.xml_io.transformation_to_xml` reads:
        :meth:`to_dict` reuses its serialized XML while this is equal.
        """
        return (self.name, self.version, self.signature.formals)

    def copy(self) -> "Transformation":
        """An independent copy: mutating it leaves ``self`` untouched.

        Skips the constructor's validation (``self`` already passed it)
        and shares only immutable parts, so a catalog can decode a
        stored transformation once and hand each reader its own object
        for a fraction of an XML parse.  The serialized form rides
        along (see :meth:`to_dict`).
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.attributes = self.attributes.copy()
        return clone

    @property
    def qualified_name(self) -> str:
        """Name plus version, unique within a catalog."""
        return f"{self.name}@{self.version}"

    def to_dict(self) -> dict:
        """Serialize for catalog persistence and entry signing.

        The structural definition rides as its canonical XML string
        (signing-stable), with attributes alongside.
        """
        structure = self._structure()
        memo = self._xml_memo
        if memo is None or memo[0] != structure:
            import xml.etree.ElementTree as ET

            from repro.vdl import xml_io

            memo = self._xml_memo = (
                structure,
                ET.tostring(
                    xml_io.transformation_to_xml(self), encoding="unicode"
                ),
            )
        return {
            "name": self.name,
            "version": self.version,
            "xml": memo[1],
            "attributes": self.attributes.as_dict(),
        }

    def __str__(self) -> str:
        kind = "compound" if self.is_compound else "simple"
        return f"TR {self.name}({self.signature.type_signature()}) [{kind}]"


class SimpleTransformation(Transformation):
    """A black-box transformation under the POSIX execution model.

    "The POSIX model implies an executable that resides in a file, which
    is passed arguments both on the command line and via named
    environment variables, and which can access files through the
    open() system call." (§6)
    """

    def __init__(
        self,
        name: str,
        formals: Sequence[FormalArg],
        executable: str = "",
        arguments: Sequence[ArgumentTemplate] = (),
        environment: Optional[dict[str, ArgumentTemplate]] = None,
        profile_hints: Optional[dict[str, str]] = None,
        version: str = "1.0",
        attributes: Optional[dict | AttributeSet] = None,
    ):
        super().__init__(name, formals, version=version, attributes=attributes)
        self.executable = executable
        self.arguments = tuple(arguments)
        self.environment = dict(environment or {})
        self.profile_hints = dict(profile_hints or {})
        self._check_templates()

    @property
    def is_compound(self) -> bool:
        return False

    def _structure(self) -> tuple:
        return (
            *super()._structure(),
            self.executable,
            tuple((t.name, tuple(t.parts)) for t in self.arguments),
            tuple(
                (var, tuple(t.parts))
                for var, t in sorted(self.environment.items())
            ),
            tuple(sorted(self.profile_hints.items())),
        )

    def copy(self) -> "SimpleTransformation":
        clone = super().copy()
        clone.arguments = tuple(
            ArgumentTemplate(t.parts, t.name) for t in self.arguments
        )
        clone.environment = {
            var: ArgumentTemplate(t.parts, t.name)
            for var, t in self.environment.items()
        }
        clone.profile_hints = dict(self.profile_hints)
        return clone

    def _check_templates(self) -> None:
        templates: list[ArgumentTemplate] = list(self.arguments)
        templates.extend(self.environment.values())
        for template in templates:
            for ref in template.references():
                if ref not in self.signature:
                    raise SchemaError(
                        f"transformation {self.name!r}: template references "
                        f"unknown formal {ref!r}"
                    )

    def command_line(self, values: dict[str, str]) -> tuple[str, ...]:
        """Render the full argv (excluding the executable) for ``values``.

        Stream-redirect templates (stdin/stdout/stderr) are excluded;
        fetch them via :meth:`stream_redirects`.
        """
        return tuple(
            t.render(values)
            for t in self.arguments
            if t.name not in STREAM_NAMES
        )

    def stream_redirects(self, values: dict[str, str]) -> dict[str, str]:
        """Render stdin/stdout/stderr redirections for ``values``."""
        return {
            t.name: t.render(values)
            for t in self.arguments
            if t.name in STREAM_NAMES
        }

    def rendered_environment(self, values: dict[str, str]) -> dict[str, str]:
        """Render environment-variable bindings for ``values``."""
        return {var: t.render(values) for var, t in self.environment.items()}


@dataclass
class TransformationCall:
    """One call site inside a compound transformation body.

    ``target`` names the callee (possibly a remote ``vdp://`` reference,
    enabling the Fig 2 cross-catalog compound); ``bindings`` maps callee
    formal names to either a :class:`FormalRef` into the enclosing
    compound's formals or a literal string.
    """

    target: VDPRef
    bindings: dict[str, TemplatePart] = field(default_factory=dict)

    def bound_formals(self) -> tuple[str, ...]:
        """Enclosing-compound formals referenced by this call."""
        return tuple(
            v.name for v in self.bindings.values() if isinstance(v, FormalRef)
        )


class CompoundTransformation(Transformation):
    """A transformation composing others in a directed acyclic graph.

    The execution DAG is implicit in dataset flow: a call that binds an
    enclosing formal as an *output* precedes every later call binding the
    same formal as an *input*.  :meth:`call_dependencies` exposes these
    edges; cycle detection happens at expansion time in the planner.
    """

    def __init__(
        self,
        name: str,
        formals: Sequence[FormalArg],
        calls: Sequence[TransformationCall],
        version: str = "1.0",
        attributes: Optional[dict | AttributeSet] = None,
    ):
        super().__init__(name, formals, version=version, attributes=attributes)
        if not calls:
            raise SchemaError(f"compound transformation {name!r} needs >=1 call")
        self.calls = tuple(calls)
        for call in self.calls:
            for formal_name in call.bound_formals():
                if formal_name not in self.signature:
                    raise SchemaError(
                        f"compound {name!r}: call to {call.target} references "
                        f"unknown formal {formal_name!r}"
                    )

    @property
    def is_compound(self) -> bool:
        return True

    def _structure(self) -> tuple:
        return (
            *super()._structure(),
            tuple(
                (call.target, tuple(call.bindings.items()))
                for call in self.calls
            ),
        )

    def copy(self) -> "CompoundTransformation":
        clone = super().copy()
        clone.calls = tuple(
            TransformationCall(call.target, dict(call.bindings))
            for call in self.calls
        )
        return clone

    def call_dependencies(
        self, direction_of: dict[int, dict[str, str]]
    ) -> list[tuple[int, int]]:
        """Compute intra-body dependency edges between call indices.

        ``direction_of[i]`` maps each bound formal name of call ``i`` to
        the *callee-side* direction ('input'/'output'/'inout'), which
        the expander knows once callee signatures are resolved.  Returns
        ``(producer_index, consumer_index)`` pairs.
        """
        producers: dict[str, int] = {}
        edges: list[tuple[int, int]] = []
        for i, call in enumerate(self.calls):
            dirs = direction_of.get(i, {})
            for formal_name in call.bound_formals():
                d = dirs.get(formal_name)
                if d in ("input", "inout") and formal_name in producers:
                    edges.append((producers[formal_name], i))
            for formal_name in call.bound_formals():
                d = dirs.get(formal_name)
                if d in ("output", "inout"):
                    producers[formal_name] = i
        return edges


def two_stage(
    name: str,
    inner: Transformation,
    params: Sequence[FormalArg],
    paramfile_formal: str = "paramfile",
    param_writer_name: str = "write-params",
    version: str = "1.0",
) -> CompoundTransformation:
    """Build the two-stage adapter for parameter-file transformations.

    "Transformations that expect to receive their arguments and input
    files via a parameter file are handled by defining them as two-stage
    transformations, where the first stage takes VDL parameters and
    places them into a text file, and the second stage invokes the
    actual executable, passing it the text file produced by the first
    stage." (§3.2)

    ``inner`` must expose an input formal named ``paramfile_formal``
    that receives the parameter file.  ``params`` are the logical
    string parameters the adapter exposes and stage 1 writes into the
    file.  The returned compound's signature is ``params`` plus every
    inner formal except the parameter file (which becomes a hidden
    ``inout`` intermediate).
    """
    pf = inner.signature.formal(paramfile_formal)
    if not pf.is_input:
        raise SchemaError(
            f"inner formal {paramfile_formal!r} must be an input to receive "
            f"the parameter file"
        )
    for p in params:
        if not p.is_string:
            raise SchemaError(f"two-stage param {p.name!r} must be a string (none)")
        if p.name in inner.signature:
            raise SchemaError(
                f"two-stage param {p.name!r} collides with an inner formal"
            )
    passthrough = [
        f for f in inner.signature.formals if f.name != paramfile_formal
    ]
    hidden = FormalArg(
        name=paramfile_formal, direction="inout", default=f"{name}.params"
    )
    stage1 = TransformationCall(
        target=VDPRef(name=param_writer_name, kind="transformation"),
        bindings={
            "paramfile": FormalRef(paramfile_formal, "output"),
            **{p.name: FormalRef(p.name, "none") for p in params},
        },
    )
    stage2 = TransformationCall(
        target=VDPRef(name=inner.name, kind="transformation"),
        bindings={
            paramfile_formal: FormalRef(paramfile_formal, "input"),
            **{f.name: FormalRef(f.name, f.direction) for f in passthrough},
        },
    )
    return CompoundTransformation(
        name=name,
        formals=[*params, *passthrough, hidden],
        calls=(stage1, stage2),
        version=version,
    )
