"""Derivations: transformations specialized with actual arguments.

"A derivation specializes a transformation by specifying the actual
arguments (strings and/or datasets) and other information required to
perform a specific execution of its associated transformation.  A
derivation record can serve both as a historical record of what was
done and also as a recipe for operations that can be performed in the
future." (§3)

The derivation is where provenance edges live: its dataset-valued
actual arguments name the datasets it consumes and produces.  When one
derivation's output names another's input, a dependency graph arises —
"the essence of data provenance tracking in Chimera" (Appendix A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterator, Union

from repro.core.attributes import AttributeSet
from repro.core.naming import VDPRef, check_object_name
from repro.core.transformation import DIRECTIONS, Transformation
from repro.errors import SchemaError, SignatureMismatchError


@dataclass(frozen=True)
class DatasetArg:
    """A dataset-valued actual argument: ``@{direction:"name"}`` in VDL.

    ``dataset`` is the logical dataset name (an LFN in grid parlance);
    ``direction`` is the call-site directionality.  ``temporary`` marks
    scratch intermediates (the VDL ``@{inout:"x":""}`` trailing-empty
    form) that need not outlive the enclosing workflow.
    """

    dataset: str
    direction: str = "input"
    temporary: bool = False

    def __post_init__(self):
        check_object_name(self.dataset)
        if self.direction not in DIRECTIONS or self.direction == "none":
            raise SchemaError(
                f"dataset argument direction must be input/output/inout, "
                f"got {self.direction!r}"
            )

    @property
    def is_input(self) -> bool:
        return self.direction in ("input", "inout")

    @property
    def is_output(self) -> bool:
        return self.direction in ("output", "inout")

    def __str__(self) -> str:
        return '@{%s:"%s"}' % (self.direction, self.dataset)


#: An actual argument is a plain string (pass-by-value) or a dataset ref.
ActualArg = Union[str, DatasetArg]


@lru_cache(maxsize=65536)
def _dataset_arg(dataset: str, direction: str, temporary: bool) -> DatasetArg:
    """Interning constructor for decode paths.

    :class:`DatasetArg` is frozen, so instances can be shared; decoding
    a large catalog re-creates the same ``(dataset, direction,
    temporary)`` triples a handful of times each, and validation in
    ``__post_init__`` is then paid once per distinct triple.
    """
    return DatasetArg(dataset=dataset, direction=direction, temporary=temporary)


@dataclass
class Derivation:
    """A named binding of actual arguments to a transformation.

    ``transformation`` may point at a remote catalog (Fig 2's
    ``srch-muon`` derivation invoking Wisconsin's ``srch``).
    ``environment`` captures required environment-variable values when
    the transformation's behaviour depends on them (§3).
    """

    name: str
    transformation: VDPRef
    actuals: dict[str, ActualArg] = field(default_factory=dict)
    environment: dict[str, str] = field(default_factory=dict)
    attributes: AttributeSet = field(default_factory=AttributeSet)

    def __post_init__(self):
        check_object_name(self.name)
        if self.transformation.kind not in (None, "transformation"):
            raise SchemaError(
                f"derivation {self.name!r} must reference a transformation, "
                f"got kind {self.transformation.kind!r}"
            )
        if isinstance(self.attributes, dict):
            self.attributes = AttributeSet(self.attributes)
        for key, value in self.actuals.items():
            if not isinstance(value, (str, DatasetArg)):
                raise SchemaError(
                    f"actual {key!r} must be a string or DatasetArg, "
                    f"got {type(value).__name__}"
                )

    def copy(self) -> "Derivation":
        """An independent, unvalidated copy sharing the frozen callee
        reference and dataset arguments (see
        :meth:`repro.core.dataset.Dataset.copy`)."""
        clone = object.__new__(type(self))
        clone.name = self.name
        clone.transformation = self.transformation
        clone.actuals = dict(self.actuals)
        clone.environment = dict(self.environment)
        clone.attributes = self.attributes.copy()
        return clone

    # -- provenance edges ---------------------------------------------

    def dataset_args(self) -> Iterator[tuple[str, DatasetArg]]:
        """Yield ``(formal_name, DatasetArg)`` for dataset-valued actuals."""
        for name, value in self.actuals.items():
            if isinstance(value, DatasetArg):
                yield name, value

    def inputs(self) -> tuple[str, ...]:
        """Names of datasets this derivation consumes, sorted."""
        # Open-coded (no dataset_args generator / direction property):
        # planners call this for every step of 10^5+-node plans.
        return tuple(
            sorted(
                {
                    a.dataset
                    for a in self.actuals.values()
                    if isinstance(a, DatasetArg) and a.direction != "output"
                }
            )
        )

    def outputs(self) -> tuple[str, ...]:
        """Names of datasets this derivation produces, sorted."""
        return tuple(
            sorted(
                {
                    a.dataset
                    for a in self.actuals.values()
                    if isinstance(a, DatasetArg) and a.direction != "input"
                }
            )
        )

    def produces(self, dataset_name: str) -> bool:
        return dataset_name in self.outputs()

    def consumes(self, dataset_name: str) -> bool:
        return dataset_name in self.inputs()

    # -- validation -----------------------------------------------------

    def check_against(self, transformation: Transformation) -> None:
        """Validate this derivation's actuals against a resolved callee.

        Checks name/arity compatibility and that dataset/string shape
        matches formal directionality.  (Dataset *type* conformance needs
        the catalog's type registry and dataset records, so it lives in
        :meth:`repro.catalog.base.VirtualDataCatalog.check_derivation`.)
        """
        if transformation.name != self.transformation.name:
            raise SignatureMismatchError(
                f"derivation {self.name!r} targets "
                f"{self.transformation.name!r}, got {transformation.name!r}"
            )
        transformation.signature.check_actuals(self.actuals)
        for formal_name, value in self.actuals.items():
            formal = transformation.signature.formal(formal_name)
            if formal.is_string and isinstance(value, DatasetArg):
                raise SignatureMismatchError(
                    f"{self.name}: formal {formal_name!r} is a string but a "
                    f"dataset {value.dataset!r} was supplied"
                )
            if not formal.is_string and isinstance(value, str):
                raise SignatureMismatchError(
                    f"{self.name}: formal {formal_name!r} expects a dataset "
                    f"but the string {value!r} was supplied"
                )
            if isinstance(value, DatasetArg):
                if formal.direction != "inout" and value.direction != formal.direction:
                    raise SignatureMismatchError(
                        f"{self.name}: formal {formal_name!r} is "
                        f"{formal.direction} but actual is {value.direction}"
                    )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        actuals: dict[str, Any] = {}
        for key, value in self.actuals.items():
            if isinstance(value, DatasetArg):
                actuals[key] = {
                    "dataset": value.dataset,
                    "direction": value.direction,
                    "temporary": value.temporary,
                }
            else:
                actuals[key] = value
        return {
            "name": self.name,
            "transformation": self.transformation.uri(),
            "actuals": actuals,
            "environment": dict(self.environment),
            "attributes": self.attributes.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Derivation":
        actuals: dict[str, ActualArg] = {}
        for key, value in data.get("actuals", {}).items():
            if isinstance(value, dict):
                actuals[key] = _dataset_arg(
                    value["dataset"],
                    value.get("direction", "input"),
                    value.get("temporary", False),
                )
            else:
                actuals[key] = value
        return cls(
            name=data["name"],
            transformation=VDPRef.parse(
                data["transformation"], default_kind="transformation"
            ),
            actuals=actuals,
            environment=dict(data.get("environment", {})),
            attributes=AttributeSet(data.get("attributes") or {}),
        )

    def __str__(self) -> str:
        return f"DV {self.name}->{self.transformation.uri()}"
