"""What one stored derivation costs in memory.

Core records are slotted (no per-object attribute dict), decoding keeps
no process-wide cache that would pin the names and arguments of every
catalog a process ever opened, and what most records spell out alike —
formal names, the untyped dataset type, the virtual descriptor, empty
maps — is shared rather than repeated per record.
"""

import json
import sys

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.attributes import Annotation, AttributeSet
from repro.core.dataset import Dataset
from repro.core.derivation import DatasetArg, Derivation
from repro.core.invocation import ExecutionContext, Invocation, ResourceUsage
from repro.core.naming import VDPRef, check_object_name
from repro.core.replica import Replica
from repro.core.transformation import SimpleTransformation
from repro.core.types import ANY_DATASET, DatasetType
from repro.planner.dag import PlanStep


def _derivation(name="d.one", tag="7") -> Derivation:
    return Derivation(
        name=name,
        transformation=VDPRef.parse("canon1", default_kind="transformation"),
        actuals={
            "o": DatasetArg(f"{name}.out", "output"),
            "i0": DatasetArg("d.src", "input"),
            "tag": tag,
        },
    )


RECORDS = {
    "DatasetArg": lambda: DatasetArg("d.src"),
    "Derivation": _derivation,
    "VDPRef": lambda: VDPRef.parse("vdp://a.b/t"),
    "Dataset": lambda: Dataset(name="d.src"),
    "DatasetType": DatasetType,
    "AttributeSet": lambda: AttributeSet({"k": 1}),
    "Annotation": lambda: Annotation("k", 1),
    "Replica": lambda: Replica(dataset_name="d.src", location="here"),
    "Invocation": lambda: Invocation(derivation_name="d.one"),
    "ExecutionContext": ExecutionContext,
    "ResourceUsage": ResourceUsage,
    "PlanStep": lambda: PlanStep(
        name="d.one",
        derivation=_derivation(),
        transformation=SimpleTransformation(
            name="canon1", formals=[], executable="/bin/true"
        ),
    ),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_records_are_slotted(kind):
    record = RECORDS[kind]()
    assert not hasattr(record, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        record.unexpected = 1


def test_step_edges_are_computed_with_the_step():
    step = RECORDS["PlanStep"]()
    assert step.inputs == ("d.src",)
    assert step.outputs == ("d.one.out",)


def test_validating_a_name_does_not_keep_it():
    name = "".join(["fresh", ".name"])  # an object no one else holds
    before = sys.getrefcount(name)
    check_object_name(name)
    VDPRef(name)
    DatasetArg(name)
    assert sys.getrefcount(name) == before


def test_decoding_shares_no_arguments_across_catalogs():
    payload = _derivation().to_dict()
    first, second = Derivation.from_dict(payload), Derivation.from_dict(payload)
    assert first.actuals == second.actuals
    assert first.actuals["o"] is not second.actuals["o"]


def test_formal_names_are_shared_by_documents_and_decoded_forms():
    def fresh(name):  # formal names built at run time, as a parser does
        dv = _derivation(name)
        dv.actuals = {"".join(key): value for key, value in dv.actuals.items()}
        return dv

    stored = [fresh(name).to_dict() for name in ("d.one", "d.two")]
    # A persistent backend's documents come back through JSON.
    loaded = [Derivation.from_dict(json.loads(json.dumps(doc))) for doc in stored]
    for keys in zip(*(sorted(doc["actuals"]) for doc in stored)):
        assert keys[0] is keys[1]
    for keys in zip(*(sorted(dv.actuals) for dv in loaded)):
        assert keys[0] is keys[1]


def test_untyped_undescribed_datasets_share_type_and_descriptor():
    one = Dataset.from_dict(Dataset(name="d.one").to_dict())
    two = Dataset.from_dict(Dataset(name="d.two").to_dict())
    assert one.dataset_type is two.dataset_type
    assert one.descriptor is two.descriptor
    typed = Dataset.from_dict(
        Dataset(name="d.three", dataset_type=DatasetType(content="CMS")).to_dict()
    )
    assert typed.dataset_type == DatasetType(content="CMS")


def test_empty_attribute_sets_write_into_their_own_history():
    shared, other = AttributeSet(), AttributeSet()
    shared["k"] = 1
    assert "k" not in other and "k" not in AttributeSet()
    clone = shared.copy()
    clone["j"] = 2
    assert shared.as_dict() == {"k": 1} and clone.as_dict() == {"k": 1, "j": 2}


def test_memory_store_shares_common_subdocuments():
    """The memory store keeps records, and records share what nearly
    every one spells out alike: the untyped type, the size-less virtual
    descriptor and the empty attribute history."""
    catalog = MemoryCatalog()
    catalog.add_dataset(Dataset(name="d.one"))
    catalog.add_dataset(Dataset(name="d.two", dataset_type=DatasetType()))
    one = catalog._record("dataset", "d.one")
    two = catalog._record("dataset", "d.two")
    assert one.dataset_type is two.dataset_type is ANY_DATASET
    assert one.descriptor is two.descriptor
    assert one.attributes._history is two.attributes._history
    # What leaves the catalog is still an owned document.
    copied = catalog._store_get("dataset", "d.one")
    assert copied == Dataset(name="d.one").to_dict()
    assert copied == catalog._store_get("dataset", "d.one")
    assert copied is not catalog._store_get("dataset", "d.one")
    copied["type"]["content"] = "scribbled"
    assert catalog._store_get("dataset", "d.one")["type"] == ANY_DATASET.as_dict()
    catalog.add_dataset(Dataset(name="d.one", attributes={"size": 3}), replace=True)
    assert catalog.get_dataset("d.two").attributes.as_dict() == {}
    assert catalog.get_dataset("d.one").attributes.as_dict() == {"size": 3}
