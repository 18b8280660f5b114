"""Tests for Dataset and Replica schema objects."""

import pytest

from repro.core.dataset import Dataset
from repro.core.descriptors import FileDescriptor
from repro.core.replica import Replica
from repro.core.types import DatasetType
from repro.errors import SchemaError


class TestDataset:
    def test_defaults_to_virtual(self):
        ds = Dataset(name="foo")
        assert ds.is_virtual
        assert ds.dataset_type.is_any()

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Dataset(name="")
        with pytest.raises(SchemaError):
            Dataset(name="-leading-dash")

    def test_dotted_names_allowed(self):
        Dataset(name="run1.exp15.T1932.summary")

    def test_materialized_copy(self):
        ds = Dataset(name="foo", attributes={"owner": "alice"})
        mat = ds.copy()
        mat.descriptor = FileDescriptor(path="/tmp/foo", size=10)
        assert not mat.is_virtual
        assert ds.is_virtual  # original untouched
        assert mat.attributes.get("owner") == "alice"

    def test_size_estimate_preference_order(self):
        by_attr = Dataset(
            name="a",
            descriptor=FileDescriptor(path="x", size=5),
            attributes={"size": 99},
        )
        assert by_attr.size_estimate() == 99
        by_descriptor = Dataset(
            name="b", descriptor=FileDescriptor(path="x", size=5)
        )
        assert by_descriptor.size_estimate() == 5
        by_default = Dataset(name="c")
        assert by_default.size_estimate(default=7) == 7

    def test_dict_round_trip(self):
        ds = Dataset(
            name="foo",
            dataset_type=DatasetType(content="CMS"),
            descriptor=FileDescriptor(path="/data/foo", size=3),
            attributes={"quality": "approved"},
            producer="dv1",
        )
        rebuilt = Dataset.from_dict(ds.to_dict())
        assert rebuilt.name == "foo"
        assert rebuilt.dataset_type == ds.dataset_type
        assert rebuilt.descriptor == ds.descriptor
        assert rebuilt.attributes.get("quality") == "approved"
        assert rebuilt.producer == "dv1"

    def test_str_mentions_state(self):
        assert "virtual" in str(Dataset(name="v"))
        assert "file" in str(
            Dataset(name="m", descriptor=FileDescriptor(path="x"))
        )

    def test_attributes_dict_coerced(self):
        ds = Dataset(name="x", attributes={"k": 1})
        assert ds.attributes.get("k") == 1


class TestReplica:
    def test_requires_location(self):
        with pytest.raises(SchemaError):
            Replica(dataset_name="foo", location="")

    def test_ids_unique(self):
        a = Replica(dataset_name="foo", location="x")
        b = Replica(dataset_name="foo", location="x")
        assert a.replica_id != b.replica_id

    def test_size_estimate(self):
        explicit = Replica(dataset_name="f", location="x", size=10)
        assert explicit.size_estimate() == 10
        from_descriptor = Replica(
            dataset_name="f",
            location="x",
            descriptor=FileDescriptor(path="p", size=20),
        )
        assert from_descriptor.size_estimate() == 20
        assert Replica(dataset_name="f", location="x").size_estimate(3) == 3

    def test_dict_round_trip(self):
        rep = Replica(
            dataset_name="foo",
            location="U.Chicago",
            descriptor=FileDescriptor(path="/d/foo"),
            size=12,
            digest="abc",
            attributes={"tier": 1},
        )
        rebuilt = Replica.from_dict(rep.to_dict())
        assert rebuilt.replica_id == rep.replica_id
        assert rebuilt.location == "U.Chicago"
        assert rebuilt.digest == "abc"
        assert rebuilt.descriptor == rep.descriptor
        assert rebuilt.attributes.get("tier") == 1

    def test_str(self):
        rep = Replica(dataset_name="foo", location="anl")
        assert "foo@anl" in str(rep)
