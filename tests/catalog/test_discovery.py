"""Tests for catalog discovery queries (§2 Discovery, §5.5)."""

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.core.dataset import Dataset
from repro.core.descriptors import FileDescriptor
from repro.core.types import DatasetType


@pytest.fixture
def loaded():
    catalog = MemoryCatalog()
    catalog.define(
        """
        TR galaxy-search( output clusters : SDSS, input survey : FITS-file ) {
          argument stdin = ${input:survey};
          argument stdout = ${output:clusters};
          exec = "/bin/maxbcg";
        }
        TR event-sim( output events : Simulation, none seed="1" ) {
          argument = "-s "${none:seed};
          argument stdout = ${output:events};
          exec = "/bin/sim";
        }
        DV search1->galaxy-search( clusters=@{output:"clusters.run1"},
                                   survey=@{input:"survey.2002"} );
        DV sim1->event-sim( events=@{output:"events.run1"}, seed="7" );
        """
    )
    catalog.add_dataset(
        Dataset(
            name="survey.2003",
            dataset_type=DatasetType(content="FITS-file"),
            descriptor=FileDescriptor(path="/data/survey", size=10),
            attributes={"year": 2003},
        ),
        replace=False,
    )
    return catalog


class TestFindDatasets:
    def test_by_glob(self, loaded):
        names = [d.name for d in loaded.find_datasets(name_glob="survey.*")]
        assert names == ["survey.2002", "survey.2003"]

    def test_by_type(self, loaded):
        hits = loaded.find_datasets(conforms_to=DatasetType(content="SDSS"))
        assert {d.name for d in hits} >= {"survey.2003", "clusters.run1"}
        none = loaded.find_datasets(conforms_to=DatasetType(content="UChicago"))
        assert none == []

    def test_by_attributes(self, loaded):
        hits = loaded.find_datasets(attributes={"year": 2003})
        assert [d.name for d in hits] == ["survey.2003"]

    def test_by_virtual_state(self, loaded):
        virtual = {d.name for d in loaded.find_datasets(virtual=True)}
        materialized = {d.name for d in loaded.find_datasets(virtual=False)}
        assert "clusters.run1" in virtual
        assert materialized == {"survey.2003"}

    def test_combined_filters(self, loaded):
        hits = loaded.find_datasets(
            name_glob="survey.*", attributes={"year": 2003}
        )
        assert len(hits) == 1


class TestFindTransformations:
    def test_the_paper_discovery_question(self, loaded):
        """'I want to search an astronomical database for galaxies with
        certain characteristics. If a program that performs this
        analysis exists, I won't have to write one from scratch.'"""
        hits = loaded.find_transformations(
            consumes=DatasetType(content="FITS-file")
        )
        assert [t.name for t in hits] == ["galaxy-search"]

    def test_by_produces(self, loaded):
        hits = loaded.find_transformations(
            produces=DatasetType(content="Zebra-file")
        )
        # event-sim outputs Simulation; Zebra-file is a subtype, so a
        # Zebra-file product can be produced by it.
        assert [t.name for t in hits] == ["event-sim"]

    def test_by_glob(self, loaded):
        assert [
            t.name for t in loaded.find_transformations(name_glob="event*")
        ] == ["event-sim"]

    def test_no_match(self, loaded):
        assert loaded.find_transformations(name_glob="zzz*") == []


class TestFindDerivations:
    def test_by_transformation(self, loaded):
        assert [
            d.name
            for d in loaded.find_derivations(transformation="event-sim")
        ] == ["sim1"]

    def test_by_produces(self, loaded):
        """'If the program has already been run and the results stored,
        I'll save weeks of computation.'"""
        assert [
            d.name for d in loaded.find_derivations(produces="clusters.run1")
        ] == ["search1"]

    def test_by_consumes(self, loaded):
        assert [
            d.name for d in loaded.find_derivations(consumes="survey.2002")
        ] == ["search1"]

    def test_by_glob(self, loaded):
        assert [
            d.name for d in loaded.find_derivations(name_glob="s*1")
        ] == ["search1", "sim1"]

    def test_produces_and_transformation(self, loaded):
        assert (
            loaded.find_derivations(
                produces="clusters.run1", transformation="event-sim"
            )
            == []
        )


class TestGlobsAreCaseSensitive:
    """Catalog keys are case-sensitive on every host; so are the globs
    that search them (``fnmatch.fnmatch`` would fold case wherever
    ``os.path.normcase`` does)."""

    @pytest.fixture(autouse=True)
    def case_folding_host(self, monkeypatch):
        monkeypatch.setattr("os.path.normcase", str.lower)

    def test_every_finder(self, loaded):
        assert loaded.find_datasets(name_glob="SURVEY.*") == []
        assert len(loaded.find_datasets(name_glob="survey.*")) == 2
        assert loaded.find_transformations(name_glob="EVENT*") == []
        assert len(loaded.find_transformations(name_glob="event*")) == 1
        assert loaded.find_derivations(name_glob="S*1") == []
        assert len(loaded.find_derivations(name_glob="s*1")) == 2

    def test_mixed_case_keys_stay_distinct(self, loaded):
        loaded.add_dataset(Dataset(name="Survey.2002"))
        assert [d.name for d in loaded.find_datasets(name_glob="S*")] == [
            "Survey.2002"
        ]

    def test_federated_index(self, loaded):
        from repro.catalog.federation import FederatedIndex

        loaded.authority = "host.example"
        index = FederatedIndex("all", kinds=("dataset",))
        index.attach(loaded)
        assert index.find("dataset", name_glob="SURVEY.*") == []
        assert len(index.find("dataset", name_glob="survey.*")) == 2
