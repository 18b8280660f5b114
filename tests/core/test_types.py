"""Tests for the three-dimensional dataset type model (§3.1, App. C)."""

import pytest

from repro.core.types import (
    ANY_DATASET,
    DIMENSION_ROOTS,
    DIMENSIONS,
    DatasetType,
    TypeRegistry,
    TypeUnion,
    default_registry,
)
from repro.errors import TypeSystemError, UnknownTypeError


@pytest.fixture
def registry():
    return default_registry()


class TestRegistration:
    def test_dimension_roots_preregistered(self):
        reg = TypeRegistry()
        for dim in DIMENSIONS:
            assert reg.knows(dim, DIMENSION_ROOTS[dim])

    def test_register_under_root_by_default(self):
        reg = TypeRegistry()
        reg.register("content", "Physics")
        assert reg.parent("content", "Physics") == DIMENSION_ROOTS["content"]

    def test_register_subtype(self):
        reg = TypeRegistry()
        reg.register("content", "Physics")
        reg.register("content", "CMS-sim", parent="Physics")
        assert reg.parent("content", "CMS-sim") == "Physics"

    def test_register_is_case_insensitive(self):
        reg = TypeRegistry()
        reg.register("content", "Physics")
        assert reg.knows("content", "physics")
        assert reg.knows("content", "PHYSICS")

    def test_reregister_same_parent_is_noop(self):
        reg = TypeRegistry()
        reg.register("content", "Physics")
        reg.register("content", "Physics")  # no error

    def test_reregister_different_parent_rejected(self):
        reg = TypeRegistry()
        reg.register("content", "A")
        reg.register("content", "B")
        reg.register("content", "X", parent="A")
        with pytest.raises(TypeSystemError):
            reg.register("content", "X", parent="B")

    def test_unknown_parent_rejected(self):
        reg = TypeRegistry()
        with pytest.raises(UnknownTypeError):
            reg.register("content", "X", parent="Nope")

    def test_unknown_dimension_rejected(self):
        reg = TypeRegistry()
        with pytest.raises(TypeSystemError):
            reg.register("flavour", "X")

    def test_register_hierarchy(self):
        reg = TypeRegistry()
        reg.register_hierarchy("format", {"A": {"B": {"C": {}}, "D": {}}})
        assert reg.ancestry("format", "C") == [
            "C", "B", "A", DIMENSION_ROOTS["format"],
        ]
        assert reg.parent("format", "D") == "A"


class TestSubtyping:
    def test_reflexive(self, registry):
        assert registry.is_subtype("content", "CMS", "CMS")

    def test_child_of_parent(self, registry):
        assert registry.is_subtype("content", "Simulation", "CMS")

    def test_grandchild(self, registry):
        assert registry.is_subtype("content", "Zebra-file", "CMS")

    def test_not_ancestor(self, registry):
        assert not registry.is_subtype("content", "CMS", "Simulation")

    def test_siblings_unrelated(self, registry):
        assert not registry.is_subtype("content", "SDSS", "CMS")

    def test_everything_subtype_of_root(self, registry):
        assert registry.is_subtype(
            "content", "Zebra-file", DIMENSION_ROOTS["content"]
        )

    def test_unknown_ancestor_raises(self, registry):
        with pytest.raises(UnknownTypeError):
            registry.is_subtype("content", "CMS", "Martian")

    def test_descendants(self, registry):
        kids = registry.descendants("content", "CMS")
        assert "Simulation" in kids and "Zebra-file" in kids
        assert "SDSS" not in kids

    def test_ancestry_of_root(self, registry):
        assert registry.ancestry("format", DIMENSION_ROOTS["format"]) == [
            DIMENSION_ROOTS["format"]
        ]


class TestDatasetType:
    def test_default_is_any(self):
        assert ANY_DATASET.is_any()
        assert str(ANY_DATASET) == "Dataset"

    def test_separately_built_root_in_another_case_is_any(self):
        root = DatasetType(
            **{dim: DIMENSION_ROOTS[dim].upper() for dim in DIMENSIONS}
        )
        assert root is not ANY_DATASET and root != ANY_DATASET
        assert root.is_any()
        assert not DatasetType(content="CMS").is_any()

    def test_make_type_validates(self, registry):
        t = registry.make_type(content="CMS", format="Fileset")
        assert t.content == "CMS"
        with pytest.raises(UnknownTypeError):
            registry.make_type(content="NoSuch")

    def test_as_dict(self, registry):
        t = registry.make_type(content="CMS")
        d = t.as_dict()
        assert d["content"] == "CMS"
        assert set(d) == set(DIMENSIONS)

    def test_str_non_any(self, registry):
        t = registry.make_type(content="CMS", format="Fileset", encoding="Text")
        assert "CMS" in str(t) and "Fileset" in str(t)


class TestConformance:
    def test_exact_match_conforms(self, registry):
        t = registry.make_type(content="Simulation")
        assert registry.conforms(t, t)

    def test_specialization_conforms(self, registry):
        actual = registry.make_type(
            content="Zebra-file", format="Simple", encoding="ASCII"
        )
        formal = registry.make_type(
            content="CMS", format="Fileset", encoding="Text"
        )
        assert registry.conforms(actual, formal)

    def test_generalization_does_not_conform(self, registry):
        actual = registry.make_type(content="CMS")
        formal = registry.make_type(content="Zebra-file")
        assert not registry.conforms(actual, formal)

    def test_must_conform_in_every_dimension(self, registry):
        actual = registry.make_type(content="Zebra-file", encoding="SAS")
        formal = registry.make_type(content="CMS", encoding="Text")
        assert not registry.conforms(actual, formal)

    def test_anything_conforms_to_any(self, registry):
        actual = registry.make_type(
            content="Zebra-file", format="Tar-archive", encoding="EBCDIC"
        )
        assert registry.conforms(actual, ANY_DATASET)

    def test_union_accepts_any_member(self, registry):
        union = TypeUnion(
            members=(
                registry.make_type(content="CMS"),
                registry.make_type(content="SDSS"),
            )
        )
        assert union.accepts(registry.make_type(content="FITS-file"), registry)
        assert union.accepts(registry.make_type(content="Simulation"), registry)
        assert not union.accepts(
            registry.make_type(content="UChicago"), registry
        )

    def test_memoized_answers_equal_the_unmemoized_rule(self, registry):
        """Every registered type (each dimension's names, the others at
        their roots) against every single-type and two-type union, twice
        — the second pass answers from the memo — and again after a
        registration widens the hierarchy."""

        def types():
            return [
                DatasetType(**{**DIMENSION_ROOTS, dim: name})
                for dim in DIMENSIONS
                for name in registry.names(dim)
            ]

        def check():
            every = types()
            unions = [(t,) for t in every] + list(zip(every, every[1:]))
            for _ in range(2):
                for actual in every:
                    for formals in unions:
                        expected = any(
                            registry.conforms(actual, f) for f in formals
                        )
                        assert (
                            registry.conforms_to_any(actual, formals)
                            == expected
                        ), (actual, formals)

        check()
        registry.register("content", "Zebra-v2", "Zebra-file")
        check()
        with pytest.raises(UnknownTypeError):
            registry.conforms_to_any(
                DatasetType(content="Nowhere"), (ANY_DATASET,)
            )

    def test_empty_union_rejected(self):
        with pytest.raises(TypeSystemError):
            TypeUnion(members=())

    def test_union_str(self, registry):
        union = TypeUnion(members=(registry.make_type(content="CMS"),))
        assert "CMS" in str(union)


class TestDefaultRegistry:
    def test_appendix_c_formats(self, registry):
        for name in ("Fileset", "Tar-archive", "SQL-table", "Excel-95"):
            assert registry.knows("format", name)

    def test_appendix_c_encodings(self, registry):
        for name in ("ASCII", "EBCDIC", "HDF-5-file", "SAS-transport"):
            assert registry.knows("encoding", name)

    def test_appendix_c_contents(self, registry):
        for name in ("UChicago-student-record", "Geant-4-file", "FITS-file"):
            assert registry.knows("content", name)

    def test_iteration_yields_all_nodes(self, registry):
        nodes = list(registry)
        assert ("format", "Tar-archive", "Fileset") in nodes
        assert len(nodes) > 40
