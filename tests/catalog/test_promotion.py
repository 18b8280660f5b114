"""Tests for publishing definitions between catalogs (§4.1 promotion)."""

import pytest

from repro.catalog.memory import MemoryCatalog
from repro.catalog.promotion import promote
from repro.catalog.resolver import CatalogNetwork, ReferenceResolver
from repro.errors import NotFoundError
from repro.provenance.lineage import lineage_report


@pytest.fixture
def world():
    """Alice's personal catalog derives from group-level data."""
    net = CatalogNetwork()
    group = net.register(MemoryCatalog(authority="group.org"))
    personal = MemoryCatalog(authority="alice.org")
    group.define(
        """
        TR reduce( output red, input raw ) {
          argument stdin = ${input:raw};
          argument stdout = ${output:red};
          exec = "/grp/reduce";
        }
        DV reduce1->reduce( red=@{output:"reduced.v1"},
                            raw=@{input:"raw.2002"} );
        """
    )
    personal.define(
        """
        TR polish( output fin, input red ) {
          argument stdin = ${input:red};
          argument stdout = ${output:fin};
          exec = "/home/alice/polish";
        }
        TR megapolish( input red, inout mid=@{inout:"mp.mid":""},
                       output fin ) {
          polish( fin=${output:mid}, red=${red} );
          polish( fin=${fin}, red=${input:mid} );
        }
        DV mine->polish( fin=@{output:"alice.result"},
                         red=@{input:"reduced.v1"} );
        DV mine2->megapolish( fin=@{output:"alice.double"},
                              red=@{input:"reduced.v1"} );
        """
    )
    resolver = ReferenceResolver(personal, net, scope_chain=["group.org"])
    collaboration = MemoryCatalog(authority="collab.org")
    return resolver, personal, group, collaboration


class TestPromote:
    def test_full_recipe_promoted(self, world):
        resolver, personal, group, collaboration = world
        report = promote("alice.result", resolver, collaboration)
        # The whole chain: alice.result <- mine <- reduced.v1 <- reduce1
        assert "alice.result" in report.datasets
        assert "reduced.v1" in report.datasets
        assert set(report.derivations) == {"mine", "reduce1"}
        assert set(report.transformations) == {"polish@1.0", "reduce@1.0"}
        # The promoted recipe is self-contained: lineage works at the
        # destination without any scope chain.
        trail = lineage_report(collaboration, "alice.result")
        assert trail.all_derivations() == {"mine", "reduce1"}

    def test_promotion_localizes_references(self, world):
        resolver, _, _, collaboration = world
        promote("alice.result", resolver, collaboration)
        for name in ("mine", "reduce1"):
            assert collaboration.get_derivation(name).transformation.is_local

    def test_compound_callees_come_along(self, world):
        resolver, _, _, collaboration = world
        report = promote("alice.double", resolver, collaboration)
        assert "megapolish@1.0" in report.transformations
        assert "polish@1.0" in report.transformations

    def test_idempotent(self, world):
        resolver, _, _, collaboration = world
        promote("alice.result", resolver, collaboration)
        second = promote("alice.result", resolver, collaboration)
        assert second.total() == 0
        assert second.skipped  # everything already there

    def test_without_provenance(self, world):
        resolver, _, _, collaboration = world
        report = promote(
            "alice.result", resolver, collaboration,
            include_provenance=False,
        )
        assert report.datasets == ["alice.result"]
        assert report.derivations == []
        assert collaboration.counts()["transformation"] == 0

    def test_unknown_dataset(self, world):
        resolver, _, _, collaboration = world
        with pytest.raises(NotFoundError):
            promote("nope", resolver, collaboration)

    def test_invocations_stay_behind(self, world):
        resolver, personal, _, collaboration = world
        from repro.core.invocation import Invocation

        personal.add_invocation(Invocation(derivation_name="mine"))
        promote("alice.result", resolver, collaboration)
        assert collaboration.invocations_of("mine") == []
