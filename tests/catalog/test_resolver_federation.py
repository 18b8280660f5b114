"""Tests for cross-catalog resolution (Figs 2-3) and federation (Fig 4)."""

import weakref

import pytest

from repro.catalog.federation import FederatedIndex, scan_catalogs
from repro.catalog.memory import MemoryCatalog
from repro.catalog.resolver import CatalogNetwork, ReferenceResolver
from repro.core.dataset import Dataset
from repro.core.naming import VDPRef
from repro.core.types import DatasetType
from repro.errors import FederationError, ReferenceError_


def fig2_network():
    """The exact Fig 2 scenario: Wisconsin defines srch and cmpsim
    (composed of Illinois' sim and cmp); Illinois defines srch-muon
    against Wisconsin's srch."""
    net = CatalogNetwork()
    wisconsin = net.register(MemoryCatalog(authority="physics.wisconsin.edu"))
    illinois = net.register(MemoryCatalog(authority="physics.illinois.edu"))
    illinois.define(
        """
        TR sim( output out, input cfg ) {
          argument stdin = ${input:cfg};
          argument stdout = ${output:out};
          exec = "/usr/bin/sim";
        }
        TR cmp( output z, input raw ) {
          argument stdin = ${input:raw};
          argument stdout = ${output:z};
          exec = "/usr/bin/cmp";
        }
        """
    )
    wisconsin.define(
        """
        TR srch( output hits, input events, none particle="any" ) {
          argument = "-p "${none:particle};
          argument stdin = ${input:events};
          argument stdout = ${output:hits};
          exec = "/usr/bin/srch";
        }
        TR cmpsim( input cfg, inout mid=@{inout:"cmpsim.mid":""}, output z ) {
          vdp://physics.illinois.edu/sim( out=${output:mid}, cfg=${cfg} );
          vdp://physics.illinois.edu/cmp( z=${z}, raw=${input:mid} );
        }
        """
    )
    illinois.define(
        """
        DV srch-muon->vdp://physics.wisconsin.edu/srch(
            hits=@{output:"muon.hits"}, events=@{input:"events.all"},
            particle="muon" );
        """
    )
    return net, wisconsin, illinois


class TestCatalogNetwork:
    def test_register_requires_authority(self):
        with pytest.raises(ReferenceError_):
            CatalogNetwork().register(MemoryCatalog())

    def test_lookup(self):
        net, wisconsin, _ = fig2_network()
        assert net.catalog("physics.wisconsin.edu") is wisconsin
        with pytest.raises(ReferenceError_):
            net.catalog("nowhere.edu")

    def test_iteration_sorted(self):
        net, _, _ = fig2_network()
        assert net.authorities() == [
            "physics.illinois.edu", "physics.wisconsin.edu",
        ]
        assert len(net) == 2
        assert "physics.illinois.edu" in net


class TestFig2Resolution:
    def test_derivation_to_remote_transformation(self):
        net, wisconsin, illinois = fig2_network()
        resolver = ReferenceResolver(illinois, net)
        dv = illinois.get_derivation("srch-muon")
        tr, where = resolver.transformation(dv.transformation)
        assert tr.name == "srch"
        assert where is wisconsin

    def test_compound_with_remote_callees(self):
        net, wisconsin, illinois = fig2_network()
        resolver = ReferenceResolver(wisconsin, net)
        cmpsim = wisconsin.get_transformation("cmpsim")
        callees = resolver.expand_compound(cmpsim)
        assert callees[0].name == "sim"
        assert callees[1].name == "cmp"

    def test_dangling_hyperlink(self):
        net, wisconsin, _ = fig2_network()
        resolver = ReferenceResolver(wisconsin, net)
        with pytest.raises(ReferenceError_):
            resolver.transformation(
                VDPRef("ghost", authority="physics.illinois.edu",
                       kind="transformation")
            )

    def test_local_preferred_over_scope_chain(self):
        net, wisconsin, illinois = fig2_network()
        illinois.define('TR srch( output o ) { exec = "/local/srch"; }')
        resolver = ReferenceResolver(
            illinois, net, scope_chain=["physics.wisconsin.edu"]
        )
        tr, where = resolver.transformation(VDPRef("srch"))
        assert where is illinois


class TestFig3CrossServerLineage:
    def make_tiers(self):
        """Personal -> group -> collaboration provenance chain."""
        net = CatalogNetwork()
        collab = net.register(MemoryCatalog(authority="collab.org"))
        group = net.register(MemoryCatalog(authority="group.org"))
        personal = MemoryCatalog(authority="me.org")
        collab.define(
            """
            TR calibrate( output cal, input raw ) {
              argument stdin = ${input:raw};
              argument stdout = ${output:cal};
              exec = "/bin/calib";
            }
            DV calib1->calibrate( cal=@{output:"calibrated.v1"},
                                  raw=@{input:"detector.raw"} );
            """
        )
        group.define(
            """
            TR reduce( output red, input cal ) {
              argument stdin = ${input:cal};
              argument stdout = ${output:red};
              exec = "/bin/reduce";
            }
            DV reduce1->reduce( red=@{output:"reduced.v1"},
                                cal=@{input:"calibrated.v1"} );
            """
        )
        personal.define(
            """
            TR myplot( output plot, input red ) {
              argument stdin = ${input:red};
              argument stdout = ${output:plot};
              exec = "/bin/plot";
            }
            DV plot1->myplot( plot=@{output:"myplot.png"},
                              red=@{input:"reduced.v1"} );
            """
        )
        resolver = ReferenceResolver(
            personal, net, scope_chain=["group.org", "collab.org"]
        )
        return resolver

    def test_producers_cross_servers(self):
        resolver = self.make_tiers()
        producers = resolver.producers_of("reduced.v1")
        assert [(dv.name, where) for dv, where in producers] == [
            ("reduce1", "group.org")
        ]

    def test_full_chain(self):
        from repro.provenance.lineage import cross_catalog_lineage

        resolver = self.make_tiers()
        report = cross_catalog_lineage(resolver, "myplot.png")
        assert report.depth() == 3
        assert report.all_derivations() == {"plot1", "reduce1", "calib1"}
        rendered = report.render()
        assert "@group.org" in rendered
        assert "@collab.org" in rendered


@pytest.fixture
def four_catalogs():
    """Fig 4: four catalogs at different locations/scopes."""
    net = CatalogNetwork()
    catalogs = []
    for i, authority in enumerate(
        ["personal.a", "personal.b", "group.x", "collab.org"]
    ):
        catalog = net.register(MemoryCatalog(authority=authority))
        for j in range(5):
            catalog.add_dataset(
                Dataset(
                    name=f"ds-{authority.split('.')[0]}-{i}{j}",
                    dataset_type=DatasetType(content="SDSS"),
                    attributes={"quality": "approved" if j % 2 == 0 else "raw"},
                )
            )
        catalogs.append(catalog)
    return catalogs


class TestFederatedIndex:
    def test_attach_and_count(self, four_catalogs):
        index = FederatedIndex("all", kinds=("dataset",))
        for catalog in four_catalogs:
            index.attach(catalog)
        assert len(index) == 20
        assert index.members() == [c.authority for c in four_catalogs]

    def test_attach_requires_authority(self):
        index = FederatedIndex("x")
        with pytest.raises(FederationError):
            index.attach(MemoryCatalog())

    def test_find_matches_scan(self, four_catalogs):
        index = FederatedIndex("all", kinds=("dataset",))
        for catalog in four_catalogs:
            index.attach(catalog)
        via_index = {
            (e.authority, e.name) for e in index.find("dataset", name_glob="ds-*")
        }
        via_scan = set(scan_catalogs(four_catalogs, "dataset", name_glob="ds-*"))
        assert via_index == via_scan

    def test_type_query(self, four_catalogs):
        index = FederatedIndex("all", kinds=("dataset",))
        for catalog in four_catalogs:
            index.attach(catalog)
        hits = index.find("dataset", conforms_to=DatasetType(content="SDSS"))
        assert len(hits) == 20
        assert index.find("dataset", conforms_to=DatasetType(content="CMS")) == []

    def test_live_mode_tracks_changes(self, four_catalogs):
        index = FederatedIndex("live", mode="live", kinds=("dataset",))
        index.attach(four_catalogs[0])
        four_catalogs[0].add_dataset(Dataset(name="fresh"))
        assert any(e.name == "fresh" for e in index.find("dataset"))
        four_catalogs[0].remove_dataset("fresh")
        assert not any(e.name == "fresh" for e in index.find("dataset"))

    def test_a_dropped_federation_stops_indexing(
        self, four_catalogs, monkeypatch
    ):
        """Members hold a federation's hooks weakly: dropping it frees
        it and ends its indexing, and the members join a new one."""
        indexed = []
        index_object = FederatedIndex._index_object

        def recording(index, catalog, kind, key):
            indexed.append(index.name)
            index_object(index, catalog, kind, key)

        monkeypatch.setattr(FederatedIndex, "_index_object", recording)
        first = FederatedIndex("first", kinds=("dataset",))
        for catalog in four_catalogs[:2]:
            first.attach(catalog)
        gone = weakref.ref(first)
        del first
        assert gone() is None
        second = FederatedIndex("second", kinds=("dataset",))
        for catalog in four_catalogs[:2]:
            second.attach(catalog)
        indexed.clear()
        four_catalogs[1].add_dataset(Dataset(name="fresh"))
        assert indexed == ["second"]
        assert [e.authority for e in second.find("dataset", "fresh")] == [
            four_catalogs[1].authority
        ]

    def test_periodic_mode_goes_stale(self, four_catalogs):
        index = FederatedIndex("stale", mode="periodic", kinds=("dataset",))
        index.attach(four_catalogs[0])
        before = len(index)
        four_catalogs[0].add_dataset(Dataset(name="fresh"))
        assert len(index) == before  # not yet visible
        assert index.pending_updates == 1
        index.refresh()
        assert len(index) == before + 1
        assert index.pending_updates == 0

    def test_deep_index_attribute_query(self, four_catalogs):
        index = FederatedIndex("deep", depth="deep", kinds=("dataset",))
        for catalog in four_catalogs:
            index.attach(catalog)
        approved = index.find("dataset", attributes={"quality": "approved"})
        assert len(approved) == 12  # 3 of 5 per catalog

    def test_shallow_index_rejects_attribute_query(self, four_catalogs):
        index = FederatedIndex("shallow", depth="shallow", kinds=("dataset",))
        index.attach(four_catalogs[0])
        with pytest.raises(FederationError):
            index.find("dataset", attributes={"quality": "approved"})

    def test_entry_filter_scopes_index(self, four_catalogs):
        index = FederatedIndex(
            "approved-only",
            depth="deep",
            kinds=("dataset",),
            entry_filter=lambda e: e.attribute("quality") == "approved",
        )
        for catalog in four_catalogs:
            index.attach(catalog)
        assert len(index) == 12

    def test_entry_ref_resolves(self, four_catalogs):
        net = CatalogNetwork()
        for catalog in four_catalogs:
            net.register(catalog)
        index = FederatedIndex("all", kinds=("dataset",))
        index.attach(four_catalogs[2])
        entry = index.find("dataset")[0]
        resolver = ReferenceResolver(four_catalogs[0], net)
        ds, where = resolver.dataset(entry.ref())
        assert ds.name == entry.name
        assert where.authority == entry.authority

    def test_transformations_and_derivations_indexed(self, four_catalogs):
        four_catalogs[0].define(
            'TR t( output o ) { exec = "/b"; } DV d->t( o=@{output:"x"} );'
        )
        index = FederatedIndex("all")
        index.attach(four_catalogs[0])
        assert index.find("transformation", name_glob="t")
        assert index.find("derivation", name_glob="d")
