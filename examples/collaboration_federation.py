#!/usr/bin/env python3
"""A multi-institution collaboration: hyperlinks, federation, promotion.

Reconstructs Figures 2-4 of the paper as one running scenario:

* two physics groups (Wisconsin, Illinois) publish transformations in
  their own catalogs and reference each other with vdp:// hyperlinks;
* a personal catalog depends on group and collaboration data, and a
  lineage query walks all three servers (Fig 3);
* federated indexes at personal / community scope answer discovery
  without touching member catalogs (Fig 4), including a
  "community approved data" index over the entries a calibration team
  marked ``quality=approved`` (§4.2);
* Alice's result is promoted, with its recipe, to the collaboration
  catalog (§4.1).

Run:  python examples/collaboration_federation.py
"""

from repro.catalog import (
    CatalogNetwork,
    FederatedIndex,
    MemoryCatalog,
    ReferenceResolver,
)
from repro.provenance import cross_catalog_lineage


def build_collaboration():
    net = CatalogNetwork()
    wisconsin = net.register(MemoryCatalog(authority="physics.wisconsin.edu"))
    illinois = net.register(MemoryCatalog(authority="physics.illinois.edu"))
    personal = MemoryCatalog(authority="alice.uchicago.edu")

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
        DV sim.official->sim( out=@{output:"events.2003"},
                              cfg=@{input:"beam.cfg"} );
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
        # Fig 2: a compound whose stages live at Illinois.
        TR cmpsim( input cfg, inout mid=@{inout:"cmpsim.mid":""}, output z ) {
          vdp://physics.illinois.edu/sim( out=${output:mid}, cfg=${cfg} );
          vdp://physics.illinois.edu/cmp( z=${z}, raw=${input:mid} );
        }
        """
    )
    # Fig 2: Illinois derivation invoking the Wisconsin application.
    illinois.define(
        """
        DV srch-muon->vdp://physics.wisconsin.edu/srch(
            hits=@{output:"muon.hits"},
            events=@{input:"events.2003"},
            particle="muon" );
        """
    )
    # Fig 3: Alice's personal analysis depends on the group data.
    personal.define(
        """
        TR myplot( output plot, input hits ) {
          argument stdin = ${input:hits};
          argument stdout = ${output:plot};
          exec = "/home/alice/plot";
        }
        DV alice.plot->myplot( plot=@{output:"muon-mass.png"},
                               hits=@{input:"muon.hits"} );
        """
    )
    return net, wisconsin, illinois, personal


def main():
    net, wisconsin, illinois, personal = build_collaboration()
    resolver = ReferenceResolver(
        personal,
        net,
        scope_chain=["physics.illinois.edu", "physics.wisconsin.edu"],
    )

    # --- Fig 2: chase the hyperlinks ---
    print("Fig 2 — virtual data hyperlinks:")
    cmpsim = wisconsin.get_transformation("cmpsim")
    for i, callee in resolver.expand_compound(cmpsim).items():
        print(f"  cmpsim stage {i} -> {callee.name} (resolved remotely)")
    srch_ref = illinois.get_derivation("srch-muon").transformation
    srch, where = resolver.transformation(srch_ref)
    print(f"  srch-muon -> {srch.name} @ {where.authority}")

    # --- Fig 3: lineage across three servers ---
    print("\nFig 3 — cross-server audit trail for muon-mass.png:")
    print(cross_catalog_lineage(resolver, "muon-mass.png").render())

    # --- §4.2: quality, recorded as an attribute by its assessor ---
    print("\n§4.2 — quality after calib-team review:")
    for name, level in (("events.2003", "approved"), ("muon.hits", "raw")):
        dataset = illinois.get_dataset(name)
        dataset.attributes.set("quality", level, author="calib-team")
        illinois.add_dataset(dataset, replace=True)
        print(f"  {name}: {level}")

    # --- Fig 4: indexes at multiple levels ---
    print("\nFig 4 — federated indexes:")
    community = FederatedIndex("community-wide", kinds=("dataset",
                                                        "derivation"))
    approved = FederatedIndex(
        "community-approved",
        depth="deep",
        kinds=("dataset",),
        entry_filter=lambda e: e.attribute("quality") == "approved",
    )
    for catalog in (wisconsin, illinois, personal):
        if catalog.authority != "alice.uchicago.edu":
            community.attach(catalog)
            approved.attach(catalog)
    community.attach(personal)
    print(f"  community-wide index: {len(community)} entries from "
          f"{community.members()}")
    print(f"  approved-data index:  {len(approved)} entries "
          f"({[e.name for e in approved.find('dataset')]})")
    hits = community.find("derivation", name_glob="srch*")
    print(f"  discovery 'srch*' derivations -> "
          f"{[(e.authority, e.name) for e in hits]}")

    # --- §4.1: promotion — Alice's result graduates to the collab ---
    from repro.catalog import promote

    collab = MemoryCatalog(authority="collab.cms.org")
    report = promote("muon-mass.png", resolver, collab)
    print("\n§4.1 — promotion of muon-mass.png to collab.cms.org:")
    print(f"  copied {report.total()} objects "
          f"({len(report.derivations)} derivations, "
          f"{len(report.transformations)} transformations)")
    local_trail = cross_catalog_lineage(
        ReferenceResolver(collab, CatalogNetwork()), "muon-mass.png"
    )
    print(f"  recipe is self-contained at destination: "
          f"{sorted(local_trail.all_derivations())}")


if __name__ == "__main__":
    main()
