"""Stored records share their immutable empties.

A put stores a private record, and every attribute-less record of
every kind shares one read-only attribute set (``NO_ATTRIBUTES``);
every environment-less derivation shares one read-only environment
(``NO_ENVIRONMENT``).  So a write through a stored record's shared
empty must raise — it would otherwise reach every record — while each
``get_*`` copy has containers of its own, whose writes leave the store
unchanged.  Records a document backend decodes (after a reopen) share
the same empties.
"""

from __future__ import annotations

import pytest

from repro.catalog.filetree import FileTreeCatalog
from repro.catalog.memory import MemoryCatalog
from repro.catalog.payloads import NO_ENVIRONMENT
from repro.catalog.sqlite import SQLiteCatalog
from repro.core.attributes import NO_ATTRIBUTES
from repro.core.dataset import Dataset
from repro.core.invocation import Invocation
from repro.core.replica import Replica

TR = (
    'TR copy( output o, input i ) { argument = ${input:i}" "${output:o}; '
    'exec = "/bin/cp"; }\n'
)
DV = 'DV c1->copy( o=@{output:"b"}, i=@{input:"a"} );\n'

BACKENDS = {
    "memory": lambda path: MemoryCatalog(),
    "sqlite": lambda path: SQLiteCatalog(str(path / "vdc.db")),
    "filetree": lambda path: FileTreeCatalog(path / "vdc"),
}


def populate(catalog) -> dict[str, str]:
    """One attribute-less object of every kind: kind -> key."""
    catalog.define(TR + DV)
    replica = Replica(dataset_name="a", location="anl")
    catalog.add_replica(replica)
    invocation = Invocation(derivation_name="c1")
    catalog.add_invocation(invocation)
    return {
        "dataset": "a",
        "replica": replica.replica_id,
        "transformation": "copy@1.0",
        "derivation": "c1",
        "invocation": invocation.invocation_id,
    }


def get(catalog, kind: str, key: str):
    """The public accessor of a kind: an independent copy."""
    if kind == "transformation":
        return catalog.get_transformation(key.partition("@")[0])
    return getattr(catalog, f"get_{kind}")(key)


def handles(tmp_path, backend):
    """The live handle, then (document backends) a reopened one,
    whose records are decoded from their documents."""
    catalog = BACKENDS[backend](tmp_path)
    keys = populate(catalog)
    yield catalog, keys
    if backend != "memory":
        yield BACKENDS[backend](tmp_path), keys


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_copies_are_private_and_shared_empties_refuse_writes(
    tmp_path, backend
):
    for catalog, keys in handles(tmp_path, backend):
        for kind, key in keys.items():
            record = catalog._record(kind, key)
            assert record.attributes is NO_ATTRIBUTES, kind
            with pytest.raises(TypeError):
                record.attributes.set("owner", "someone")
            with pytest.raises(TypeError):
                record.attributes["owner"] = "someone"
            assert len(NO_ATTRIBUTES) == 0

            copy = get(catalog, kind, key)
            assert copy.attributes is not NO_ATTRIBUTES
            copy.attributes["owner"] = "someone"
            assert "owner" not in get(catalog, kind, key).attributes
            assert "owner" not in catalog._record(kind, key).attributes

        record = catalog._record("derivation", "c1")
        assert record.environment is NO_ENVIRONMENT
        with pytest.raises(TypeError):
            record.environment["PATH"] = "/bin"
        copy = catalog.get_derivation("c1")
        copy.environment["PATH"] = "/bin"
        assert catalog.get_derivation("c1").environment == {}
        assert len(NO_ENVIRONMENT) == 0


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_record_with_attributes_owns_them(tmp_path, backend):
    catalog = BACKENDS[backend](tmp_path)
    mine = Dataset(name="x", attributes={"run": 7})
    catalog.add_dataset(mine)
    mine.attributes["run"] = 8
    record = catalog._record("dataset", "x")
    assert record.attributes is not mine.attributes
    assert record.attributes["run"] == 7
    copy = catalog.get_dataset("x")
    copy.attributes["run"] = 9
    assert catalog.get_dataset("x").attributes["run"] == 7
