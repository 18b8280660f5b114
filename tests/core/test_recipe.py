"""``stamp_recipe`` splices a memoized transformation half into the
recipe blob; its digest must stay :func:`recipe_digest`'s, byte for
byte, through every kind of redefinition."""

from repro.catalog.memory import MemoryCatalog
from repro.core.invocation import Invocation
from repro.core.recipe import (
    RECIPE_DIGEST_ATTR,
    TR_VERSION_ATTR,
    recipe_digest,
    stamp_recipe,
)

TR_V1 = """
TR sim( output o, input i, none level="1" ) {
  argument = "-l "${none:level}" "${input:i}" "${output:o};
  exec = "/bin/sim";
}
"""

DVS = """
DV src->sim( o=@{output:"a.out"}, i=@{input:"raw"} );
DV next->sim( o=@{output:"b.out"}, i=@{input:"a.out"}, level="2" );
"""


def stamped(dv, tr) -> tuple[str, str]:
    invocation = Invocation(derivation_name=dv.name, status="success")
    stamp_recipe(invocation, dv, tr)
    return (
        invocation.attributes.get(TR_VERSION_ATTR),
        invocation.attributes.get(RECIPE_DIGEST_ATTR),
    )


def assert_stamps_match(catalog) -> set[str]:
    """Every derivation's stamp equals the uncached digest, stamped
    twice from the catalog's shared record (the second hits the
    memo); returns the digests."""
    digests = set()
    for name in ("src", "next"):
        dv = catalog.get_derivation(name)
        tr = catalog._transformation_record(dv.transformation.name)
        expected = recipe_digest(dv.to_dict(), tr.to_dict())
        assert stamped(dv, tr) == (tr.version, expected)
        assert stamped(dv, tr) == (tr.version, expected)
        digests.add(expected)
    return digests


def test_stamp_equals_the_uncached_digest_across_redefinitions():
    catalog = MemoryCatalog()
    catalog.define(TR_V1 + DVS)
    seen = [assert_stamps_match(catalog)]
    # A derivation rebound, a transformation body replaced in place,
    # a new transformation version: each is a new recipe.
    catalog.define(
        'DV next->sim( o=@{output:"b.out"}, i=@{input:"a.out"}, '
        'level="3" );',
        replace=True,
    )
    seen.append(assert_stamps_match(catalog))
    catalog.define(TR_V1.replace("/bin/sim", "/bin/sim-fixed"), replace=True)
    seen.append(assert_stamps_match(catalog))
    catalog.define(TR_V1.replace("TR sim(", "TR sim@2.0("))
    seen.append(assert_stamps_match(catalog))
    for earlier, later in zip(seen, seen[1:]):
        assert earlier != later
    # Attributes are metadata: no new digest.  (A stored record is
    # read-only: annotate its copy, which carries the record's memo.)
    tr = catalog._transformation_record("sim").copy()
    before = stamped(catalog.get_derivation("src"), tr)
    tr.attributes.set("owner", "someone")
    assert stamped(catalog.get_derivation("src"), tr) == before


def test_a_mutated_copy_is_not_stamped_from_the_stale_memo():
    catalog = MemoryCatalog()
    catalog.define(TR_V1 + DVS)
    dv = catalog.get_derivation("src")
    tr = catalog._transformation_record("sim")
    stamped(dv, tr)  # fills the memo, which the copy shares
    copy = tr.copy()
    copy.version = "9.0"
    assert stamped(dv, copy) == (
        "9.0", recipe_digest(dv.to_dict(), copy.to_dict())
    )
    assert stamped(dv, copy) != stamped(dv, tr)
