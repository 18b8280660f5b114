"""Decode-once transformations and stamp-validated cost models.

The catalog decodes a stored transformation once and hands every
reader a copy; the estimator reuses a hint/fallback model until the
indexed history of its transformation changes.  Both are caches, so
these tests pin the two things a cache can get wrong, on every
backend: *isolation* (a reader's mutations never reach the next
reader) and *invalidation* (replace, remove and a rolled-back
transaction each change what the next reader sees — including the
``recipe.digest`` an executor would stamp, checked against a digest
computed without any cache).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.catalog.base import _transformation_from_payload
from repro.core.invocation import Invocation
from repro.core.recipe import RECIPE_DIGEST_ATTR, recipe_digest, stamp_recipe
from repro.core.transformation import ArgumentTemplate
from repro.estimator.cost import Estimator
from tests.conftest import DIAMOND_VDL
from tests.estimator.test_estimator import invocation

SIM_V2 = """
TR sim@2.0( output o, input i ) {
  argument = "--fast";
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/sim2";
}
"""


class Boom(Exception):
    pass


def stamped_digest(catalog, dv_name="s1"):
    """The digest an executor would stamp for ``dv_name`` right now."""
    dv = catalog.get_derivation(dv_name)
    tr = catalog.get_transformation(dv.transformation.name)
    inv = Invocation(derivation_name=dv_name, status="success")
    stamp_recipe(inv, dv, tr)
    return inv.attributes.get(RECIPE_DIGEST_ATTR)


def uncached_digest(catalog, dv_name="s1"):
    """The same digest from a fresh XML parse and serialization."""
    dv = catalog.get_derivation(dv_name)
    tr = catalog.get_transformation(dv.transformation.name)
    payload = catalog._store_get("transformation", tr.qualified_name)
    return recipe_digest(
        dv.to_dict(), _transformation_from_payload(payload).to_dict()
    )


def replace_sim_body(catalog, executable):
    tr = catalog.get_transformation("sim")
    tr.executable = executable
    catalog.add_transformation(tr, replace=True)


class TestReaderIsolation:
    def test_mutations_do_not_reach_the_next_reader(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        pristine = any_catalog.get_transformation("ana").to_dict()
        tr = any_catalog.get_transformation("ana")
        tr.attributes.set("cost.cpu_seconds", 99.0)
        tr.executable = "/bin/other"
        tr.arguments[0].parts = ("mutated",)
        tr.arguments = tr.arguments[:1]
        tr.environment["X"] = ArgumentTemplate(parts=("y",))
        tr.profile_hints["k"] = "v"
        again = any_catalog.get_transformation("ana")
        assert again is not tr
        assert again.to_dict() == pristine
        assert again.attributes.get("cost.cpu_seconds") is None
        assert again.executable == "/bin/ana"
        assert len(again.arguments) == 2
        assert again.arguments[0].parts != ("mutated",)
        assert again.environment == {} and again.profile_hints == {}

    def test_a_mutated_copy_serializes_its_own_state(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        tr = any_catalog.get_transformation("ana")
        pristine = tr.to_dict()["xml"]
        tr.arguments[0].parts = ("mutated",)
        assert "mutated" in tr.to_dict()["xml"]
        tr.environment["X"] = ArgumentTemplate(parts=("y",))
        assert 'variable="X"' in tr.to_dict()["xml"]
        tr.version = "3.0"
        assert 'version="3.0"' in tr.to_dict()["xml"]
        assert any_catalog.get_transformation("ana").to_dict()["xml"] == (
            pristine
        )

    def test_listing_goes_through_the_same_copies(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        for tr in any_catalog.transformations():
            tr.executable = "/bin/clobbered"
        assert sorted(
            tr.executable for tr in any_catalog.transformations()
        ) == ["/bin/ana", "/bin/gen", "/bin/sim"]


class TestInvalidation:
    def test_replace_changes_object_and_digest(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        before = stamped_digest(any_catalog)
        assert before == uncached_digest(any_catalog)
        replace_sim_body(any_catalog, "/bin/sim-patched")
        assert any_catalog.get_transformation("sim").executable == (
            "/bin/sim-patched"
        )
        after = stamped_digest(any_catalog)
        assert after != before
        assert after == uncached_digest(any_catalog)

    def test_attribute_only_replace_keeps_the_digest(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        before = stamped_digest(any_catalog)
        tr = any_catalog.get_transformation("sim")
        tr.attributes.set("cost.cpu_seconds", 3.0)
        any_catalog.add_transformation(tr, replace=True)
        assert any_catalog.get_transformation("sim").attributes.get(
            "cost.cpu_seconds"
        ) == 3.0
        assert stamped_digest(any_catalog) == before

    def test_remove_falls_back_to_the_older_version(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        v1 = stamped_digest(any_catalog)
        any_catalog.define(SIM_V2)
        assert any_catalog.get_transformation("sim").version == "2.0"
        v2 = stamped_digest(any_catalog)
        assert v2 != v1 and v2 == uncached_digest(any_catalog)
        any_catalog.remove_transformation("sim", "2.0")
        assert any_catalog.get_transformation("sim").version == "1.0"
        assert any_catalog.get_transformation("sim").executable == "/bin/sim"
        assert stamped_digest(any_catalog) == v1

    def test_rolled_back_transaction_restores_both(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        before = stamped_digest(any_catalog)
        with pytest.raises(Boom):
            with any_catalog.transaction():
                replace_sim_body(any_catalog, "/bin/sim-doomed")
                inside = stamped_digest(any_catalog)
                assert any_catalog.get_transformation("sim").executable == (
                    "/bin/sim-doomed"
                )
                raise Boom
        assert inside != before
        assert any_catalog.get_transformation("sim").executable == "/bin/sim"
        assert stamped_digest(any_catalog) == before
        assert before == uncached_digest(any_catalog)


def with_gen_hint(catalog, cpu):
    tr = catalog.get_transformation("gen")
    tr.attributes.set("cost.cpu_seconds", cpu)
    catalog.add_transformation(tr, replace=True)


class TestEstimatorValidation:
    def test_hints_then_fitted_after_first_invocation(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        with_gen_hint(any_catalog, 42.0)
        estimator = Estimator(any_catalog)
        hinted = estimator.model_for("gen")
        assert not hinted.is_fitted and hinted.predict_cpu_seconds() == 42.0
        assert estimator.model_for("gen") is hinted  # reused, not rebuilt
        any_catalog.add_invocation(invocation("g1", 7.0))
        fitted = estimator.model_for("gen")
        assert fitted.is_fitted and fitted.predict_cpu_seconds() == 7.0

    def test_changed_hint_is_seen(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        with_gen_hint(any_catalog, 42.0)
        estimator = Estimator(any_catalog)
        assert estimator.model_for("gen").predict_cpu_seconds() == 42.0
        with_gen_hint(any_catalog, 5.0)
        assert estimator.model_for("gen").predict_cpu_seconds() == 5.0

    def test_rolled_back_invocation_leaves_hints(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        with_gen_hint(any_catalog, 42.0)
        estimator = Estimator(any_catalog)
        assert estimator.model_for("gen").predict_cpu_seconds() == 42.0
        with pytest.raises(Boom):
            with any_catalog.transaction():
                any_catalog.add_invocation(invocation("g1", 7.0))
                # visible inside the transaction, to anyone who asks
                assert Estimator(any_catalog).model_for("gen").is_fitted
                raise Boom
        model = estimator.model_for("gen")
        assert not model.is_fitted and model.predict_cpu_seconds() == 42.0
        assert not Estimator(any_catalog).model_for("gen").is_fitted

    def test_trained_model_is_not_displaced(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        estimator = Estimator(any_catalog)
        assert not estimator.model_for("gen").is_fitted
        record = SimpleNamespace(
            plan_steps=lambda: {"g1": {"transformation": "gen"}},
            invocations=[invocation("g1", 9.0).to_dict()],
        )
        trained = estimator.train_on_record(record)["gen"]
        any_catalog.add_invocation(invocation("g2", 1.0))
        with_gen_hint(any_catalog, 42.0)
        assert estimator.model_for("gen") is trained
        assert estimator.model_for("gen").predict_cpu_seconds() == 9.0

    def test_refit_groups_by_transformation(self, any_catalog):
        any_catalog.define(DIAMOND_VDL)
        any_catalog.add_invocation(invocation("g1", 4.0))
        any_catalog.add_invocation(invocation("g2", 8.0))
        any_catalog.add_invocation(invocation("s1", 3.0))
        estimator = Estimator(any_catalog)
        estimator.refit()
        assert estimator.model_for("gen").samples == 2
        assert estimator.model_for("gen").predict_cpu_seconds() == 6.0
        assert estimator.model_for("sim").samples == 1
        assert not estimator.model_for("ana").is_fitted
