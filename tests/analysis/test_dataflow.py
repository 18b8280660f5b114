"""Unit tests for the generic worklist/fixpoint dataflow engine."""

import repro.analysis
import repro.analysis.dataflow
from repro.analysis.dataflow import (
    DataflowPass,
    PerKind,
    fact_tables,
    solve,
)
from repro.provenance.graph import DerivationGraph

#: A bipartite chain alternates kinds: dataset a feeds derivation b,
#: which writes dataset c, which feeds derivation d.  Datasets are
#: lower case, derivations upper case; each table holds its own kind.


def graph(*derivations, isolated=()):
    """A DerivationGraph of ``(name, inputs, outputs)`` derivations —
    what the engine reads, with nothing in between."""
    g = DerivationGraph()
    for name, inputs, outputs in derivations:
        g.add_derivation_edges(name, inputs, outputs)
    for name in isolated:  # only a derivation can have no edges
        g.add_derivation_edges(name, [], [])
    return g


def chain(isolated=()):
    """a -> B -> c -> D"""
    return graph(("B", ["a"], ["c"]), ("D", ["c"], []), isolated=isolated)


def seeds(datasets=(), derivations=()):
    return PerKind(set(datasets), set(derivations))


class ReachPass(DataflowPass):
    """Fact: node is reachable from a model-designated source set."""

    name = "reach"
    direction = "forward"

    def transfer_dataset(self, lfn, producers, facts, model):
        if lfn in model["sources"]:
            return True
        return any(facts.derivations.get(p) or False for p in producers)

    def transfer_derivation(self, name, inputs, facts, model):
        return any(facts.datasets.get(i) or False for i in inputs)

    def subsumes(self, new, old):
        return bool(new) or not bool(old)


class TestOneIdSpace:
    def test_no_private_node_ids_left(self):
        for module in (repro.analysis, repro.analysis.dataflow):
            for gone in (
                "GraphView",
                "ds_node",
                "dv_node",
                "node_kind",
                "node_name",
                "DS_PREFIX",
                "DV_PREFIX",
            ):
                assert not hasattr(module, gone), gone

    def test_transfer_is_handed_the_stored_neighbours(self):
        seen = {}

        class Spy(ReachPass):
            def transfer_dataset(self, lfn, producers, facts, model):
                seen[lfn] = producers
                return False

            def transfer_derivation(self, name, inputs, facts, model):
                seen[name] = inputs
                return False

        g = chain()
        solve(Spy(), g, fact_tables(), {"sources": set()})
        producers, _, inputs, _ = g.adjacency()
        assert seen["c"] is producers["c"] and seen["B"] is inputs["B"]

    def test_engine_follows_the_graph(self):
        g = DerivationGraph()
        facts = fact_tables()
        model = {"sources": {"a"}}
        g.add_derivation_edges("B", ["a"], ["c"])
        solve(ReachPass(), g, facts, model)
        assert facts == ({"a": True, "c": True}, {"B": True})
        g.remove_derivation("B")
        solve(ReachPass(), g, facts, model)
        assert facts == ({}, {})


class TestFullSolve:
    def test_fixpoint_on_chain(self):
        facts = fact_tables()
        result = solve(ReachPass(), chain(), facts, {"sources": {"a"}})
        assert result.stats.mode == "full"
        assert facts.datasets == {"a": True, "c": True}
        assert facts.derivations == {"B": True, "D": True}

    def test_unreachable_stays_bottom(self):
        facts = fact_tables()
        g = chain(isolated=["ISLAND"])
        solve(ReachPass(), g, facts, {"sources": {"a"}})
        assert facts.derivations["ISLAND"] is False

    def test_cycle_terminates(self):
        g = graph(("B", ["a"], ["c"]), ("D", ["c"], ["a"]))
        facts = fact_tables()
        solve(ReachPass(), g, facts, {"sources": {"a"}})
        assert all(facts.datasets[n] for n in "ac")
        assert all(facts.derivations[n] for n in "BD")

    def test_full_solve_clears_stale_facts(self):
        facts = PerKind({"ghost": True}, {"GHOST": True})
        solve(ReachPass(), chain(), facts, {"sources": {"a"}})
        assert "ghost" not in facts.datasets
        assert "GHOST" not in facts.derivations


class TestIncrementalSolve:
    def test_increase_propagates_downstream(self):
        g = chain()
        model = {"sources": set()}
        facts = fact_tables()
        solve(ReachPass(), g, facts, model)
        model["sources"] = {"a"}
        result = solve(ReachPass(), g, facts, model, seeds(["a"]))
        assert result.stats.mode == "incremental"
        assert facts == ({"a": True, "c": True}, {"B": True, "D": True})
        assert result.changed == ({"a", "c"}, {"B", "D"})

    def test_untouched_region_not_visited(self):
        g = graph(("B", ["a"], []), ("Y", ["x"], []))
        model = {"sources": {"a", "x"}}
        facts = fact_tables()
        solve(ReachPass(), g, facts, model)
        result = solve(ReachPass(), g, facts, model, seeds(["a"]))
        # The x->Y component is quiescent: nothing there is revisited.
        assert result.stats.visited <= 2

    def test_decrease_resets_forward_cone(self):
        g = graph(("B", ["a"], ["c"]))
        model = {"sources": {"a"}}
        facts = fact_tables()
        solve(ReachPass(), g, facts, model)
        model["sources"] = set()
        result = solve(ReachPass(), g, facts, model, seeds(["a"]))
        assert facts == ({"a": False, "c": False}, {"B": False})
        assert result.stats.reset_cone > 0

    def test_decrease_on_cycle_kills_self_support(self):
        # B and c sustain each other's reachability on a cycle; after
        # the source unplugs, a naive re-propagation would keep both
        # True forever.  The cone reset must drain them.
        g = graph(("B", ["a", "c"], ["c"]))
        model = {"sources": {"a"}}
        facts = fact_tables()
        solve(ReachPass(), g, facts, model)
        assert facts.derivations["B"] and facts.datasets["c"]
        model["sources"] = set()
        solve(ReachPass(), g, facts, model, seeds(["a"]))
        assert facts == ({"a": False, "c": False}, {"B": False})

    def test_seeds_outside_graph_ignored(self):
        g = graph(("B", ["a"], []))
        facts = fact_tables()
        model = {"sources": {"a"}}
        solve(ReachPass(), g, facts, model)
        result = solve(
            ReachPass(), g, facts, model, seeds(["gone"], ["GONE"])
        )
        assert result.stats.seeds == 0
        assert result.changed == (set(), set())
        assert result.report == (set(), set())

    def test_seed_names_are_per_kind(self):
        # A dataset and a derivation may share a name; a seed in one
        # table never stands for the node in the other.
        g = graph(("n", ["a"], ["n"]))
        facts = fact_tables()
        model = {"sources": set()}
        solve(ReachPass(), g, facts, model)
        model["sources"] = {"n"}
        result = solve(ReachPass(), g, facts, model, seeds(["n"]))
        assert facts.datasets["n"] is True
        assert facts.derivations["n"] is False
        assert result.changed == ({"n"}, set())

    def test_report_covers_influence_radius(self):
        g = chain()
        model = {"sources": set()}
        facts = fact_tables()
        solve(ReachPass(), g, facts, model)
        model["sources"] = {"a"}
        result = solve(ReachPass(), g, facts, model, seeds(["a"]))
        # Default report_hops=1: one hop past the last change.
        for reported, changed in zip(result.report, result.changed):
            assert reported >= changed

    def test_report_hops_extends_frontier(self):
        class TwoHopReach(ReachPass):
            report_hops = 2

        g = chain()
        model = {"sources": set()}
        facts = fact_tables()
        # B..D already settled; only a's fact will change.
        solve(TwoHopReach(), g, facts, model)

        class Frozen(TwoHopReach):
            def transfer_dataset(self, lfn, producers, facts, model):
                return lfn == "a" or facts.datasets.get(lfn) or False

            def transfer_derivation(self, name, inputs, facts, model):
                return facts.derivations.get(name) or False

        result = solve(Frozen(), g, facts, model, seeds(["a"]))
        assert result.changed == ({"a"}, set())
        # Two influence hops forward of the change: B and c.
        assert "B" in result.report.derivations
        assert "c" in result.report.datasets
        assert "D" not in result.report.derivations

    def test_on_fact_change_extras_reach_report(self):
        calls = []

        class Hooked(ReachPass):
            def on_fact_change(self, derivation, old, new, model):
                calls.append((derivation, old, new))
                return {"FAR_AWAY"}

        g = graph(("B", ["a"], []), isolated=["FAR_AWAY"])
        model = {"sources": set()}
        facts = fact_tables()
        solve(Hooked(), g, facts, model)
        del calls[:]
        model["sources"] = {"a"}
        result = solve(Hooked(), g, facts, model, seeds(["a"]))
        # The hook hears derivation facts only, and names derivations.
        assert calls == [("B", False, True)]
        assert "FAR_AWAY" in result.report.derivations


class TestLocalDirection:
    def test_no_propagation_and_no_cone_reset(self):
        class Label(DataflowPass):
            name = "label"
            direction = "local"

            def transfer_dataset(self, lfn, sources, facts, model):
                assert sources == ()
                return model["labels"].get(lfn, "")

            transfer_derivation = transfer_dataset

        g = graph(("B", ["a"], []))
        model = {"labels": {"a": "x", "B": "y"}}
        facts = fact_tables()
        solve(Label(), g, facts, model)
        model["labels"] = {"a": "", "B": "y"}
        result = solve(Label(), g, facts, model, seeds(["a"]))
        # Shrink on a local pass must not trigger a cone walk.
        assert result.stats.reset_cone == 0
        assert facts == ({"a": ""}, {"B": "y"})


class TestUnsetKinds:
    """A kind whose transfer is unset is never seeded, visited, stored."""

    class DatasetsOnly(DataflowPass):
        name = "datasets-only"
        direction = "forward"

        def transfer_dataset(self, lfn, producers, facts, model):
            return len(producers)

    def test_full_solve_skips_the_kind(self):
        facts = fact_tables()
        result = solve(self.DatasetsOnly(), chain(), facts, None)
        assert facts == ({"a": 0, "c": 1}, {})
        assert result.stats.seeds == result.stats.visited == 2
        assert result.changed.derivations == set()

    def test_seeds_of_the_kind_still_report(self):
        # No fact to recompute, but its report may read what changed.
        g = chain()
        facts = fact_tables()
        solve(self.DatasetsOnly(), g, facts, None)
        result = solve(
            self.DatasetsOnly(), g, facts, None, seeds(["a"], ["B"])
        )
        assert result.stats.seeds == result.stats.visited == 1
        assert result.report == ({"a"}, {"B"})

    def test_change_reports_one_hop_into_the_kind(self):
        g = chain()
        facts = fact_tables()
        solve(self.DatasetsOnly(), g, facts, None)
        g.add_derivation_edges("E", [], ["c"])
        result = solve(self.DatasetsOnly(), g, facts, None, seeds(["c"]))
        assert facts.datasets["c"] == 2
        # c's consumer reads c's fact in its report; nothing is
        # enqueued behind it, and a lone kind has no cone to reset.
        assert result.report == ({"c"}, {"D"})
        assert result.stats.visited == 1 and result.stats.reset_cone == 0


class TestTermination:
    def test_shrink_and_growth_on_one_cycle_do_not_chase_each_other(self):
        """r_in -> R -> x -> V -> y -> W -> r_in, solved while R was a
        root and before W closed the ring.  R stops being a root in the
        same batch: its fact shrinks while W's grows behind it, and a
        worklist that wrote both would carry the pair round for ever."""
        visits = []

        class Ring(DataflowPass):
            name = "ring"
            direction = "forward"

            def transfer_dataset(self, lfn, producers, facts, model):
                visits.append(lfn)
                assert len(visits) < 100, "the worklist does not drain"
                return any(facts.derivations.get(p) or False for p in producers)

            def transfer_derivation(self, name, inputs, facts, model):
                visits.append(name)
                assert len(visits) < 100, "the worklist does not drain"
                if name in model["roots"]:
                    return True
                return any(facts.datasets.get(i) or False for i in inputs)

            def subsumes(self, new, old):
                return bool(new) or not bool(old)

        g = graph(("R", ["r_in"], ["x"]), ("V", ["x"], ["y"]))
        facts = fact_tables()
        model = {"roots": {"R"}}
        solve(Ring(), g, facts, model)
        assert facts == (
            {"r_in": False, "x": True, "y": True}, {"R": True, "V": True}
        )
        g.add_derivation_edges("W", ["y"], ["r_in"])
        model["roots"] = set()
        del visits[:]
        result = solve(
            Ring(), g, facts, model, seeds(["r_in", "x", "y"], ["R", "W"])
        )
        assert facts == (
            {"r_in": False, "x": False, "y": False},
            {"R": False, "V": False, "W": False},
        )
        assert result.stats.reset_cone == 6
        assert result.changed.datasets >= {"x", "y"}
        assert result.changed.derivations == {"R", "V", "W"}
