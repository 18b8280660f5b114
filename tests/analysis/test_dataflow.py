"""Unit tests for the generic worklist/fixpoint dataflow engine."""

from repro.analysis.dataflow import (
    DataflowPass,
    GraphView,
    ds_node,
    dv_node,
    node_kind,
    node_name,
    solve,
)
from repro.provenance.graph import DerivationGraph

#: A bipartite chain alternates kinds: dataset a feeds derivation b,
#: which writes dataset c, which feeds derivation d.
A, B, C, D = ds_node("a"), dv_node("b"), ds_node("c"), dv_node("d")
X, Y = ds_node("x"), dv_node("y")
#: Only a derivation can be a node with no edges.
ISLAND, FAR_AWAY = dv_node("island"), dv_node("far-away")


def view(*edges, isolated=()):
    """A DerivationGraph with these ``(src, dst)`` node-id edges, read
    through the same view the analyzer uses."""
    inputs = {node_name(n): [] for n in isolated}
    outputs = {node_name(n): [] for n in isolated}
    for src, dst in edges:
        dataset, derivation, sides = (
            (src, dst, inputs)
            if node_kind(src) == "dataset"
            else (dst, src, outputs)
        )
        inputs.setdefault(node_name(derivation), [])
        outputs.setdefault(node_name(derivation), [])
        sides[node_name(derivation)].append(node_name(dataset))
    graph = DerivationGraph()
    for name in inputs:
        graph.add_derivation_edges(name, inputs[name], outputs[name])
    return GraphView(graph)


def chain(*nodes, isolated=()):
    """n0 -> n1 -> n2 ... through the view."""
    return view(*zip(nodes, nodes[1:]), isolated=isolated)


class ReachPass(DataflowPass):
    """Fact: node is reachable from a model-designated source set."""

    name = "reach"
    direction = "forward"

    def transfer(self, node, graph, facts, model):
        if node in model["sources"]:
            return True
        return any(facts.get(p) or False for p in graph.pred(node))

    def subsumes(self, new, old):
        return bool(new) or not bool(old)


class TestNodeIds:
    def test_prefixes_round_trip(self):
        assert node_name(ds_node("raw1")) == "raw1"
        assert node_name(dv_node("g1")) == "g1"
        assert node_kind(ds_node("raw1")) == "dataset"
        assert node_kind(dv_node("g1")) == "derivation"


class TestGraphView:
    def test_renders_both_kinds_and_directions(self):
        g = chain(A, B, C)
        assert set(g.nodes) == {A, B, C} and len(g) == 3
        assert A in g and B in g and dv_node("a") not in g
        assert g.succ(A) == [B] and g.pred(A) == []
        assert g.succ(B) == [C] and g.pred(B) == [A]
        assert g.derivation_count() == 1

    def test_neighbors_both_directions(self):
        assert chain(A, B, C).neighbors(B) == {A, C}

    def test_unknown_nodes_have_no_edges(self):
        g = chain(A, B)
        assert g.succ("ds:ghost") == g.pred("dv:ghost") == []
        assert g.neighbors("dv:ghost") == set()

    def test_view_follows_the_graph(self):
        graph = DerivationGraph()
        g = GraphView(graph)
        graph.add_derivation_edges("b", ["a"], ["c"])
        assert set(g.nodes) == {A, B, C}
        graph.remove_derivation("b")
        assert len(g) == 0 and B not in g


class TestFullSolve:
    def test_fixpoint_on_chain(self):
        g = chain(A, B, C)
        facts = {}
        result = solve(ReachPass(), g, facts, {"sources": {A}})
        assert result.stats.mode == "full"
        assert facts == {A: True, B: True, C: True}

    def test_unreachable_stays_bottom(self):
        g = chain(A, B, isolated=[ISLAND])
        facts = {}
        solve(ReachPass(), g, facts, {"sources": {A}})
        assert facts[ISLAND] is False

    def test_cycle_terminates(self):
        g = chain(A, B, C, D, A)
        facts = {}
        solve(ReachPass(), g, facts, {"sources": {A}})
        assert all(facts[n] for n in (A, B, C, D))

    def test_full_solve_clears_stale_facts(self):
        g = chain(A, B)
        facts = {"dv:ghost": True}
        solve(ReachPass(), g, facts, {"sources": {A}})
        assert "dv:ghost" not in facts


class TestIncrementalSolve:
    def test_increase_propagates_downstream(self):
        g = chain(A, B, C, D)
        model = {"sources": set()}
        facts = {}
        solve(ReachPass(), g, facts, model)
        model["sources"] = {A}
        result = solve(ReachPass(), g, facts, model, seeds={A})
        assert result.stats.mode == "incremental"
        assert facts == {A: True, B: True, C: True, D: True}
        assert result.changed == {A, B, C, D}

    def test_untouched_region_not_visited(self):
        g = view((A, B), (X, Y))
        model = {"sources": {A, X}}
        facts = {}
        solve(ReachPass(), g, facts, model)
        result = solve(ReachPass(), g, facts, model, seeds={A})
        # The x->y component is quiescent: nothing there is revisited.
        assert result.stats.visited <= 2

    def test_decrease_resets_forward_cone(self):
        g = chain(A, B, C)
        model = {"sources": {A}}
        facts = {}
        solve(ReachPass(), g, facts, model)
        model["sources"] = set()
        result = solve(ReachPass(), g, facts, model, seeds={A})
        assert facts == {A: False, B: False, C: False}
        assert result.stats.reset_cone > 0

    def test_decrease_on_cycle_kills_self_support(self):
        # b and c sustain each other's reachability on a cycle; after
        # the source unplugs, a naive re-propagation would keep both
        # True forever.  The cone reset must drain them.
        g = view((A, B), (B, C), (C, B))
        model = {"sources": {A}}
        facts = {}
        solve(ReachPass(), g, facts, model)
        assert facts[B] and facts[C]
        model["sources"] = set()
        solve(ReachPass(), g, facts, model, seeds={A})
        assert facts == {A: False, B: False, C: False}

    def test_seeds_outside_graph_ignored(self):
        g = chain(A, B)
        facts = {}
        model = {"sources": {A}}
        solve(ReachPass(), g, facts, model)
        result = solve(ReachPass(), g, facts, model, seeds={"dv:gone"})
        assert result.stats.seeds == 0
        assert result.changed == set()

    def test_report_covers_influence_radius(self):
        g = chain(A, B, C, D)
        model = {"sources": set()}
        facts = {}
        solve(ReachPass(), g, facts, model)
        model["sources"] = {A}
        pass_ = ReachPass()
        result = solve(pass_, g, facts, model, seeds={A})
        # Default report_hops=1: one hop past the last change.
        assert result.report >= result.changed

    def test_report_hops_extends_frontier(self):
        class TwoHopReach(ReachPass):
            report_hops = 2

        g = chain(A, B, C, D)
        model = {"sources": set()}
        facts = {}
        # b..d already settled; only a's fact will change.
        solve(TwoHopReach(), g, facts, model)

        class Frozen(TwoHopReach):
            def transfer(self, node, graph, facts, model):
                if node == A:
                    return True
                return facts.get(node) or False

        result = solve(Frozen(), g, facts, model, seeds={A})
        assert result.changed == {A}
        # Two influence hops forward of the change: b and c.
        assert {B, C} <= result.report
        assert D not in result.report

    def test_on_fact_change_extras_reach_report(self):
        class Hooked(ReachPass):
            def on_fact_change(self, node, old, new, model):
                return {FAR_AWAY}

        g = chain(A, B, isolated=[FAR_AWAY])
        model = {"sources": set()}
        facts = {}
        solve(Hooked(), g, facts, model)
        model["sources"] = {A}
        result = solve(Hooked(), g, facts, model, seeds={A})
        assert FAR_AWAY in result.report


class TestLocalDirection:
    def test_no_propagation_and_no_cone_reset(self):
        class Label(DataflowPass):
            name = "label"
            direction = "local"

            def transfer(self, node, graph, facts, model):
                return model["labels"].get(node, "")

        g = chain(A, B)
        model = {"labels": {A: "x", B: "y"}}
        facts = {}
        solve(Label(), g, facts, model)
        model["labels"] = {A: "", B: "y"}
        result = solve(Label(), g, facts, model, seeds={A})
        # Shrink on a local pass must not trigger a cone walk.
        assert result.stats.reset_cone == 0
        assert facts[A] == ""
        assert facts[B] == "y"
