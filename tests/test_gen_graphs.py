"""Graph generators: visited-node sets, cheapest costs, cheapest paths.

Expected judgment sets were fixed against independent oracles first
(depth-first reachability, Dijkstra) and are asserted frozen here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from coaxiom import (coind, generated, ind, parse_judgment, parse_system,
                     render_system, sym)
from coaxiom.gen import (Edge, Graph, InstantiationTooLarge, gen_dist, gen_minpath,
                         gen_visit, graphs, parse_graph, simple_paths_to)
from coaxiom.terms import FinSet
from oracles import dijkstra_to, reachable_from

J = parse_judgment

# Two mutually reachable nodes and an isolated third.
CYCLE = parse_graph("node a node b node c edge a b edge b a")

# Weighted: a free cycle a-b, an expensive exit a->e, and two feeders.
TOLL = parse_graph("""
    node a  node b  node c  node d  node e
    edge a b 0
    edge a e 5
    edge b a 0
    edge c a 1
    edge d a 2
""")


# ---------------------------------------------------------------------------
# visit

def test_visit_rule_counts_on_the_cycle():
    sys_ = gen_visit(CYCLE)
    # One axiom for the sink c, 2^3 instantiations per one-successor
    # node, one coaxiom per node.
    assert len(sys_.regular_rules) == 17
    assert len(sys_.co_rules) == 3


def test_visit_generated_is_reachability_on_the_cycle():
    g = generated(gen_visit(CYCLE)).judgments
    assert g == {J("visit(a,{a,b})"), J("visit(b,{a,b})"), J("visit(c,{c})")}


def test_visit_generated_matches_dfs_oracle():
    for graph in (CYCLE,
                  parse_graph("node a node b node c edge a b edge b c"),
                  parse_graph("node z")):
        succ = {v: [e.dst for e in graph.successors(v)] for v in graph.nodes}
        expected = {
            sym("visit", sym(v),
                parse_judgment("{" + ",".join(sorted(reachable_from(succ, v))) + "}"))
            for v in graph.nodes
        }
        assert generated(gen_visit(graph)).judgments == expected


def test_visit_bound_has_every_partial_set_of_the_cycle():
    interp = generated(gen_visit(CYCLE))
    listing = {
        "visit(a,{})", "visit(b,{})", "visit(c,{})", "visit(c,{c})",
        "visit(a,{a})", "visit(b,{b})", "visit(a,{a,b})", "visit(b,{a,b})",
    }
    assert interp.phase1.judgments == {J(s) for s in listing}


def test_visit_two_phase_trace_shape_on_the_cycle():
    interp = generated(gen_visit(CYCLE))
    assert [len(s) for s in interp.phase1.trace] == [4, 6, 8]
    assert [len(s) for s in interp.trace] == [5, 3]


def test_visit_ind_is_empty_when_nodes_need_each_other():
    # Only the isolated node terminates inductively.
    assert ind(gen_visit(CYCLE)).judgments == {J("visit(c,{c})")}


# A 5-node ring plus a chord, as visit-dense grounds it: 6 edges, each a
# slot over 32 node sets, ground 1,152 rules from 160 distinct premises.
RING_WITH_CHORD = parse_graph("node a node b node c node d node e edge a c "
                              "edge a b edge b c edge c d edge d e edge e a")


def test_visit_makes_each_premise_once_per_slot_value(monkeypatch):
    made = []

    def counted(make):
        return lambda v: made.append((make, v)) or make(v)

    def ground(sites, coaxioms, cap):
        return real([([(counted(make), u) for make, u in slots], conclude, fan)
                     for slots, conclude, fan in sites], coaxioms, cap)

    real = graphs._ground
    monkeypatch.setattr(graphs, "_ground", ground)
    sys_ = gen_visit(RING_WITH_CHORD)
    assert len(sys_.regular_rules) == 1152
    assert len(made) == len(set(made)) == 6 * 32


def test_visit_makes_each_conclusion_once(monkeypatch):
    # The 1,152 regular rules conclude 80 distinct judgments, and the 5
    # coaxioms have the empty set: one set term made for each.
    made = []
    monkeypatch.setattr(graphs, "FinSet", lambda *e: made.append(e) or FinSet(*e))
    sys_ = gen_visit(RING_WITH_CHORD)
    monkeypatch.undo()
    conclusions = {r.conclusion for r in sys_.regular_rules}
    assert len(made) <= len(conclusions) + len(sys_.co_rules) == 85
    # Each conclusion is still visit(v, N) with N the node v and the
    # union of its premises' sets.
    for r in sys_.regular_rules:
        v, seen = r.conclusion.args
        assert seen is FinSet((v, *[n for p in r.premises for n in p.args[1].elements]))


def test_visit_rejects_weighted_graph():
    with pytest.raises(ValueError):
        gen_visit(TOLL)


def test_visit_cap_guard():
    with pytest.raises(InstantiationTooLarge) as exc:
        gen_visit(CYCLE, cap=5)
    assert exc.value.needed == 20 and exc.value.cap == 5


class CountedEdges(tuple):
    """An edge tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def edge_passes(gen, n: int) -> int:
    """Passes over the edges of the path v0 -> ... -> v(n-1) that one
    gen call makes (visit on the unweighted path, dist and minpath
    towards v(n-1) on the weighted one)."""
    weight = None if gen is gen_visit else 1
    edges = CountedEdges(Edge(f"v{i}", f"v{i + 1}", weight) for i in range(n - 1))
    g = Graph(tuple(f"v{i}" for i in range(n)), edges)
    edges.passes = 0
    try:
        gen(g) if gen is gen_visit else gen(g, f"v{n - 1}")
    except InstantiationTooLarge:  # visit counts 2^n rules per node
        pass
    return edges.passes


@pytest.mark.parametrize("gen", [gen_visit, gen_dist, gen_minpath])
def test_graph_generators_read_the_edges_a_fixed_number_of_times(gen):
    # Graph sorts each node's successors once, when it is built.
    assert edge_passes(gen, 3) == edge_passes(gen, 30)


# ---------------------------------------------------------------------------
# dist

def test_dist_generated_matches_dijkstra_on_the_toll_graph():
    g = generated(gen_dist(TOLL, "e")).judgments
    assert g == {J("dist(e,e,0)"), J("dist(a,e,5)"), J("dist(b,e,5)"),
                 J("dist(c,e,6)"), J("dist(d,e,7)")}
    oracle = dijkstra_to(TOLL.nodes, {(e.src, e.dst): e.weight
                                    for e in TOLL.edges}, "e")
    expected = {parse_judgment(f"dist({v},e,{oracle[v]})") for v in TOLL.nodes}
    assert g == expected


def test_dist_unreachable_target_is_infinite():
    g = generated(gen_dist(TOLL, "d")).judgments
    assert J("dist(a,d,inf)") in g
    assert J("dist(d,d,0)") in g


def test_dist_coind_strictly_exceeds_generated_on_the_toll_graph():
    sys_ = gen_dist(TOLL, "e")
    gen_set = generated(sys_).judgments
    co_set = coind(sys_).judgments
    assert gen_set < co_set
    # The zero-weight a/b cycle lets the coinductive reading claim cost
    # zero for the cycle and propagate it to the feeders.
    assert co_set - gen_set == {J("dist(a,e,0)"), J("dist(b,e,0)"),
                                J("dist(c,e,1)"), J("dist(d,e,2)")}


def test_a_dead_end_gets_an_infinite_axiom():
    # c has no edge out, so it can never reach b.
    g = parse_graph("node a node b node c edge a b 1 edge a c 2")
    rules = render_system(gen_minpath(g, "b")).splitlines()
    assert "minPath(c,b,bot,inf)." in rules
    assert "co minPath(c,b,bot,inf)." in rules
    rules = render_system(gen_dist(g, "b")).splitlines()
    assert "dist(c,b,inf)." in rules
    assert "co dist(c,b,inf)." in rules


def test_dist_rejects_unknown_target_and_unweighted_edges():
    with pytest.raises(ValueError):
        gen_dist(TOLL, "zz")
    with pytest.raises(ValueError):
        gen_dist(CYCLE, "a")


# ---------------------------------------------------------------------------
# minPath

def test_simple_paths_enumeration():
    paths = simple_paths_to(TOLL, "e")
    assert paths["e"] == [("e",)]
    assert ("a", "e") in paths["a"]
    assert ("a", "b", "a", "e") not in paths["a"]  # revisits a
    assert ("c", "a", "e") in paths["c"]


def test_simple_paths_come_depth_first_in_successor_order():
    g = parse_graph("node a node b node c node d "
                    "edge a b edge a c edge b c edge b d edge c b edge c d")
    assert simple_paths_to(g, "d") == {
        "a": [("a", "b", "c", "d"), ("a", "b", "d"), ("a", "c", "b", "d"),
              ("a", "c", "d")],
        "b": [("b", "c", "d"), ("b", "d")],
        "c": [("c", "b", "d"), ("c", "d")],
        "d": [("d",)],
    }


def test_simple_paths_on_a_path_deeper_than_the_interpreter_stack():
    nodes = [f"v{i}" for i in range(1500)]
    g = parse_graph(" ".join(f"node {v}" for v in nodes) + " "
                    + " ".join(f"edge {u} {v}" for u, v in zip(nodes, nodes[1:])))
    assert simple_paths_to(g, nodes[-1]) == {
        v: [tuple(nodes[i:])] for i, v in enumerate(nodes)}


def test_minpath_generated_exactly_on_the_toll_graph():
    g = generated(gen_minpath(TOLL, "e")).judgments
    assert g == {
        J("minPath(e,e,p(e),0)"),
        J("minPath(a,e,p(a,e),5)"),
        J("minPath(a,e,p(a,b,a,e),5)"),
        J("minPath(b,e,p(b,a,e),5)"),
        J("minPath(c,e,p(c,a,e),6)"),
        J("minPath(d,e,p(d,a,e),7)"),
    }


def test_minpath_witness_costs_agree_with_dist():
    dist_set = generated(gen_dist(TOLL, "e")).judgments
    for j in generated(gen_minpath(TOLL, "e")).judgments:
        v, u, _path, cost = j.args
        assert sym("dist", v, u, cost) in dist_set

# ---------------------------------------------------------------------------
# golden file
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "cycle.coax"


def test_visit_golden_rendering_is_stable():
    """The rendered visit system for the two-node cycle must not drift.

    A change here means either the generator or the renderer reordered
    its output; both are part of the file-format contract.
    """
    assert render_system(gen_visit(CYCLE)) == GOLDEN.read_text()


def test_visit_golden_parses_back_to_the_same_system():
    assert parse_system(GOLDEN.read_text()) == gen_visit(CYCLE)
