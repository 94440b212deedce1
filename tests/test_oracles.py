"""Sanity checks for the reference oracles against hand-worked values.

The rest of the suite leans on these oracles, so each one is pinned
here on inputs small enough to verify on paper.
"""

from __future__ import annotations

import pytest

from oracles import (FuelOut, bigstep, brute_bound, brute_generated,
                     brute_gfp, brute_lfp, brute_survives, dijkstra_to,
                     first_sets, reachable_from)

P, Q, R = "p", "q", "r"


def triple(c, ps=(), co=False):
    return (c, frozenset(ps), co)


# ---------------------------------------------------------------------------
# fixed points

def test_lfp_ignores_self_supporting_cycle():
    rules = [triple(P), triple(Q, [P]), triple(R, [R])]
    assert brute_lfp(rules) == {P, Q}


def test_gfp_keeps_self_supporting_cycle():
    rules = [triple(P), triple(Q, [P]), triple(R, [R])]
    assert brute_gfp(rules) == {P, Q, R}


def test_gfp_drops_judgment_with_unmet_premise():
    rules = [triple(Q, [P])]
    assert brute_gfp(rules) == frozenset()


def test_bound_promotes_co_rules():
    rules = [triple(P), triple(R, [R]), triple(R, co=True)]
    assert brute_lfp(rules) == {P}
    assert brute_bound(rules) == {P, R}


def test_generated_needs_both_bound_and_consistency():
    # r <- r is consistent but only enters the bound via the coaxiom;
    # q <- p is in the bound but p itself never is.
    with_co = [triple(P), triple(R, [R]), triple(R, co=True)]
    assert brute_generated(with_co) == {P, R}
    without_co = [triple(P), triple(R, [R])]
    assert brute_generated(without_co) == {P}
    orphan = [triple(Q, [P]), triple(Q, co=True)]
    assert brute_generated(orphan) == frozenset()


def test_generated_lies_between_lfp_and_gfp():
    rules = [triple(P), triple(Q, [P]), triple(R, [R]), triple(R, co=True)]
    assert brute_lfp(rules) <= brute_generated(rules) <= brute_gfp(rules)


def test_survives_counts_pruning_rounds():
    # Chain p <- q <- r with coaxioms everywhere: r has no regular rule,
    # so it falls in round one, q in round two, p in round three.
    rules = [triple(P, [Q]), triple(Q, [R]),
             triple(P, co=True), triple(Q, co=True), triple(R, co=True)]
    assert brute_survives(rules, R, 0) and not brute_survives(rules, R, 1)
    assert brute_survives(rules, Q, 1) and not brute_survives(rules, Q, 2)
    assert brute_survives(rules, P, 2) and not brute_survives(rules, P, 3)


# ---------------------------------------------------------------------------
# graphs

def test_reachability_follows_edge_direction():
    succ = {"a": ["b"], "b": ["a"], "c": ["a"]}
    assert reachable_from(succ, "a") == {"a", "b"}
    assert reachable_from(succ, "c") == {"a", "b", "c"}


def test_dijkstra_costs_toward_target():
    nodes = ["a", "b", "c", "d"]
    weights = {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 10}
    dist = dijkstra_to(nodes, weights, "c")
    assert dist == {"a": 3, "b": 2, "c": 0, "d": "inf"}


def test_dijkstra_zero_weight_cycle():
    nodes = ["a", "b", "e"]
    weights = {("a", "b"): 0, ("b", "a"): 0, ("a", "e"): 5}
    assert dijkstra_to(nodes, weights, "e") == {"a": 5, "b": 5, "e": 0}


# ---------------------------------------------------------------------------
# grammars

def test_first_sets_with_nullable_prefix():
    prods = {"S": [("A", "S"), ("b",)], "A": [("a",), ()]}
    first = first_sets(prods, ["S", "A"])
    assert first == {"S": {"a", "b"}, "A": {"a"}}


def test_first_sets_left_recursion_terminates():
    prods = {"S": [("S", "a"), ()]}
    assert first_sets(prods, ["S"]) == {"S": {"a"}}


def test_first_sets_chained_nullables():
    prods = {"S": [("A", "B", "c")], "A": [("a",), ()], "B": [("b",), ()]}
    first = first_sets(prods, ["S", "A", "B"])
    assert first["S"] == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# evaluation

def test_bigstep_identity_application():
    from coaxiom.gen import parse_lambda
    v = bigstep(parse_lambda(r"(\x. x) (\y. \z. y)"))
    assert v is parse_lambda(r"\a. \b. a")


def test_bigstep_divergence_runs_out_of_fuel():
    from coaxiom.gen import parse_lambda
    delta = parse_lambda(r"(\x. x x) (\x. x x)")
    with pytest.raises(FuelOut):
        bigstep(delta, fuel=500)
