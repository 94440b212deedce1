"""Call-by-value evaluation judgments over a finite value closure.

Termination or divergence of each frozen input is cross-checked with
the independent big-step evaluator in oracles.py: terminating programs
must get exactly their value, diverging ones exactly ``inf``.
"""

from __future__ import annotations

import pytest

from coaxiom import INF, generated, sym
from coaxiom.dsl import MAX_DEPTH
from coaxiom.gen import (App, ClosureBudgetExceeded, Lam, Var, encode_lambda,
                         gen_lambda, parse_lambda, value_closure)
from oracles import FuelOut, bigstep

DELTA = parse_lambda(r"(\x. x x) (\x. x x)")
TRI = parse_lambda(r"(\x. x x x) (\x. x x x)")
GROWER = parse_lambda(r"(\x. \y. x x) (\x. \y. x x)")
IDAPP = parse_lambda(r"(\x. x) (\y. y)")


def ev(subject, result):
    return sym("eval", encode_lambda(subject), result)


# ---------------------------------------------------------------------------
# alpha-equivalence and the closure

def test_alpha_equivalent_terms_are_one_object():
    assert parse_lambda(r"\a. \b. a b") is parse_lambda(r"\x. \y. x y")


def test_shadowing_binds_the_innermost_binder():
    assert parse_lambda(r"\x. \x. x") is parse_lambda(r"\x0. \x1. x1")
    assert encode_lambda(parse_lambda(r"\x. \x. x")) == \
        sym("lam", sym("x0"), sym("lam", sym("x1"), sym("var", sym("x1"))))


def test_delta_closure_is_two_terms():
    clo, vals = value_closure(DELTA)
    assert len(clo) == 2 and len(vals) == 1
    assert vals[0] is parse_lambda(r"\x. x x")


def test_closure_budget_counts_total_nodes():
    # The delta closure holds 13 nodes; checking the one contraction
    # needs 9 more in-flight, so 22 is the exact requirement.
    clo, _ = value_closure(DELTA, budget=22)
    assert len(clo) == 2
    with pytest.raises(ClosureBudgetExceeded):
        value_closure(DELTA, budget=21)


def test_grower_exhausts_any_budget():
    # Each contraction wraps the previous term in a fresh abstraction
    # twice its size, so the closure never stabilises.
    with pytest.raises(ClosureBudgetExceeded):
        value_closure(GROWER, budget=100)
    with pytest.raises(ClosureBudgetExceeded):
        gen_lambda(GROWER)


# ---------------------------------------------------------------------------
# generated evaluation judgments

def test_delta_diverges_cleanly():
    with pytest.raises(FuelOut):
        bigstep(DELTA, fuel=200)  # oracle agrees it spins
    g = generated(gen_lambda(DELTA)).judgments
    d = parse_lambda(r"\x. x x")
    assert g == {ev(d, encode_lambda(d)), ev(DELTA, INF)}


def test_identity_application_terminates():
    value = bigstep(IDAPP)
    g = generated(gen_lambda(IDAPP)).judgments
    assert ev(IDAPP, encode_lambda(value)) in g
    assert ev(IDAPP, INF) not in g


def test_tri_self_application_diverges_within_a_small_closure():
    with pytest.raises(FuelOut):
        bigstep(TRI, fuel=500)
    sys_ = gen_lambda(TRI, budget=100)  # three alpha-classes suffice
    g = generated(sys_).judgments
    w = parse_lambda(r"\x. x x x")
    ww = TRI  # w w
    www = parse_lambda(  # the one contraction: (w w) w
        r"(\x. x x x) (\x. x x x) (\x. x x x)")
    assert g == {ev(w, encode_lambda(w)), ev(ww, INF), ev(www, INF)}


def test_every_closure_term_gets_a_divergence_coaxiom():
    sys_ = gen_lambda(DELTA)
    clo, _ = value_closure(DELTA)
    co_concl = {r.conclusion for r in sys_.co_rules}
    assert co_concl == {ev(t, INF) for t in clo}


def test_open_terms_are_rejected():
    # The parser rejects them, so only hand-built terms can be open.
    for term in (Var(0), Lam(Var(1)), App(Lam(Var(0)), Var(0))):
        with pytest.raises(ValueError):
            encode_lambda(term)
        with pytest.raises(ValueError):
            gen_lambda(term)


def test_contractions_nested_past_max_depth_are_rejected():
    # The root nests 1003 deep in its eval judgment, but each value put
    # under the 1000 binders of \f. \y1. ... f nests past what rule
    # files may hold; fn applied to itself comes first, 2003 deep.
    n = 1000
    fn = parse_lambda(r"\f. " + r"\y. " * n + "f")
    arg = parse_lambda(r"\z. " * n + "z")
    assert (fn.height, arg.height) == (n + 2, n + 1)
    value_closure(fn)
    with pytest.raises(ValueError, match=f"nested {2 * n + 3} deep, past {MAX_DEPTH}"):
        value_closure(App(fn, arg))
