"""Bounded coinduction verdicts and level witnesses."""

from __future__ import annotations

import pytest

from coaxiom import (BudgetExceeded, DropsAtLevel, NotInBound, Rule,
                     SurvivesTo, System, bounded_coinduction, generated,
                     is_closed, is_consistent, level_witness, sym)

P, Q, R = sym("p"), sym("q"), sym("r")

CHAIN = System([
    Rule(P, (Q,)), Rule(Q, (R,)),
    Rule(P, co=True), Rule(Q, co=True), Rule(R, co=True),
])

CYCLE = System([Rule(P, (Q,)), Rule(Q, (P,)), Rule(P, co=True)])


# ---------------------------------------------------------------------------
# the two set predicates

def test_is_closed():
    assert is_closed(CYCLE, {P, Q})
    assert not is_closed(CYCLE, {Q})       # q <- p pushes p in... p <- q fires
    assert is_closed(CYCLE, frozenset())   # nothing fires from nothing


def test_is_consistent():
    assert is_consistent(CYCLE, {P, Q})
    assert is_consistent(CYCLE, frozenset())
    assert not is_consistent(CHAIN, {P, Q})  # q needs r
    assert not is_consistent(CHAIN, {R})     # r has no regular rule at all


# ---------------------------------------------------------------------------
# bounded coinduction

def test_bcp_accepts_the_generated_set_itself():
    for sys_ in (CHAIN, CYCLE):
        g = generated(sys_).judgments
        verdict = bounded_coinduction(sys_, g)
        assert verdict.accepted and not verdict.failures


def test_bcp_accepts_consistent_subsets_of_the_bound():
    assert bounded_coinduction(CYCLE, {P, Q}).accepted
    assert bounded_coinduction(CYCLE, frozenset()).accepted


def test_bcp_rejects_and_explains_each_failure():
    verdict = bounded_coinduction(CYCLE, {P, Q, R})
    assert not verdict.accepted
    reasons = {j: why for j, why in verdict.failures}
    assert R in reasons  # r is not even in the bound
    verdict2 = bounded_coinduction(CHAIN, {P, Q})
    assert not verdict2.accepted
    assert {j for j, _ in verdict2.failures} == {Q}


def test_bcp_acceptance_implies_soundness():
    g = generated(CYCLE).judgments
    for candidate in ({P}, {Q}, {P, Q}, {P, R}, {P, Q, R}):
        if bounded_coinduction(CYCLE, candidate).accepted:
            assert candidate <= g


# ---------------------------------------------------------------------------
# level witnesses

def test_witness_not_in_bound():
    w = level_witness(CHAIN, sym("zap"), 5)
    assert isinstance(w, NotInBound)


def test_witness_drop_levels_down_the_chain():
    assert level_witness(CHAIN, R, 5) == DropsAtLevel(1)
    assert level_witness(CHAIN, Q, 5) == DropsAtLevel(2)
    assert level_witness(CHAIN, P, 5) == DropsAtLevel(3)


def test_witness_asked_at_exactly_the_drop_level_drops():
    assert level_witness(CHAIN, P, 3) == DropsAtLevel(3)


def test_witness_survivor_reports_fixpoint():
    w = level_witness(CYCLE, P, 5)
    assert isinstance(w, SurvivesTo)
    assert w.at_fixpoint


def test_witness_refuses_a_negative_level():
    with pytest.raises(ValueError) as exc:
        level_witness(CHAIN, P, -1)
    assert str(exc.value) == "max_n must be >= 0"


def test_witness_without_enough_rounds_is_inconclusive():
    w = level_witness(CHAIN, P, 2)
    assert w == SurvivesTo(2, at_fixpoint=False)


def test_witness_budget_bounds_phase_one_only():
    # c_i <- c_{i+1} for i < 50, every c_i a coaxiom: phase 1 takes one
    # layer, phase 2 takes 51 (c50 has no regular rule).
    c = [sym(f"c{i}") for i in range(51)]
    sys_ = System([Rule(c[i], (c[i + 1],)) for i in range(50)]
                  + [Rule(ci, co=True) for ci in c])
    assert level_witness(sys_, c[0], 2, budget=3) == SurvivesTo(2)
    assert level_witness(sys_, c[0], 60, budget=3) == DropsAtLevel(51)
    with pytest.raises(BudgetExceeded):
        generated(sys_, budget=3)
    with pytest.raises(BudgetExceeded):
        level_witness(sys_, c[0], 2, budget=1)  # phase 1 needs 2 rounds


def test_witness_reaches_the_fixpoint_one_round_after_the_last_drop():
    # d0 and d1 hold each other up; c5 (a bare coaxiom) drops in round
    # 1, c0 in round 6 and d2 <- c0 in round 7, the last that drops
    # anything.
    c = [sym(f"c{i}") for i in range(6)]
    d0, d1, d2 = sym("d0"), sym("d1"), sym("d2")
    sys_ = System([Rule(d0, (d1,)), Rule(d1, (d0,)), Rule(d0, co=True),
                   Rule(d2, (c[0],)), Rule(c[5], co=True)]
                  + [Rule(c[i], (c[i + 1],)) for i in range(5)])
    assert len(generated(sys_).trace) == 7
    assert level_witness(sys_, d2, 10) == DropsAtLevel(7)
    assert level_witness(sys_, d0, 7) == SurvivesTo(7, at_fixpoint=False)
    assert level_witness(sys_, d0, 8) == SurvivesTo(8, at_fixpoint=True)
    assert level_witness(sys_, d0, 0) == SurvivesTo(0, at_fixpoint=False)
