"""The eight engine operations on small hand-worked systems.

The systems here are tiny enough that every interpretation can be read
off on paper; agreement with the exhaustive oracles on random systems
is checked separately in test_agreement.py.
"""

from __future__ import annotations

import gc
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from coaxiom import (BOUND, BudgetExceeded, COINDUCTIVE, DropsAtLevel,
                     GENERATED, INDUCTIVE, NotPreFixed, Rule, System, bound,
                     bounded_coinduction, coind, engine, generated, ind, kernel,
                     level_witness, parse_judgment, parse_system, prove_approx,
                     prove_regular, prove_wf, step, sym)
from coaxiom.gen import gen_visit, parse_graph
from coaxiom.terms import term_key

P, Q, R, S = sym("p"), sym("q"), sym("r"), sym("s")


def mk(*rules: Rule) -> System:
    return System(rules)


# A self-supporting cycle r <- r admitted by a coaxiom, next to the
# ordinary chain p, q <- p.
CYCLE = mk(Rule(P), Rule(Q, (P,)), Rule(R, (R,)), Rule(R, co=True))


# ---------------------------------------------------------------------------
# single steps and system construction

def test_step_fires_rules_whose_premises_hold():
    assert step(CYCLE, frozenset()) == {P}
    assert step(CYCLE, frozenset({P})) == {P, Q}
    assert step(CYCLE, frozenset({P, R})) == {P, Q, R}


def test_system_deduplicates_rules():
    assert len(mk(Rule(P), Rule(P), Rule(P, co=True)).regular_rules) == 1


def test_rule_premises_are_sorted_and_deduplicated():
    assert Rule(P, (R, Q, R)).premises == (Q, R)


def test_by_conclusion_lists_regular_rules_then_co_rules():
    rules = (Rule(R, co=True), Rule(R, (R,)), Rule(P), Rule(R, (P,)))
    assert mk(*rules).by_conclusion == {
        R: [(rules[1], 0), (rules[3], 2), (rules[0], 0)], P: [(rules[2], 1)]}


def test_by_conclusion_holds_only_the_rules_that_fired():
    # q <- s, s <- s and the co rule r <- s rest on s, which is outside
    # the bound; q's coaxiom fires, and so does the co rule p <- q.
    rules = (Rule(P), Rule(Q, (S,)), Rule(S, (S,)), Rule(R, (P, Q)),
             Rule(Q, co=True), Rule(P, (Q,), co=True), Rule(R, (S,), co=True))
    sys_ = mk(*rules)
    assert sys_.by_conclusion == {P: [(rules[0], 0), (rules[5], 1)],
                                  R: [(rules[3], 3)], Q: [(rules[4], 0)]}
    assert bound(sys_).judgments == {P, Q, R}


def test_rule_keeps_canonical_premises_without_sorting(monkeypatch):
    keyed = []
    monkeypatch.setattr(engine, "term_key", lambda t: keyed.append(t) or term_key(t))
    assert Rule(R, (P, Q)).premises == (P, Q)
    assert keyed == []
    assert Rule(R, (Q, P, Q)).premises == (P, Q)
    assert sorted(keyed, key=term_key) == [P, Q]


def test_rule_checks_a_canonical_pair_without_a_call():
    # Python functions entered while rules are built: the pair is one
    # key comparison inside _ordered, a longer tuple is walked.
    entered = []

    def record(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(record)
    try:
        pair = Rule(R, (P, Q))
        triple = Rule(R, (P, Q, S))
    finally:
        sys.setprofile(None)
    assert entered == ["__init__", "_ordered", "__init__", "_ordered", "_canonical"]
    assert (pair.premises, triple.premises) == ((P, Q), (P, Q, S))
    assert Rule(R, (P, P)).premises == (P,)


@pytest.mark.parametrize("premises", [(1, 2), ("q", P), (P, None), (1,), ("q",),
                                      (P, Q, 3)])
def test_rule_refuses_premises_that_are_not_terms(premises):
    with pytest.raises(TypeError, match="not a term"):
        Rule(R, premises)


@pytest.mark.parametrize("conclusion", [1, "p", None])
def test_rule_refuses_a_conclusion_that_is_not_a_term(conclusion):
    with pytest.raises(TypeError, match="not a term"):
        Rule(conclusion)
    with pytest.raises(TypeError, match="not a term"):
        Rule(conclusion, (P, Q), co=True)


CYCLE_FILE = Path(__file__).parent / "data" / "cycle.coax"
MEMBER, NON_MEMBER = parse_judgment("visit(a,{a,b})"), parse_judgment("visit(a,{a})")


def test_only_proofs_build_the_conclusion_index():
    sys_ = parse_system(CYCLE_FILE.read_text())
    generated(sys_)
    coind(sys_)
    bounded_coinduction(sys_, [MEMBER])
    level_witness(sys_, NON_MEMBER, 5)
    assert sys_._by_conclusion is None


@pytest.mark.parametrize("prove", [prove_wf, lambda s, j: prove_approx(s, j, 2),
                                   prove_regular], ids=["wf", "approx", "regular"])
def test_a_proof_builds_the_conclusion_index_once(prove):
    sys_ = parse_system(CYCLE_FILE.read_text())
    assert prove(sys_, MEMBER) is not None
    index = sys_._by_conclusion
    inside = bound(sys_).judgments
    fired = [(r, i) for rs in (sys_.regular_rules, sys_.co_rules)
             for i, r in enumerate(rs) if inside.issuperset(r.premises)]
    assert index == {j: [(r, i) for r, i in fired if r.conclusion is j]
                     for j in dict.fromkeys(r.conclusion for r, _ in fired)}
    assert len(fired) < len(sys_.regular_rules) + len(sys_.co_rules)
    for again in (prove_wf, prove_regular):
        again(sys_, MEMBER)
    assert sys_._by_conclusion is index


def test_a_parsed_system_keeps_no_conclusion_index():
    # The random flat family: n rules of 0-3 premises over n/4 symbols,
    # plus n/100 coaxioms, read twice so that the second reading makes
    # no term and grows no intern table.  Without the index its rules
    # and system take at least 30% less memory.
    rng, n = random.Random(31), 20_000

    def s() -> str:
        return f"s{rng.randrange(n // 4)}"

    lines = []
    for _ in range(n):
        head, k = s(), rng.randint(0, 3)
        lines.append(head + (" <- " + ", ".join(s() for _ in range(k)) if k else "") + ".")
    text = "\n".join(lines + ["co " + s() + "." for _ in range(n // 100)])
    parse_system(text)
    gc.collect()
    tracemalloc.start()
    try:
        sys_ = parse_system(text)
        parsed = tracemalloc.get_traced_memory()[0]
        assert sys_.by_conclusion
        indexed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert parsed <= 0.7 * indexed, f"{parsed} bytes parsed, {indexed} indexed"


def test_system_of_a_grounded_ring_retains_little_memory():
    # gen visit on a 7-node ring plus a chord: 17,159 rules, whose terms
    # exist before the system does.
    k = 7
    graph = parse_graph(" ".join(f"node n{i}" for i in range(k))
                        + "".join(f" edge n{i} n{(i + 1) % k}" for i in range(k))
                        + " edge n0 n3")
    grounded = gen_visit(graph, cap=10**6)
    rules = [*grounded.regular_rules, *grounded.co_rules]
    gc.collect()
    tracemalloc.start()
    try:
        sys_ = System(rules)
        generated(sys_)  # the system keeps both phases
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rules) == 17_159 and sys_ == grounded
    assert retained < 3 * 2**20, f"{retained / 2**20:.2f} MiB"


def test_reading_traces_keeps_nothing():
    sys_ = System([Rule(sym(f"c{i}"), (sym(f"c{i + 1}"),)) for i in range(2000)]
                  + [Rule(sym("c2000"), co=True)])
    result = generated(sys_)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(result.phase1.trace) == len(result.trace) == 2001
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 * 2**20, f"{kept / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# the four interpretations

def test_ind_ignores_the_cycle():
    interp = ind(CYCLE)
    assert interp.judgments == {P, Q}
    assert interp.phase == INDUCTIVE


def test_coind_keeps_the_cycle():
    interp = coind(CYCLE)
    assert interp.judgments == {P, Q, R}
    assert interp.phase == COINDUCTIVE


def test_bound_is_the_inductive_closure_of_the_extension():
    interp = bound(CYCLE)
    assert interp.judgments == {P, Q, R}
    assert interp.phase == BOUND


def test_generated_needs_coaxiom_support_and_consistency():
    assert generated(CYCLE).judgments == {P, Q, R}
    # Without the coaxiom the cycle never enters the bound.
    no_co = mk(Rule(P), Rule(Q, (P,)), Rule(R, (R,)))
    assert generated(no_co).judgments == {P, Q}
    # With a coaxiom but no regular support, the bound member is pruned.
    orphan = mk(Rule(Q, (P,)), Rule(Q, co=True))
    assert generated(orphan).judgments == frozenset()


def test_generated_carries_both_phases():
    interp = generated(CYCLE)
    assert interp.phase == GENERATED
    assert interp.phase1 is not None
    assert interp.phase1.phase == BOUND
    assert interp.phase1.judgments == {P, Q, R}


def test_empty_system():
    empty = mk()
    for fn in (ind, coind, bound, generated):
        assert fn(empty).judgments == frozenset()


def test_membership_via_in():
    assert P in generated(CYCLE)
    assert S not in generated(CYCLE)


# ---------------------------------------------------------------------------
# traces

def test_ascending_trace_lists_every_productive_iterate():
    chain = mk(Rule(P), Rule(Q, (P,)), Rule(R, (Q,)))
    assert ind(chain).trace == (frozenset({P}),
                                frozenset({P, Q}),
                                frozenset({P, Q, R}))


def test_ascending_trace_of_empty_fixpoint_is_single_entry():
    assert ind(mk(Rule(Q, (P,)))).trace == (frozenset(),)


def test_descending_trace_excludes_the_start():
    # Pruning q <- p from {p?, no}: bound {p,q} via coaxioms, only the
    # axiomless p drops first, then q follows.
    sys_ = mk(Rule(Q, (P,)), Rule(P, co=True), Rule(Q, co=True))
    interp = generated(sys_)
    assert interp.phase1.judgments == {P, Q}
    assert interp.trace == (frozenset({Q}), frozenset())
    assert interp.judgments == frozenset()


def test_descending_trace_of_stable_start_is_single_entry():
    interp = generated(CYCLE)
    assert interp.trace == (frozenset({P, Q, R}),)


# ---------------------------------------------------------------------------
# kernel discipline and budgets

def test_kernel_accepts_closed_sets_only():
    with pytest.raises(NotPreFixed) as exc:
        kernel(CYCLE, frozenset())  # step adds the axiom p
    assert exc.value.witness == P


def test_kernel_of_own_bound_matches_generated():
    b = bound(CYCLE).judgments
    assert kernel(CYCLE, b).judgments == generated(CYCLE).judgments


def test_budget_exceeded_on_long_ascent():
    chain = [Rule(sym("j0"))]
    chain += [Rule(sym(f"j{i}"), (sym(f"j{i-1}"),)) for i in range(1, 50)]
    with pytest.raises(BudgetExceeded):
        ind(mk(*chain), budget=10)
    assert len(ind(mk(*chain)).judgments) == 50


def test_runs_are_deterministic():
    a, b = generated(CYCLE), generated(CYCLE)
    assert a.judgments == b.judgments
    assert a.trace == b.trace
    assert a.phase1.trace == b.phase1.trace


# A phase with L productive layers needs L + 1 rounds, the last one
# finding nothing new: it passes with budget L + 1 and fails with L.
L = 6


def chain(name: str, n: int) -> list[Rule]:
    """name0 <- name1 <- ... <- name{n}: n rules, each on the next one."""
    return [Rule(sym(f"{name}{i}"), (sym(f"{name}{i + 1}"),)) for i in range(n)]


def assert_budget_boundary(fn, sys_: System, layers: int) -> None:
    assert fn(sys_, budget=layers + 1).layers == layers
    with pytest.raises(BudgetExceeded):
        fn(sys_, budget=layers)


def test_budget_boundary_of_ind():
    # j{L-1} is an axiom and each rule adds the next link: L layers.
    sys_ = mk(Rule(sym(f"j{L - 1}")), *chain("j", L - 1))
    assert len(ind(sys_).trace) == L
    assert_budget_boundary(ind, sys_, L)


def test_budget_boundary_of_bound():
    sys_ = mk(Rule(sym(f"j{L - 1}"), co=True), *chain("j", L - 1))
    assert_budget_boundary(bound, sys_, L)


def test_budget_boundary_of_coind():
    # j{L} concludes no rule, so j{L-1} drops in round 1 and j0 in round L.
    sys_ = mk(*chain("j", L))
    assert coind(sys_).judgments == frozenset()
    assert_budget_boundary(coind, sys_, L)


def test_budget_boundary_of_the_descending_phase_of_generated():
    # Phase 1 takes one layer (every link is a coaxiom); phase 2 prunes
    # the chain from its unsupported end in L rounds.
    sys_ = mk(*chain("j", L - 1), *(Rule(sym(f"j{i}"), co=True) for i in range(L)))
    g = generated(sys_, budget=L + 1)
    assert (g.phase1.layers, g.layers) == (1, L)
    assert_budget_boundary(generated, sys_, L)


def test_zero_budget_fails_even_on_the_empty_system():
    with pytest.raises(BudgetExceeded):
        ind(System([]), budget=0)


# ---------------------------------------------------------------------------
# scaling: every phase is linear in the rules, not rules x layers

def test_long_cycle_and_long_chain_stay_fast():
    n = 20_000
    cycle = [Rule(sym(f"a{i}"), (sym(f"a{(i + 1) % n}"),)) for i in range(n)]
    sys_ = mk(*cycle, Rule(sym("a0"), co=True),
              *chain("c", n), Rule(sym(f"c{n}"), co=True))
    t0 = time.perf_counter()
    g = generated(sys_)
    w = level_witness(sys_, sym("c0"), 30_000)
    elapsed = time.perf_counter() - t0
    assert g.judgments == {sym(f"a{i}") for i in range(n)}
    assert w == DropsAtLevel(n + 1)
    assert elapsed < 5.0, f"{elapsed:.2f} s"
