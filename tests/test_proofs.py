"""Proof construction, validation, and serialization.

Uses the pruning chain (p <- q <- r, coaxioms everywhere) where the
survival level of each judgment is known by hand, plus a cycle system
for the regular proofs.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
import time

import pytest

import cli_golden
from coaxiom import (APPROX, REGULAR_GENERATED, RegularProof, Rule, RuleRef,
                     System, WF_EXTENDED, WfProof, bound, generated,
                     parse_system, proof_from_dict, proof_to_dict,
                     prove_approx, prove_regular, prove_wf, sym, validate)
from coaxiom.terms import term_key

P, Q, R = sym("p"), sym("q"), sym("r")

# p <- q <- r with a coaxiom for each judgment: everything is in the
# bound, r drops after one pruning round, q after two, p after three.
CHAIN = System([
    Rule(P, (Q,)), Rule(Q, (R,)),
    Rule(P, co=True), Rule(Q, co=True), Rule(R, co=True),
])

# p supported by the cycle p <- q, q <- p, admitted by one coaxiom.
CYCLE = System([
    Rule(P, (Q,)), Rule(Q, (P,)), Rule(P, co=True),
])

# The same chain built inductively from an axiom, so well-founded
# proofs are genuine trees instead of coaxiom leaves.
LADDER = System([Rule(R), Rule(Q, (R,)), Rule(P, (Q,))])


# ---------------------------------------------------------------------------
# well-founded proofs

def test_wf_proof_exists_exactly_on_the_bound():
    assert prove_wf(CHAIN, P) is not None
    assert prove_wf(CHAIN, sym("zap")) is None
    no_co = System([Rule(P, (Q,))])
    assert prove_wf(no_co, P) is None


def test_wf_proof_shape_and_validation():
    proof = prove_wf(LADDER, P)
    assert proof.judgment == P
    assert [c.judgment for c in proof.children] == [Q]
    assert [c.judgment for c in proof.children[0].children] == [R]
    assert proof.children[0].children[0].children == ()
    assert validate(LADDER, proof, WF_EXTENDED).ok


def test_wf_proof_in_a_coaxiom_saturated_system_is_a_leaf():
    # Every judgment of CHAIN enters the bound in the very first
    # iteration via its coaxiom, so the canonical tree never needs the
    # regular rules.
    proof = prove_wf(CHAIN, P)
    assert proof.rule.co and proof.children == ()
    assert validate(CHAIN, proof, WF_EXTENDED).ok


def test_wf_proof_uses_co_rules_as_leaves():
    proof = prove_wf(CYCLE, P)
    # The only way into the bound is the coaxiom, so the tree is a leaf.
    assert proof.rule.co
    assert proof.children == ()


# ---------------------------------------------------------------------------
# approximated proofs

def test_approx_levels_match_survival():
    # r survives 0 rounds, q survives 1, p survives 2.
    for j, survives in ((R, 0), (Q, 1), (P, 2)):
        for n in range(4):
            proof = prove_approx(CHAIN, j, n)
            assert (proof is not None) == (n <= survives), (j, n)


def test_approx_proof_validates_at_its_level():
    proof = prove_approx(CHAIN, P, 2)
    assert validate(CHAIN, proof, APPROX, level=2).ok
    # The same tree is also a perfectly good unrestricted proof.
    assert validate(CHAIN, proof, WF_EXTENDED).ok


def test_approx_level_zero_is_plain_wf():
    assert prove_approx(CHAIN, R, 0) is not None


def test_approx_rejects_negative_level():
    with pytest.raises(ValueError):
        prove_approx(CHAIN, P, -1)


def test_approx_co_rule_depth_is_enforced_by_validate():
    proof = prove_approx(CYCLE, P, 1)
    assert proof is not None
    assert validate(CYCLE, proof, APPROX, level=1).ok
    # A coaxiom right at the root violates any positive level.
    shallow = WfProof(P, RuleRef(0, co=True))
    bad = validate(CYCLE, shallow, APPROX, level=1)
    assert not bad.ok
    assert bad.violations[0].reason == "co-rule-depth"


# ---------------------------------------------------------------------------
# regular proofs

def test_regular_proof_exists_exactly_on_generated():
    assert prove_regular(CYCLE, P) is not None
    assert prove_regular(CYCLE, sym("zap")) is None
    # q <- p with only a coaxiom for q: in the bound, but pruned.
    orphan = System([Rule(Q, (P,)), Rule(Q, co=True)])
    assert prove_regular(orphan, Q) is None


def test_regular_proof_closes_the_cycle():
    proof = prove_regular(CYCLE, P)
    assert proof.root == P
    assert set(proof.choice) == {P, Q}
    chosen = CYCLE.regular_rules[proof.choice[P]]
    assert chosen.conclusion == P and chosen.premises == (Q,)
    assert validate(CYCLE, proof, REGULAR_GENERATED).ok


def test_regular_choice_stays_inside_generated():
    g = generated(CYCLE).judgments
    proof = prove_regular(CYCLE, P)
    assert set(proof.choice) <= g


# ---------------------------------------------------------------------------
# validation catches corruption

def test_validate_rejects_conclusion_mismatch():
    proof = prove_wf(LADDER, Q)
    wrong = WfProof(P, proof.rule, proof.children)
    report = validate(LADDER, wrong, WF_EXTENDED)
    assert not report.ok
    assert any(v.reason == "conclusion-mismatch" for v in report.violations)


def test_validate_rejects_missing_premise():
    proof = prove_wf(LADDER, P)
    assert proof.children  # concluded by the regular rule from q
    pruned = WfProof(proof.judgment, proof.rule, ())
    report = validate(LADDER, pruned, WF_EXTENDED)
    assert any(v.reason == "premise-mismatch" for v in report.violations)


def test_validate_rejects_dangling_rule_reference():
    bad = WfProof(P, RuleRef(99, False))
    report = validate(LADDER, bad, WF_EXTENDED)
    assert any(v.reason == "bad-rule-ref" for v in report.violations)


def test_validate_regular_rejects_out_of_bound_judgment():
    # Hand-build a choice map through a cycle no coaxiom admits.
    no_co = System([Rule(P, (Q,)), Rule(Q, (P,))])
    fake = RegularProof(P, {P: 0, Q: 1})
    report = validate(no_co, fake, REGULAR_GENERATED)
    assert any(v.reason == "not-in-bound" for v in report.violations)


def test_validate_regular_rejects_incomplete_choice():
    fake = RegularProof(P, {P: 0})  # premise q has no chosen rule
    report = validate(CYCLE, fake, REGULAR_GENERATED)
    assert any(v.reason == "missing-choice" for v in report.violations)


def test_violation_paths_point_at_the_node():
    root = prove_wf(LADDER, P)
    bad_leaf = WfProof(R, RuleRef(7, False))
    rebuilt = WfProof(root.judgment, root.rule,
                      (WfProof(Q, root.children[0].rule, (bad_leaf,)),))
    report = validate(LADDER, rebuilt, WF_EXTENDED)
    paths = {v.path for v in report.violations}
    assert (0, 0) in paths


def _recursive_violations(sys_, node, path=(), min_co=None):
    """The tree check as a plain recursive walk: (path, judgment, reason)."""
    out = []
    rules = sys_.co_rules if node.rule.co else sys_.regular_rules
    rule = rules[node.rule.index] if 0 <= node.rule.index < len(rules) else None
    if rule is None:
        out.append((path, node.judgment, "bad-rule-ref"))
    else:
        if rule.conclusion != node.judgment:
            out.append((path, node.judgment, "conclusion-mismatch"))
        if tuple(sorted((c.judgment for c in node.children), key=term_key)) != rule.premises:
            out.append((path, node.judgment, "premise-mismatch"))
        if node.rule.co and min_co is not None and len(path) < min_co:
            out.append((path, node.judgment, "co-rule-depth"))
    for i, child in enumerate(node.children):
        out += _recursive_violations(sys_, child, path + (i,), min_co)
    return out


def test_violations_keep_their_paths_in_pre_order():
    co_p = WfProof(P, RuleRef(0, True))
    bad = WfProof(R, RuleRef(7, False))
    tree = WfProof(P, RuleRef(0), (
        WfProof(Q, RuleRef(1), (bad, co_p)),
        WfProof(P, RuleRef(1), (WfProof(Q, RuleRef(0), (bad,)), co_p)),
        co_p))
    for mode, level in ((WF_EXTENDED, None), (APPROX, 0), (APPROX, 2), (APPROX, 3)):
        got = [(v.path, v.judgment, v.reason)
               for v in validate(CHAIN, tree, mode, level=level).violations]
        assert got == _recursive_violations(CHAIN, tree, min_co=level)
        assert len(got) >= 7


def test_a_3000_deep_wf_proof_validates():
    n = 3000
    cycle = System([Rule(sym(f"c{i}"), (sym(f"c{(i + 1) % n}"),)) for i in range(n)]
                   + [Rule(sym("c0"), co=True)])
    proof = prove_wf(cycle, sym("c1"))
    assert validate(cycle, proof, WF_EXTENDED).ok
    assert validate(cycle, proof, APPROX, level=n - 1).ok
    report = validate(cycle, proof, APPROX, level=n)
    assert [(len(v.path), v.judgment, v.reason) for v in report.violations] \
        == [(n - 1, sym("c0"), "co-rule-depth")]


def _random_shared_proof(rng, size=8):
    """A proof of CHAIN-judgments whose nodes reuse earlier nodes as
    children, so subtrees are shared.  About half of the nodes follow a
    rule of CHAIN, so whole subtrees can be valid; the others take any
    rule reference, including out-of-range ones of either list."""
    pool = []
    judgments = (P, Q, R, sym("zap"))
    for _ in range(size):
        co = rng.random() < 0.4
        rules = CHAIN.co_rules if co else CHAIN.regular_rules
        index = rng.randrange(-1, len(rules) + 2)
        if pool and 0 <= index < len(rules) and rng.random() < 0.5:
            rule = rules[index]
            kids = [[n for n in pool if n.judgment == p] for p in rule.premises]
            if all(kids):
                pool.append(WfProof(rule.conclusion, RuleRef(index, co),
                                    tuple(rng.choice(k[-3:]) for k in kids)))
                continue
        kids = tuple(rng.choice(pool[-4:]) for _ in range(rng.randrange(3))) if pool else ()
        pool.append(WfProof(rng.choice(judgments), RuleRef(index, co), kids))
    return pool[-1]


@pytest.mark.parametrize("seed", range(4))
def test_validate_matches_the_recursive_check_on_shared_proofs(seed):
    rng = random.Random(seed)
    modes = [(WF_EXTENDED, None)] + [(APPROX, n) for n in range(5)]
    for _ in range(150):
        proof = _random_shared_proof(rng, rng.randrange(1, 10))
        for mode, level in modes:
            got = [(v.path, v.judgment, v.reason)
                   for v in validate(CHAIN, proof, mode, level=level).violations]
            assert got == _recursive_violations(CHAIN, proof, min_co=level)
        assert proof_from_dict(json.loads(json.dumps(proof_to_dict(proof)))) is proof


def test_an_out_of_range_co_rule_is_only_a_bad_reference():
    # The co-depth check skips a co node whose rule does not resolve,
    # also when it sits above a resolvable co rule.
    bad_co = WfProof(Q, RuleRef(7, True), (WfProof(R, RuleRef(2, True)),))
    tree = WfProof(P, RuleRef(0), (bad_co,))
    report = validate(CHAIN, tree, APPROX, level=3)
    assert [(v.path, v.reason) for v in report.violations] == [
        ((0,), "bad-rule-ref"), ((0, 0), "co-rule-depth")]
    assert [(v.path, v.reason) for v in report.violations] == [
        (path, reason) for path, _, reason in _recursive_violations(CHAIN, tree, min_co=3)]


def _ladder(k):
    return parse_system(cli_golden.ladder(k)), sym(f"x{k}")


def test_validate_checks_each_shared_node_once():
    # The k = 30 ladder's wf proof has 91 distinct nodes on 2^32 - 3
    # paths; a valid proof is checked in its distinct nodes.
    sys_, top = _ladder(30)
    proof = prove_wf(sys_, top)
    for mode, level in ((WF_EXTENDED, None), (APPROX, 30)):
        start = time.perf_counter()
        report = validate(sys_, proof, mode, level=level)
        assert report.ok
        assert time.perf_counter() - start < 0.1, mode


# ---------------------------------------------------------------------------
# interned proof nodes

def test_equal_nodes_are_one_object():
    leaf = WfProof(R, RuleRef(0))
    assert WfProof(Q, RuleRef(1), (leaf,)) is WfProof(Q, RuleRef(1), (leaf,))
    assert WfProof(Q, RuleRef(1), [leaf]) is WfProof(Q, RuleRef(1, False), (leaf,))
    assert WfProof(Q, RuleRef(1), (leaf,)) is not WfProof(Q, RuleRef(1, True), (leaf,))
    sys_, top = _ladder(30)
    assert prove_wf(sys_, top) is prove_wf(sys_, top)
    assert prove_approx(sys_, top, 5) is prove_approx(sys_, top, 5)


def test_nodes_are_frozen_and_copy_as_themselves():
    proof = prove_wf(LADDER, P)
    assert copy.copy(proof) is proof
    assert copy.deepcopy(proof) is proof
    assert pickle.loads(pickle.dumps(proof)) is proof
    with pytest.raises(AttributeError):
        proof.judgment = Q
    with pytest.raises(AttributeError):
        del proof.children


def test_repr_shows_children_by_judgment():
    proof = prove_wf(LADDER, P)
    assert repr(proof) == ("WfProof(judgment=Sym(name='p', args=()), "
                           "rule=RuleRef(index=2, co=False), children=(<proof of q>,))")
    assert repr(WfProof(R, RuleRef(0))) == \
        "WfProof(judgment=Sym(name='r', args=()), rule=RuleRef(index=0, co=False), children=())"
    sys_, top = _ladder(30)
    assert repr(prove_wf(sys_, top)).endswith("children=(<proof of y30>, <proof of z30>))")


def test_a_3000_deep_proof_hashes_and_round_trips():
    n = 3000
    cycle = System([Rule(sym(f"c{i}"), (sym(f"c{(i + 1) % n}"),)) for i in range(n)]
                   + [Rule(sym("c0"), co=True)])
    proof = prove_wf(cycle, sym("c1"))
    assert hash(proof) == hash(proof)
    assert proof == proof_from_dict(proof_to_dict(proof))
    assert {proof: 1}[prove_wf(cycle, sym("c1"))] == 1


# ---------------------------------------------------------------------------
# serialization

def test_wf_proof_dict_round_trip():
    proof = prove_wf(LADDER, P)
    d = proof_to_dict(proof)
    assert proof_from_dict(d) == proof
    json.dumps(d)  # schema must be JSON-clean


def test_regular_proof_dict_round_trip():
    proof = prove_regular(CYCLE, P)
    d = proof_to_dict(proof, CYCLE)
    again = proof_from_dict(d)
    assert isinstance(again, RegularProof)
    assert again.root == proof.root
    assert again.choice == proof.choice
    json.dumps(d)


def test_regular_proof_dict_marks_the_back_edge():
    d = proof_to_dict(prove_regular(CYCLE, P), CYCLE)
    node = d
    while node.get("children"):
        node = node["children"][0]
    assert node.get("back") is True


def _leaf(text, rule):
    return {"judgment": text, "rule": rule, "co": False, "children": []}


@pytest.mark.parametrize("first, last", [(1, 2), (2, 1)])
def test_regular_dict_keeps_the_last_of_two_expansions(first, last):
    # Hand-written input that expands q twice, first inside r's subtree
    # and then as p's second child: the later expansion in document
    # order sets q's rule, and the choice map keeps pre-order.
    d = {"judgment": "p", "rule": 0, "co": False, "children": [
        {"judgment": "r", "rule": 3, "co": False, "children": [
            _leaf("q", first), {"judgment": "p", "back": True}]},
        _leaf("q", last)]}
    again = proof_from_dict(d)
    assert again.choice == {P: 0, R: 3, Q: last}
    assert list(again.choice) == [P, R, Q]


def test_deep_wf_proof_round_trips_through_a_dict():
    proof = WfProof(sym("c0"), RuleRef(0, True))
    for i in range(1, 3000):
        proof = WfProof(sym(f"c{i}"), RuleRef(i), (proof,))
    again = proof_from_dict(proof_to_dict(proof))
    for i in reversed(range(3000)):
        assert (again.judgment, again.rule) == (sym(f"c{i}"), RuleRef(i, i == 0))
        again = again.children[0] if again.children else None
    assert again is None


def test_serialising_regular_proof_without_system_fails():
    with pytest.raises(ValueError):
        proof_to_dict(prove_regular(CYCLE, P))
