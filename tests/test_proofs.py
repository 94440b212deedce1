"""Proof construction, validation, and serialization.

Uses the pruning chain (p <- q <- r, coaxioms everywhere) where the
survival level of each judgment is known by hand, plus a cycle system
for the regular proofs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pickle
import random
import sys
import time

import pytest

import cli_golden
from coaxiom import (APPROX, REGULAR_GENERATED, RegularProof, Rule, RuleRef,
                     System, Violation, WF_EXTENDED, WfProof, analyse, bound,
                     bounded_coinduction, generated, level_witness,
                     parse_system, proof_from_dict, proof_to_dict, proofs,
                     prove_approx, prove_regular, prove_wf, render_system,
                     render_term, sym, tree_size, validate)
from coaxiom import cli
from coaxiom.terms import _postorder, _write, term_key
from corpus import as_system, corpus
from oracles import walking_proof_from_dict

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


def test_validate_refuses_a_question_it_cannot_ask():
    tree, regular = prove_wf(CYCLE, P), prove_regular(CYCLE, P)
    for proof, mode, message in [
            (regular, WF_EXTENDED, "wf-extended validation expects a WfProof"),
            (tree, APPROX, "approx validation needs level >= 0"),
            (tree, "nope", "unknown validation mode: 'nope'")]:
        with pytest.raises(ValueError) as exc:
            validate(CYCLE, proof, mode)
        assert str(exc.value) == message


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


def test_validate_regular_rejects_a_choice_one_past_the_last_rule():
    fake = RegularProof(P, {P: len(CYCLE.regular_rules)})
    report = validate(CYCLE, fake, REGULAR_GENERATED)
    assert [v.reason for v in report.violations] == ["bad-rule-ref"]


def test_validate_regular_rejects_incomplete_choice():
    fake = RegularProof(P, {P: 0})  # premise q has no chosen rule
    report = validate(CYCLE, fake, REGULAR_GENERATED)
    assert any(v.reason == "missing-choice" for v in report.violations)


def test_validate_regular_rejects_a_root_without_a_choice():
    # The map covers the cycle, but not the judgment it claims to prove.
    fake = RegularProof(R, {P: 0, Q: 1})
    report = validate(CYCLE, fake, REGULAR_GENERATED)
    assert report.violations == (Violation((), R, "missing-choice"),)


def test_validate_regular_rejects_a_rule_for_another_judgment():
    fake = RegularProof(P, {P: 1, Q: 1})  # rule 1 is q <- p
    report = validate(CYCLE, fake, REGULAR_GENERATED)
    assert report.violations == (Violation((), P, "conclusion-mismatch"),)


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


def _shared_proofs(seed):
    """150 seeded random shared proofs of 1 to 9 nodes each."""
    rng = random.Random(seed)
    return [_random_shared_proof(rng, rng.randrange(1, 10)) for _ in range(150)]


@pytest.mark.parametrize("seed", range(4))
def test_validate_matches_the_recursive_check_on_shared_proofs(seed):
    modes = [(WF_EXTENDED, None)] + [(APPROX, n) for n in range(5)]
    for proof in _shared_proofs(seed):
        for mode, level in modes:
            got = [(v.path, v.judgment, v.reason)
                   for v in validate(CHAIN, proof, mode, level=level).violations]
            assert got == _recursive_violations(CHAIN, proof, min_co=level)
        assert proof_from_dict(json.loads(json.dumps(proof_to_dict(proof)))) is proof


@pytest.mark.parametrize("seed", range(4))
def test_tree_size_is_the_number_of_lines_of_the_text(seed):
    for proof in _shared_proofs(seed):
        assert tree_size(proof) == _write(proof, cli._wf_line).count("\n") + 1


def _printed_tree(path, j, *flags):
    """The lines ``prove`` prints below its heading."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["prove", str(path), j, *flags]) == 0
    return out.getvalue().splitlines()[1:]


def test_tree_size_is_the_number_of_lines_prove_prints_on_the_corpus(tmp_path):
    for seed, triples in corpus():
        text = render_system(as_system(triples))
        # A new file each time: rewriting one file waits on the disk.
        f = tmp_path / f"corpus{seed}.coax"
        f.write_text(text)
        sys_ = parse_system(text)
        for j in sorted(sys_.by_conclusion, key=term_key):
            name = render_term(j)
            for n in range(3):
                proof = prove_approx(sys_, j, n)
                if proof is not None:
                    flags = ("--level", str(n)) if n else ()
                    assert tree_size(proof) == len(_printed_tree(f, name, *flags))


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


class _TooMuchWork(Exception):
    pass


def test_validate_enters_no_path_that_ends_at_the_level():
    # The approx proof of p at level n, the co rule of p at depth n:
    # 3n/2 + 1 distinct nodes on about 2^(n/2) paths that end at that
    # co node.  Python calls and returns made by validate count its
    # work; a walk that entered the paths whose co node is exactly at
    # the level would make millions, and is stopped.
    sys_, n = parse_system("p <- q, r. q <- p. r <- p. co p."), 40
    proof = prove_approx(sys_, P, n)
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += 1
        if events > 100_000:
            raise _TooMuchWork

    sys.setprofile(count)
    try:
        report = validate(sys_, proof, APPROX, level=n)
    finally:
        sys.setprofile(None)
    assert report.ok
    assert events < 100_000


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


def test_approx_picks_a_rule_once_per_judgment_and_level(monkeypatch):
    # The post-order that builds the proof asks a (judgment, level) pair
    # for its premises more than once; its rule is picked the first time.
    sys_, top = _ladder(12)
    picked = []
    monkeypatch.setattr(proofs, "_least", lambda s, j, *rest, _fn=proofs._least, **kw:
                        picked.append(j) or _fn(s, j, *rest, **kw))
    proof = prove_approx(sys_, top, 12)
    pairs = {(node.judgment, level) for node, level in _postorder(
        (proof, 12), lambda key: [(c, max(key[1] - 1, 0)) for c in key[0].children])}
    assert len(picked) == len(pairs)
    assert set(picked) == {j for j, _ in pairs}


def test_a_lone_admissible_rule_is_taken_without_ranking(monkeypatch):
    # Every judgment of the cycle has one regular rule: 500 picks, and
    # nothing to rank them by rule_key.
    n = 500
    cycle = System([Rule(sym(f"c{i}"), (sym(f"c{(i + 1) % n}"),)) for i in range(n)]
                   + [Rule(sym("c0"), co=True)])
    ranked = []
    monkeypatch.setattr(proofs, "rule_key", lambda r, _fn=proofs.rule_key:
                        ranked.append(r) or _fn(r))
    proof = prove_regular(cycle, sym("c0"))
    assert ranked == []
    assert len(proof.choice) == n
    assert validate(cycle, proof, REGULAR_GENERATED).ok


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


def test_a_wf_proof_validates_as_regular_only_with_one_regular_node_per_judgment():
    # P <- Q <- P unfolded once: two nodes for P.
    unfolded = WfProof(P, RuleRef(0), (WfProof(Q, RuleRef(1), (WfProof(P, RuleRef(0)),)),))
    for proof in (prove_wf(CYCLE, P), unfolded):
        with pytest.raises(ValueError):
            validate(CYCLE, proof, REGULAR_GENERATED)
    tree = prove_wf(LADDER, P)
    assert validate(LADDER, tree, REGULAR_GENERATED) == \
        validate(LADDER, prove_regular(LADDER, P), REGULAR_GENERATED)


def test_questions_put_to_one_system_run_each_phase_once(monkeypatch):
    import coaxiom.engine as engine

    calls = []
    for name in ("_ascend", "_descend"):
        monkeypatch.setattr(engine, name, lambda *a, _fn=getattr(engine, name), _n=name:
                            calls.append(_n) or _fn(*a))
    sys_ = System([*CYCLE.regular_rules, *CYCLE.co_rules])
    assert bound(sys_) is analyse(sys_).phase1
    assert generated(sys_) is analyse(sys_)
    assert prove_wf(sys_, P) and prove_approx(sys_, P, 2)
    assert validate(sys_, prove_regular(sys_, P), REGULAR_GENERATED).ok
    assert level_witness(sys_, P, 3).at_fixpoint
    assert bounded_coinduction(sys_, {P, Q}).accepted
    assert calls == ["_ascend", "_descend"]


def test_serialising_regular_proof_without_system_fails():
    with pytest.raises(ValueError):
        proof_to_dict(prove_regular(CYCLE, P))


# ---------------------------------------------------------------------------
# loading a JSON tree, against the loader that walks every node dict

def _json(proof, sys_=None):
    """A proof's dict as JSON gives it back: no dict is shared."""
    return json.loads(json.dumps(proof_to_dict(proof, sys_)))


def _outcome(load, d):
    try:
        return load(d)
    except Exception as e:
        return type(e)


def _loads_alike(d):
    """The loader and the walking one give the identical node for a
    tree, the same root and choice map, in the same order, for a
    regular proof, and otherwise raise the same exception type."""
    got, want = _outcome(proof_from_dict, d), _outcome(walking_proof_from_dict, d)
    if isinstance(want, RegularProof):
        assert type(got) is RegularProof and got.root is want.root
        assert list(got.choice.items()) == list(want.choice.items())
    else:
        assert got is want
    return want


class _Compared(dict):
    """A node dict that notes the outcome of each ``==`` it takes part in."""

    outcomes: list = []

    def __eq__(self, other):
        same = dict.__eq__(self, other)
        _Compared.outcomes.append(same)
        return same

    __hash__ = None


def _chain(n, leaf=None):
    """An n-deep chain c(n-1) -> ... -> c0 whose leaf is a co rule,
    with ``leaf`` merged into the leaf's dict."""
    d = {"judgment": "c0", "rule": 0, "co": True, "children": [], **(leaf or {})}
    for i in range(1, n):
        d = {"judgment": f"c{i}", "rule": i, "co": False, "children": [d]}
    return d


def _over(*children):
    return {"judgment": "top", "rule": 0, "co": False, "children": list(children)}


def test_loading_a_regular_proof_interns_no_tree_node():
    # The walk finishes loadz and loady before it meets the
    # back-reference to loadp; neither may be left in the node table.
    sys_ = parse_system("loadp <- loadq, loadz. loadq <- loadp. "
                        "loadz <- loady. loady. co loadp.")
    d = proof_to_dict(prove_regular(sys_, sym("loadp")), sys_)
    before = len(proofs._NODES)
    again = proof_from_dict(d)
    assert isinstance(again, RegularProof)
    assert len(proofs._NODES) == before


def test_the_ladder_json_tree_loads_in_its_distinct_nodes(tmp_path, monkeypatch):
    # prove --format json prints the k = 12 ladder's wf proof as
    # 2^14 - 3 unshared dicts over 3k + 1 = 37 distinct subproofs.
    path = tmp_path / "ladder12.coax"
    path.write_text(cli_golden.ladder(12))
    run = cli_golden.invoke(["prove", str(path), "x12", "--format", "json"])
    assert run["code"] == 0
    assert run["stdout"].count('"judgment":') == 1 + 16381
    d = json.loads(run["stdout"])["proof"]
    calls, real = [], proofs.WfProof

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(proofs, "WfProof", counting)
    proof = proof_from_dict(d)
    monkeypatch.undo()
    assert len(calls) <= 2 * 37
    assert proof is prove_wf(*_ladder(12))


@pytest.mark.parametrize("seed", range(4))
def test_loading_agrees_with_the_walk_on_random_shared_proofs(seed):
    for proof in _shared_proofs(seed):
        assert _loads_alike(_json(proof)) is proof
        assert _loads_alike(proof_to_dict(proof)) is proof


def test_loading_agrees_with_the_walk_on_corpus_approx_proofs():
    # A judgment proved at two levels prints as two unequal dicts with
    # one judgment string; some of them are compared, which turns the
    # comparisons off for the rest of their document.
    _Compared.outcomes = []
    for _, triples in corpus():
        sys_ = as_system(triples)
        for j in sorted(sys_.by_conclusion, key=term_key):
            for n in range(4):
                proof = prove_approx(sys_, j, n)
                if proof is not None:
                    text = json.dumps(proof_to_dict(proof))
                    assert _loads_alike(json.loads(text, object_hook=_Compared)) is proof
    assert False in _Compared.outcomes and True in _Compared.outcomes


@pytest.mark.parametrize("leaf", [{"rule": 1}, {"co": False}, {"judgment": "c9"},
                                  {"extra": 0}, {"rule": True}, {"rule": 0.0}],
                         ids=repr)
def test_loading_agrees_with_the_walk_on_near_duplicates(leaf):
    # Twins that differ only at their 40-deep leaf, in either order,
    # and again after the shortcut is off; rule 0.0 and True are == to
    # 0 and 1, so those twins load as one node.
    plain, odd = _chain(40), _chain(40, leaf)
    for d in (_over(plain, odd), _over(odd, plain), _over(plain, odd, _chain(40)),
              _over(_chain(3), plain, _chain(3, leaf), odd, _chain(3))):
        assert isinstance(_loads_alike(d), WfProof)


def test_loading_agrees_with_the_walk_on_deep_equal_twins():
    # On CPython 3.11, comparing the two 1,500-deep chains overflows
    # the stack, and the walk of every node dict takes over.
    assert isinstance(_loads_alike(_over(_chain(1500), _chain(1500))), WfProof)


def _shared_ladder(k):
    """The k-rung ladder's wf proof as dicts shared in memory, the way
    proof_to_dict shares them, but built afresh by every call."""
    x = _Compared(judgment="x0", rule=0, co=True, children=[])
    for i in range(1, k + 1):
        y = _Compared(judgment=f"y{i}", rule=3 * i - 1, co=False, children=[x])
        z = _Compared(judgment=f"z{i}", rule=3 * i, co=False, children=[x])
        x = _Compared(judgment=f"x{i}", rule=3 * i - 2, co=False, children=[y, z])
    return x


def test_dicts_shared_in_memory_are_not_compared_as_trees():
    # == on two such ladders built apart unfolds 2^14 - 3 dicts a side,
    # where the walk by identity reads 37; the first dict met twice
    # turns the comparisons off.
    _Compared.outcomes = []
    d = _over(_shared_ladder(12), _shared_ladder(12))
    assert _loads_alike(d).children == (prove_wf(*_ladder(12)),) * 2
    assert len(_Compared.outcomes) < 100


def _leaf_dict(text, **fields):
    return {"judgment": text, "rule": 0, "co": False, "children": [], **fields}


MALFORMED = {
    "missing rule": {"judgment": "p", "co": False, "children": []},
    "missing judgment": {"rule": 0, "co": False, "children": []},
    "non-dict child": _leaf_dict("p", children=["q"]),
    "children an int": _leaf_dict("p", children=5),
    "children zero": _leaf_dict("p", children=0),
    "children a string": _leaf_dict("p", children="qr"),
    "children a dict": _leaf_dict("p", children={"judgment": "q"}),
    "unhashable judgment": _leaf_dict(["p"]),
    "unhashable judgment over a non-dict child": _leaf_dict(["p"], children=[7]),
    "unhashable judgment after its twin": _over(_leaf_dict(["p"]), _leaf_dict("p")),
    "unhashable rule": _leaf_dict("p", rule=[0]),
    "unparsable judgment": _leaf_dict("p("),
    "bad node before a back-reference": _over({"judgment": "top", "back": True},
                                              {"judgment": "q"}),
    "bad node after a back-reference": _over({"judgment": "q"},
                                             {"judgment": "top", "back": True}),
    "bad node after a repeated subtree": _over({"judgment": "c1", "co": False},
                                               _chain(5), _chain(5)),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_dicts_raise_what_the_walk_raises(name):
    assert isinstance(_loads_alike(MALFORMED[name]), type)
