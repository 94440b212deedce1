"""After phase 1 only the rules that fired are read.

A regular rule fires in phase 1 exactly when all its premises lie in
the bound.  Phase 2 keeps the greatest consistent subset of the bound,
so a rule that did not fire is never live there, and no proof can use
it.  The descent from the kept bound and the proof index therefore hold
only the fired rules; these tests check that this changes no result,
and count the work that parsing, grounding, phase 2 and the proof index
do on visit-dense.
"""

from __future__ import annotations

import json
import random
import sys

import pytest

from cli_golden import GOLDEN
from coaxiom import (Rule, System, analyse, engine, generated, kernel, parse_system,
                     proofs, prove_approx, prove_regular, rule_key, render_system, sym)
from coaxiom.gen import gen_visit, parse_graph
from coaxiom.terms import term_key
from corpus import as_system, corpus


def least_over_all_rules(system: System):
    """``proofs._least`` over an index of every rule of ``system``, as it
    read before the index held only the rules that fired."""
    index: dict = {}
    for rs in (system.regular_rules, system.co_rules):
        for i, r in enumerate(rs):
            index.setdefault(r.conclusion, []).append((r, i))

    def least(sys_, j, admissible, co=False):
        assert sys_ is system
        ok = [(r, i) for r, i in index.get(j, ())
              if (co or not r.co) and all(map(admissible, r.premises))]
        assert ok, f"no admissible rule for {j}"
        return min(ok, key=lambda pair: rule_key(pair[0]))

    return least


def proofs_of(sys_: System, judgments, top: int) -> list:
    """Every approximated proof of ``judgments`` at levels 0 to ``top``,
    then every regular proof."""
    return ([prove_approx(sys_, j, n) for j in judgments for n in range(top + 1)]
            + [prove_regular(sys_, j) for j in judgments])


def check_fired_reading(rules: list[Rule], label) -> None:
    sys_ = System(rules)
    a = analyse(sys_)
    # Phase 2 from a bound that no System keeps scans every regular rule.
    full = kernel(System(rules), a.phase1.judgments, None)
    assert (a.judgments, a.levels, a.layers) == (full.judgments, full.levels, full.layers), label
    judgments = sorted({r.conclusion for r in rules}, key=term_key)
    got = proofs_of(sys_, judgments, a.layers + 2)
    reference = System(rules)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proofs, "_least", least_over_all_rules(reference))
        want = proofs_of(reference, judgments, a.layers + 2)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # Level-n proofs are interned nodes; regular proofs are records.
        assert g is w or g == w, label


def deep_family(seed: int, n: int = 40) -> list[Rule]:
    """A seeded system many layers deep in both phases: a chain
    j0 <- j1 <- ... held up by a coaxiom at its far end, each judgment
    with a second rule on one or both of the two judgments after it, a
    few rules back down the chain that close cycles, a few more
    coaxioms, and rules that rest on a judgment no rule concludes, so
    never fire."""
    rng = random.Random(seed)
    j = [sym(f"j{i}") for i in range(n)]
    rules = [Rule(j[i], (j[i + 1],)) for i in range(n - 1)] + [Rule(j[-1], co=True)]
    for i in range(n):
        ahead = j[i + 1:i + 3]
        if ahead:
            rules.append(Rule(j[i], tuple(rng.sample(ahead, rng.randint(1, len(ahead))))))
        if i and rng.random() < 0.05:
            rules.append(Rule(j[i], (j[rng.randrange(i)],)))
        if rng.random() < 0.05:
            rules.append(Rule(j[i], co=True))
        if rng.random() < 0.2:
            rules.append(Rule(j[i], (sym("missing", j[i]), rng.choice(j)),
                              co=rng.random() < 0.3))
    rng.shuffle(rules)
    return rules


def test_fired_reading_changes_nothing_on_the_corpus():
    for seed, triples in corpus():
        sys_ = as_system(triples)
        check_fired_reading([*sys_.regular_rules, *sys_.co_rules], seed)


@pytest.mark.parametrize("seed", range(8))
def test_fired_reading_changes_nothing_on_deep_families(seed):
    rules = deep_family(seed)
    a = analyse(System(rules))
    assert max(a.phase1.layers, a.layers) >= 12
    check_fired_reading(rules, seed)


def test_fired_reading_changes_nothing_on_gen_outputs():
    runs = json.loads(GOLDEN.read_text())["runs"]
    outputs = [run["stdout"] for run in runs if run["argv"][0] == "gen" and run["code"] == 0]
    assert len(outputs) > 20
    for text in outputs:
        sys_ = parse_system(text)
        assert render_system(sys_) == text
        check_fired_reading([*sys_.regular_rules, *sys_.co_rules], text[:40])


# ---------------------------------------------------------------------------
# counted work on visit-dense: a 5-node ring plus a chord

VISIT_DENSE = ("node a node b node c node d node e edge a c "
               "edge a b edge b c edge c d edge d e edge e a")


def rule_calls(build) -> int:
    """Python-level calls of ``Rule.__init__`` and ``Rule.__hash__``
    made by ``build()``."""
    codes = {Rule.__init__.__code__, Rule.__hash__.__code__}
    calls = 0

    def record(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(record)
    try:
        build()
    finally:
        sys.setprofile(None)
    return calls


def test_parsing_and_grounding_make_no_rule_call_per_rule():
    graph = parse_graph(VISIT_DENSE)
    text = render_system(gen_visit(graph))
    sys_ = parse_system(text)
    assert (len(sys_.regular_rules), len(sys_.co_rules)) == (1_152, 5)
    assert rule_calls(lambda: parse_system(text)) == 0
    assert rule_calls(lambda: gen_visit(graph)) == 0
    assert parse_system(text) == gen_visit(graph) == System(
        Rule(r.conclusion, r.premises, r.co) for r in sys_.regular_rules + sys_.co_rules)


def test_phase_2_and_the_proof_index_hold_only_the_fired_rules(monkeypatch):
    sys_ = gen_visit(parse_graph(VISIT_DENSE))
    set_up = []
    monkeypatch.setattr(engine, "_descend", lambda rules, start, _descend=engine._descend:
                        set_up.append(len(rules)) or _descend(rules, start))
    g = generated(sys_)
    assert set_up == [66]
    member = min(g.judgments, key=term_key)
    assert prove_regular(sys_, member) is not None
    assert sum(map(len, sys_.by_conclusion.values())) == 71
    # Any other beta is read against every regular rule.
    kernel(sys_, set(g.phase1.judgments), None)
    assert set_up == [66, 1_152]
