"""Engine, proofs, and checks against the exhaustive oracles.

Every system in the seeded corpus is small enough for the bitmask
oracles to enumerate all subsets, so these suites establish agreement
with the defining set-theoretic characterisations rather than with any
particular iteration strategy.
"""

from __future__ import annotations

import random

from coaxiom import (APPROX, BudgetExceeded, DEFAULT_BUDGET, DropsAtLevel,
                     NotInBound, REGULAR_GENERATED, Rule, SurvivesTo,
                     WF_EXTENDED, analyse, bound, bounded_coinduction, coind,
                     generated, ind, kernel, level_witness, prove_approx,
                     prove_regular, prove_wf, rule_key, validate)
from corpus import as_system, corpus
from oracles import (brute_bound, brute_generated, brute_gfp, brute_lfp,
                     brute_survives, naive_ascending_trace,
                     naive_descending_trace, rule_universe)

CORPUS = corpus()


def conclusions(triples):
    return sorted({c for c, _, _ in triples}, key=repr)


# ---------------------------------------------------------------------------
# interpretations

def test_ind_matches_brute_lfp_on_every_corpus_system():
    for seed, triples in CORPUS:
        got = ind(as_system(triples)).judgments
        assert got == brute_lfp(triples), f"seed {seed}"


def test_coind_matches_brute_gfp_on_every_corpus_system():
    for seed, triples in CORPUS:
        got = coind(as_system(triples)).judgments
        assert got == brute_gfp(triples), f"seed {seed}"


def test_bound_matches_brute_bound_on_every_corpus_system():
    for seed, triples in CORPUS:
        got = bound(as_system(triples)).judgments
        assert got == brute_bound(triples), f"seed {seed}"


def test_generated_matches_brute_generated_on_every_corpus_system():
    for seed, triples in CORPUS:
        got = generated(as_system(triples)).judgments
        assert got == brute_generated(triples), f"seed {seed}"


# ---------------------------------------------------------------------------
# traces: the layered passes list the sets whole-set iteration goes through

def test_traces_match_naive_iteration_on_every_corpus_system():
    single = {"empty": 0, "start": 0}
    for seed, triples in CORPUS:
        sys_ = as_system(triples)
        up = naive_ascending_trace(triples)
        beta = naive_ascending_trace(triples, use_co=True)
        down = naive_descending_trace(triples, beta[-1])
        every = frozenset(c for c, _, co in triples if not co)
        expected = {
            "ind": (ind(sys_), up),
            "bound": (bound(sys_), beta),
            "kernel": (kernel(sys_, beta[-1]), down),
            "generated": (generated(sys_), down),
            "generated.phase1": (generated(sys_).phase1, beta),
            "coind": (coind(sys_), naive_descending_trace(triples, every)),
        }
        for name, (interp, trace) in expected.items():
            assert interp.trace == trace, f"seed {seed}: {name}"
            assert interp.trace[-1] == interp.judgments, f"seed {seed}: {name}"
        single["empty"] += up == (frozenset(),)
        single["start"] += len(down) == 1 and down[0] == beta[-1] != frozenset()
    # both single-entry conventions occur in the corpus
    assert single["empty"] and single["start"], single


def rounds(trace, start) -> int:
    """Productive rounds of a naive trace from ``start``: none when it
    is the single-entry trace of a set no round changes."""
    return 0 if trace[0] == start else len(trace)


def test_a_budget_refuses_exactly_what_naive_iteration_cannot_finish():
    # On one shared system per order, whatever the earlier calls kept.
    for seed, triples in CORPUS:
        up = naive_ascending_trace(triples)
        beta = naive_ascending_trace(triples, use_co=True)
        down = naive_descending_trace(triples, beta[-1])
        every = frozenset(c for c, _, co in triples if not co)
        phase1, phase2 = rounds(beta, frozenset()), rounds(down, beta[-1])
        # name -> (call, productive rounds it needs)
        calls = {
            "ind": (ind, rounds(up, frozenset())),
            "coind": (coind, rounds(naive_descending_trace(triples, every), every)),
            "bound": (bound, phase1),
            "analyse": (analyse, phase1),
            "generated": (generated, max(phase1, phase2)),
            "kernel": (lambda s, b: kernel(s, beta[-1], b), phase2),
        }
        fresh = {name: call(as_system(triples), DEFAULT_BUDGET)
                 for name, (call, _) in calls.items()}
        top = max(need for _, need in calls.values()) + 1
        for budgets in ([*range(top, -1, -1), *range(top + 1)],
                        [*range(top + 1), *range(top, -1, -1)]):
            sys_ = as_system(triples)
            for b in budgets:
                for name, (call, need) in calls.items():
                    try:
                        got = call(sys_, b)
                    except BudgetExceeded as e:
                        assert need >= b and e.budget == b, \
                            f"seed {seed}: {name} refused budget {b}"
                    else:
                        assert need < b and got == fresh[name], \
                            f"seed {seed}: {name} at budget {b}"


# ---------------------------------------------------------------------------
# proof existence and validity (a slice of the corpus keeps this quick;
# the acceptance suite runs the full corpus)

def check_proof_agreement(seed, triples, levels=(0, 1, 2, 3)):
    sys_ = as_system(triples)
    b = bound(sys_).judgments
    g = generated(sys_).judgments
    for j in rule_universe(triples):
        wf = prove_wf(sys_, j)
        assert (wf is not None) == (j in b), f"seed {seed}: wf on {j}"
        if wf is not None:
            assert validate(sys_, wf, WF_EXTENDED).ok, f"seed {seed}"
        for n in levels:
            ap = prove_approx(sys_, j, n)
            assert (ap is not None) == brute_survives(triples, j, n), \
                f"seed {seed}: approx({n}) on {j}"
            if ap is not None:
                assert validate(sys_, ap, APPROX, level=n).ok, f"seed {seed}"
        reg = prove_regular(sys_, j)
        assert (reg is not None) == (j in g), f"seed {seed}: regular on {j}"
        if reg is not None:
            assert validate(sys_, reg, REGULAR_GENERATED).ok, f"seed {seed}"


def test_proof_existence_tracks_the_three_characterisations():
    for seed, triples in CORPUS[:60]:
        check_proof_agreement(seed, triples)


# ---------------------------------------------------------------------------
# the canonical choice: every proof shape uses the least admissible rule

def least_rule(triples, j, admissible, co=False):
    """The least rule by ``rule_key`` concluding ``j`` whose premises
    all pass ``admissible``; co rules only when ``co`` is set."""
    return min((Rule(c, tuple(ps), co=k) for c, ps, k in triples
                if c == j and (co or not k) and all(map(admissible, ps))),
               key=rule_key)


def check_canonical_choice(seed, triples):
    sys_ = as_system(triples)
    beta = naive_ascending_trace(triples, use_co=True)
    entered = {}
    for layer, s in enumerate(beta, start=1):
        for j in s:
            entered.setdefault(j, layer)
    down = naive_descending_trace(triples, beta[-1])

    def survives(p, rounds):
        s = beta[-1] if rounds == 0 else down[min(rounds, len(down)) - 1]
        return p in s

    def used(node):
        rules = sys_.co_rules if node.rule.co else sys_.regular_rules
        return rules[node.rule.index]

    for j in rule_universe(triples):
        for n in (0, 1, 2, 3):
            proof = prove_wf(sys_, j) if n == 0 else prove_approx(sys_, j, n)
            # (node, levels left: its premises survive k - 1 rounds, and
            # at 0 they entered the bound before it)
            todo = [] if proof is None else [(proof, n)]
            seen = set()
            while todo:
                node, k = todo.pop()
                if (node, k) in seen:
                    continue
                seen.add((node, k))
                g = node.judgment
                if k:
                    want = least_rule(triples, g, lambda p: survives(p, k - 1))
                else:
                    want = least_rule(triples, g,
                                      lambda p: entered.get(p, entered[g]) < entered[g],
                                      co=True)
                assert used(node) == want, f"seed {seed}: level {n}, {g} at {k}"
                todo += ((c, max(k - 1, 0)) for c in node.children)
        reg = prove_regular(sys_, j)
        if reg is not None:
            for g, i in reg.choice.items():
                want = least_rule(triples, g, down[-1].__contains__)
                assert sys_.regular_rules[i] == want, f"seed {seed}: regular {g}"


def test_every_proof_uses_the_least_admissible_rule_whatever_the_file_order():
    for seed, triples in CORPUS:
        check_canonical_choice(seed, triples)
        check_canonical_choice(seed, triples[::-1])


# ---------------------------------------------------------------------------
# bounded coinduction and witnesses

def check_bcp_agreement(seed, triples):
    sys_ = as_system(triples)
    g = generated(sys_).judgments
    assert bounded_coinduction(sys_, g).accepted, f"seed {seed}"
    rng = random.Random(seed * 7919)
    pool = conclusions(triples)
    for _ in range(6):
        candidate = frozenset(j for j in pool if rng.random() < 0.4)
        verdict = bounded_coinduction(sys_, candidate)
        if verdict.accepted:
            assert candidate <= g, f"seed {seed}: unsound acceptance"
        else:
            assert verdict.failures, f"seed {seed}: silent rejection"


def test_bcp_accepts_generated_and_never_overshoots():
    for seed, triples in CORPUS:
        check_bcp_agreement(seed, triples)


def check_witness_agreement(seed, triples, max_n=6):
    sys_ = as_system(triples)
    for j in conclusions(triples):
        w = level_witness(sys_, j, max_n)
        for n in range(max_n + 1):
            has = prove_approx(sys_, j, n) is not None
            if isinstance(w, NotInBound):
                expect = False
            elif isinstance(w, DropsAtLevel):
                expect = n < w.level
            else:
                assert isinstance(w, SurvivesTo)
                if not w.at_fixpoint and n > w.level:
                    continue  # the witness makes no claim beyond its horizon
                expect = True
            assert has == expect, f"seed {seed}: {j} at level {n} vs {w}"


def test_level_witness_agrees_with_approximated_proofs():
    for seed, triples in CORPUS[:60]:
        check_witness_agreement(seed, triples)


# ---------------------------------------------------------------------------
# endpoints of the coaxiom dial

def test_no_co_rules_collapses_generated_to_ind():
    for seed, triples in CORPUS:
        stripped = [t for t in triples if not t[2]]
        sys_ = as_system(stripped)
        assert generated(sys_).judgments == ind(sys_).judgments, f"seed {seed}"


def test_coaxioms_on_every_conclusion_recover_coind():
    for seed, triples in CORPUS:
        regular = [t for t in triples if not t[2]]
        saturated = regular + [(c, frozenset(), True)
                               for c in conclusions(regular)]
        sys_ = as_system(saturated)
        reg_sys = as_system(regular)
        assert generated(sys_).judgments == coind(reg_sys).judgments, \
            f"seed {seed}"


def test_generated_grows_with_the_coaxiom_set():
    for seed, triples in CORPUS[:120]:
        sys_ = as_system(triples)
        rng = random.Random(seed * 104729)
        extra = [(c, frozenset(), True)
                 for c in conclusions(triples) if rng.random() < 0.5]
        wider = as_system(triples + extra)
        assert generated(sys_).judgments <= generated(wider).judgments, \
            f"seed {seed}"
