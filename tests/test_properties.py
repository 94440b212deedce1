"""Law-level properties on randomly generated terms and systems."""

from __future__ import annotations

import copy
import pickle
import random
import re

from hypothesis import given, settings, strategies as st

from coaxiom import (INF, REGULAR_GENERATED, Rule, System, WF_EXTENDED,
                     bound, bounded_coinduction, coind, finset, generated,
                     ind, kernel, num, parse_judgment, parse_judgments,
                     parse_system,
                     prove_approx, prove_regular, prove_wf, render_system,
                     render_term, step, sym, term_key, validate)
from coaxiom.gen import (App, GenError, Lam, Var, gen_lambda, parse_lambda,
                         render_lambda)
from coaxiom.gen.lambdas import _contract
from corpus import CORPUS_SIZE, random_triples
from oracles import (beta, nested_term_key, read_coax_rules, read_coax_term,
                     read_coax_terms)

IDENTS = st.sampled_from(("p", "q", "r", "visit", "f", "g2", "k_a", "co"))

atoms = st.one_of(
    st.integers(-50, 50).map(num),
    st.just(INF),
    IDENTS.map(sym),
)

terms = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(IDENTS, st.lists(inner, min_size=1, max_size=3))
        .map(lambda p: sym(p[0], *p[1])),
        st.lists(inner, max_size=3).map(lambda es: finset(*es)),
    ),
    max_leaves=10,
)

POOL = tuple(sym(c) for c in "pqrstuvw")
judgments = st.sampled_from(POOL)
rules = st.builds(lambda c, ps, co: Rule(c, tuple(ps), co=co),
                  judgments, st.frozensets(judgments, max_size=3),
                  st.booleans())
systems = st.lists(rules, max_size=20).map(System)


# ---------------------------------------------------------------------------
# terms and the DSL

@given(terms)
def test_parse_inverts_render(t):
    assert parse_judgment(render_term(t)) == t


@given(terms, terms)
def test_term_key_separates_distinct_terms(a, b):
    assert (term_key(a) == term_key(b)) == (a == b)


# Few names and values, so that two terms often share a long prefix.
close_terms = st.recursive(
    st.sampled_from((num(0), num(1), INF, sym("a"), sym("b"))),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("f", "g")), st.lists(inner, min_size=1, max_size=3))
        .map(lambda p: sym(p[0], *p[1])),
        st.lists(inner, max_size=3).map(lambda es: finset(*es)),
    ),
    max_leaves=12,
)


@given(close_terms, close_terms)
def test_flat_keys_compare_as_the_nested_keys_do(a, b):
    flat = term_key(a), term_key(b)
    nested = nested_term_key(a), nested_term_key(b)
    assert (flat[0] < flat[1]) == (nested[0] < nested[1])
    assert (flat[0] == flat[1]) == (nested[0] == nested[1])


@given(st.lists(close_terms | terms, max_size=12))
def test_flat_keys_sort_as_the_nested_keys_do(ts):
    assert sorted(ts, key=term_key) == sorted(ts, key=nested_term_key)


@given(terms)
def test_equal_terms_are_one_object(t):
    assert parse_judgment(render_term(t)) is t
    assert copy.deepcopy(t) is t and copy.copy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


@given(st.lists(terms, max_size=8))
def test_sorting_by_term_key_is_stable_under_repetition(ts):
    once = sorted(ts, key=term_key)
    assert sorted(once, key=term_key) == once


@given(systems)
def test_system_round_trips_through_the_dsl(sys_):
    assert parse_system(render_system(sys_)) == sys_


# Each token of a rendered text, and the whitespace before it.
TOKEN_AND_SPACE = re.compile(r"([ \t\r\n]*)(<-|[(){},.]|-?[0-9]+|[a-z][A-Za-z0-9_]*)")
GAPS = (" ", "\n", "\t ", "\r\n", " % c\n", "%(x){,}.\n", "\n%\n  ")


def respace(text, rnd):
    """``text`` with random whitespace and comments between its tokens,
    also inside flat terms such as ``visit(a,{a,b})``."""
    out = []
    for space, tok in TOKEN_AND_SPACE.findall(text):
        out += [rnd.choice(GAPS) if rnd.random() < 0.3 else space, tok]
    return "".join(out) + rnd.choice(("",) + GAPS)


@given(st.integers(0, CORPUS_SIZE - 1), st.lists(terms, min_size=1, max_size=12),
       st.integers(0, 2 ** 32))
def test_respaced_corpus_systems_parse_as_read_token_by_token(seed, js, gaps):
    """The reader that takes a flat term as one token agrees with the
    reference reader, which takes one token at a time."""
    name = {sym(f"j{i}"): js[i % len(js)] for i in range(12)}
    sys_ = System(Rule(name[c], tuple(name[p] for p in ps), co=co)
                  for c, ps, co in random_triples(seed))
    text = respace(render_system(sys_), random.Random(gaps))
    parsed = parse_system(text)
    reference = System(Rule(c, tuple(ps), co=co) for c, ps, co in read_coax_rules(text))
    assert parsed.regular_rules == reference.regular_rules
    assert parsed.co_rules == reference.co_rules
    assert parsed == sys_


@given(st.lists(terms, min_size=1, max_size=6), st.integers(0, 2 ** 32))
def test_respaced_judgments_parse_as_read_token_by_token(ts, gaps):
    rnd = random.Random(gaps)
    for t in ts:
        text = respace(render_term(t), rnd)
        assert parse_judgment(text) is read_coax_term(text) is t
    text = respace("".join(render_term(t) + "." for t in ts), rnd)
    assert list(parse_judgments(text)) == read_coax_terms(text) == ts


# ---------------------------------------------------------------------------
# interpretation laws

@given(systems)
@settings(deadline=None)
def test_sandwich_ind_generated_coind(sys_):
    lo = ind(sys_).judgments
    mid = generated(sys_).judgments
    hi = coind(sys_).judgments
    assert lo <= mid <= hi


@given(systems)
@settings(deadline=None)
def test_generated_stays_inside_its_bound(sys_):
    interp = generated(sys_)
    b = interp.phase1.judgments
    assert interp.judgments <= b
    assert step(sys_, b) <= b  # phase one really is closed


@given(systems)
@settings(deadline=None)
def test_kernel_is_idempotent_on_generated(sys_):
    g = generated(sys_).judgments
    assert kernel(sys_, g).judgments == g


@given(systems)
@settings(deadline=None)
def test_without_co_rules_generated_is_ind(sys_):
    stripped = System(sys_.regular_rules)
    assert generated(stripped).judgments == ind(stripped).judgments


@given(systems)
@settings(deadline=None)
def test_saturating_coaxioms_recovers_coind(sys_):
    regular = System(sys_.regular_rules)
    saturated = System(tuple(sys_.regular_rules)
                       + tuple(Rule(r.conclusion, co=True)
                               for r in sys_.regular_rules))
    assert generated(saturated).judgments == coind(regular).judgments


@given(systems, st.frozensets(judgments, max_size=4))
@settings(deadline=None)
def test_adding_coaxioms_never_shrinks_generated(sys_, extra):
    wider = System(tuple(sys_.regular_rules) + tuple(sys_.co_rules)
                   + tuple(Rule(j, co=True) for j in extra))
    assert generated(sys_).judgments <= generated(wider).judgments


@given(systems)
@settings(deadline=None)
def test_traces_are_strictly_monotone(sys_):
    up = bound(sys_)
    for earlier, later in zip(up.trace, up.trace[1:]):
        assert earlier < later
    assert up.trace[-1] == up.judgments
    down = generated(sys_)
    for earlier, later in zip(down.trace, down.trace[1:]):
        assert later < earlier
    assert down.trace[-1] == down.judgments


# ---------------------------------------------------------------------------
# proofs and checks

@given(systems)
@settings(deadline=None, max_examples=50)
def test_every_bound_member_has_a_validating_wf_proof(sys_):
    for j in bound(sys_).judgments:
        proof = prove_wf(sys_, j)
        assert proof is not None and proof.judgment == j
        assert validate(sys_, proof, WF_EXTENDED).ok


@given(systems)
@settings(deadline=None, max_examples=50)
def test_every_generated_member_has_a_validating_regular_proof(sys_):
    for j in generated(sys_).judgments:
        proof = prove_regular(sys_, j)
        assert proof is not None
        assert validate(sys_, proof, REGULAR_GENERATED).ok


@given(systems, judgments)
@settings(deadline=None, max_examples=50)
def test_approx_provability_is_antitone_in_the_level(sys_, j):
    levels = [prove_approx(sys_, j, n) is not None for n in range(5)]
    assert levels == sorted(levels, reverse=True)


@given(systems, st.frozensets(judgments, max_size=5))
@settings(deadline=None)
def test_bcp_acceptance_is_sound_for_generated(sys_, candidate):
    if bounded_coinduction(sys_, candidate).accepted:
        assert candidate <= generated(sys_).judgments


# ---------------------------------------------------------------------------
# lambda terms

# A lambda term as nested tuples: ("var", k), ("lam", body), ("app", fn, arg).
lambda_shapes = st.recursive(
    st.tuples(st.just("var"), st.integers(0, 3)),
    lambda inner: st.one_of(st.tuples(st.just("lam"), inner),
                            st.tuples(st.just("app"), inner, inner)),
    max_leaves=8,
)


def closed(shape, depth=0):
    """The closed term a shape stands for under ``depth`` binders: a
    variable names binder k modulo the binders around it, and becomes
    the identity where there is none."""
    if shape[0] == "var":
        return Var(shape[1] % depth) if depth else Lam(Var(0))
    if shape[0] == "lam":
        return Lam(closed(shape[1], depth + 1))
    return App(closed(shape[1], depth), closed(shape[2], depth))


def outer_binders(t, depth=0):
    """The binders outside t that t refers to, 0 the innermost."""
    if isinstance(t, Var):
        return {t.index - depth} if t.index >= depth else set()
    if isinstance(t, Lam):
        return outer_binders(t.body, depth + 1)
    return outer_binders(t.fn, depth) | outer_binders(t.arg, depth)


def named(t, pick, scope=()):
    """Fully parenthesised source text of t; ``pick(taken, depth)``
    names each binder, avoiding the names it would capture."""
    if isinstance(t, Var):
        return scope[-1 - t.index]
    if isinstance(t, Lam):
        name = pick({scope[-1 - i] for i in outer_binders(t)}, len(scope))
        return f"(\\{name}. {named(t.body, pick, scope + (name,))})"
    return f"({named(t.fn, pick, scope)}) ({named(t.arg, pick, scope)})"


def gen_lambda_text(source):
    try:
        return render_system(gen_lambda(parse_lambda(source), budget=200, cap=2000))
    except GenError as e:
        return type(e).__name__


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 3), lambda_shapes, lambda_shapes, lambda_shapes, st.data())
def test_lambda_terms_are_read_up_to_alpha_equivalence(binders, shape, fn_body,
                                                       arg_body, data):
    e = closed(shape, binders)
    for _ in range(binders):
        e = Lam(e)
    assert parse_lambda(render_lambda(e)) is e
    # Few names, so that binders often shadow one another.
    names = ("x", "y", "x0", "x1")

    def pick(taken, depth):
        return data.draw(st.sampled_from([n for n in names if n not in taken]
                                         + [f"v{depth}"]))

    text = named(e, pick)
    assert parse_lambda(text) is e
    assert gen_lambda_text(text) == gen_lambda_text(render_lambda(e))
    fn, arg = Lam(closed(fn_body, 1)), Lam(closed(arg_body, 1))
    assert _contract(fn, arg) is beta(fn.body, arg)
