"""Lambda generator: big-step evaluation with observable divergence.

Judgments eval(e, r) relate a closed term to a result: either a value
(an abstraction) or ``inf`` for divergence.  The subject universe is
the closure of the root term under subterms of applications and
beta-redex contractions between its values; evaluation of a closure
term only ever produces terms already in the closure, so the grounded
system is complete for the root.

Terms are interned de Bruijn terms, so alpha-equivalent terms are one
object, which keeps the closure finite for many self-applications.
Terms that keep manufacturing genuinely new abstractions blow the
closure budget instead.
"""

from __future__ import annotations

from ..dsl import MAX_DEPTH
from ..engine import System
from ..terms import INF, Term, sym, term_key
from .common import (DEFAULT_CAP, DEFAULT_CLOSURE_BUDGET, ClosureBudgetExceeded,
                     _axiom, _ground, _premise, _Universe)
from .inputs import App, Lam, LambdaTerm, Var, _fold

__all__ = ["gen_lambda", "encode_lambda", "value_closure"]


def _contract(fn: Lam, arg: LambdaTerm) -> LambdaTerm:
    """The body of fn with the closed value arg for its variable: a
    closed value needs no shifting, and arg is shared, not copied."""
    return _fold(fn.body, lambda t, depth, *kids:
                 type(t)(*kids) if kids else arg if t.index == depth else t)


def encode_lambda(e: LambdaTerm) -> Term:
    """var(x) / lam(x, body) / app(fn, arg) as judgment terms, naming
    binders x0, x1, ... by depth; an open term is a ValueError."""

    def enc(t: LambdaTerm, depth: int, *kids: Term) -> Term:
        if isinstance(t, Var):
            if t.index >= depth:
                raise ValueError(f"open term: Var({t.index}) under {depth} binders")
            return sym("var", sym(f"x{depth - 1 - t.index}"))
        if isinstance(t, Lam):
            return sym("lam", sym(f"x{depth}"), *kids)
        return sym("app", *kids)

    return _fold(e, enc)


def value_closure(root: LambdaTerm,
                  budget: int = DEFAULT_CLOSURE_BUDGET
                  ) -> tuple[list[LambdaTerm], list[Lam]]:
    """Close the root under application subterms and value contractions.

    Returns (closure, values), both sorted by encoded term.  The
    budget bounds the total number of syntax nodes the closure may
    accumulate.  A contraction is built before its size is checked,
    which is cheap: the substituted value is shared, not copied.
    Self-applications that keep minting distinct abstractions double
    their size each round and hit the budget immediately; closures of
    well-behaved programs stay tiny.  An open root is a ValueError, and
    so is a term whose eval judgments nest past ``dsl.MAX_DEPTH``.
    """
    closure: list[LambdaTerm] = []
    seen: set[LambdaTerm] = set()
    total = 0

    def add(t: LambdaTerm) -> None:
        nonlocal total
        if t in seen:
            return
        if t.height >= MAX_DEPTH:
            raise ValueError(f"eval judgment nested {t.height + 1} deep, past {MAX_DEPTH}")
        total += t.size
        if total > budget:
            raise ClosureBudgetExceeded(budget)
        seen.add(t)
        closure.append(t)

    add(root)
    # Each round contracts only the value pairs new since values[:paired].
    decomposed = paired = 0
    while isinstance(root, App):
        while decomposed < len(closure):
            t = closure[decomposed]
            decomposed += 1
            if isinstance(t, App):
                add(t.fn)
                add(t.arg)
        values = [t for t in closure if isinstance(t, Lam)]
        before = len(closure)
        for i, fn in enumerate(values):
            for arg in values[paired if i < paired else 0:]:
                red = _contract(fn, arg)
                if total + red.size > budget:
                    raise ClosureBudgetExceeded(budget)
                add(red)
        paired = len(values)
        if len(closure) == before:
            break

    out = sorted(closure, key=lambda t: term_key(encode_lambda(t)))
    return out, [t for t in out if isinstance(t, Lam)]


def gen_lambda(e: LambdaTerm, budget: int = DEFAULT_CLOSURE_BUDGET,
               cap: int = DEFAULT_CAP) -> System:
    """Ground big-step evaluation rules over the value closure of e.

    Per value v an axiom eval(v, v).  Per application f a in the
    closure: rules concluding eval(f a, r) from eval(f, fn), eval(a,
    arg) and eval(contract(fn, arg), r) for all value pairs; plus the
    divergence propagation rules for a diverging f and for a diverging
    a under a converging f.  One coaxiom eval(t, inf) per closure term.
    """
    closure, values = value_closure(e, budget)
    enc = {t: encode_lambda(t) for t in closure}
    vals = [enc[v] for v in values]
    results = [*vals, INF]
    # (fn, arg, contract(fn, arg), r), shared by every application, so
    # that each contraction is built once
    evals = _Universe(len(vals) * len(vals) * len(results), lambda: [
        (*pair, r) for pair in [(enc[fn], enc[arg], enc[_contract(fn, arg)])
                                for fn in values for arg in values]
        for r in results])

    def sites(t: App) -> list[tuple]:
        tt, ft, at = enc[t], enc[t.fn], enc[t.arg]
        diverges = (sym("eval", tt, INF),)
        return [([(lambda q: (sym("eval", ft, q[0]), sym("eval", at, q[1]),
                              sym("eval", q[2], q[3])), evals)],
                  lambda q: (sym("eval", tt, q[3]),), 1),
                 ([(_premise("eval", ft), [INF])], lambda _: diverges, 1),
                 ([(lambda v: (sym("eval", ft, v), sym("eval", at, INF)), vals)],
                  lambda _: diverges, 1)]

    return _ground([_axiom(sym("eval", v, v)) for v in vals]
                   + [s for t in closure if isinstance(t, App) for s in sites(t)],
                   [sym("eval", enc[t], INF) for t in closure], cap)
