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
from ..engine import Rule, System
from ..terms import INF, Term, sym, term_key
from .common import (DEFAULT_CAP, DEFAULT_CLOSURE_BUDGET,
                     ClosureBudgetExceeded, guard_cap)
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
    decomposed = 0
    contracted: set[tuple[Lam, LambdaTerm]] = set()
    while True:
        while decomposed < len(closure):
            t = closure[decomposed]
            decomposed += 1
            if isinstance(t, App):
                add(t.fn)
                add(t.arg)
        values = [t for t in closure if isinstance(t, Lam)]
        if not any(isinstance(t, App) for t in closure):
            break
        before = len(closure)
        for fn in values:
            for arg in values:
                if (fn, arg) in contracted:
                    continue
                contracted.add((fn, arg))
                red = _contract(fn, arg)
                if total + red.size > budget:
                    raise ClosureBudgetExceeded(budget)
                add(red)
        if len(closure) == before and decomposed == len(closure):
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
    apps = [t for t in closure if isinstance(t, App)]
    nv = len(values)
    guard_cap(nv + len(apps) * (nv * nv * (nv + 1) + 1 + nv) + len(closure), cap)

    enc = {t: encode_lambda(t) for t in closure}
    results: list[Term] = [enc[v] for v in values] + [INF]

    rules: list[Rule] = []
    for v in values:
        rules.append(Rule(sym("eval", enc[v], enc[v])))
    for t in apps:
        for fn in values:
            for arg in values:
                red = _contract(fn, arg)
                for r in results:
                    rules.append(Rule(
                        sym("eval", enc[t], r),
                        (sym("eval", enc[t.fn], enc[fn]),
                         sym("eval", enc[t.arg], enc[arg]),
                         sym("eval", enc[red], r))))
        rules.append(Rule(sym("eval", enc[t], INF),
                          (sym("eval", enc[t.fn], INF),)))
        for fn in values:
            rules.append(Rule(sym("eval", enc[t], INF),
                              (sym("eval", enc[t.fn], enc[fn]),
                               sym("eval", enc[t.arg], INF))))
    for t in closure:
        rules.append(Rule(sym("eval", enc[t], INF), co=True))
    return System(rules)
