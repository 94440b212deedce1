"""Graph generators: reachability visits, distances, minimum paths.

Each generator grounds one meta-rule family over a finite universe read
off the input graph.  The visit family quantifies successor visit-sets
over the node powerset; the distance and path families draw premise
values from the weights (respectively node sequences) of simple paths
to the designated target, with infinity (respectively the bottom path)
standing for unreachability.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from ..engine import Rule, System
from ..terms import INF, FinSet, Inf, Num, Sym, Term, sym, term_key
from .common import DEFAULT_CAP, guard_cap
from .inputs import Graph

__all__ = ["gen_visit", "gen_dist", "gen_minpath", "simple_paths_to"]

BOT = sym("bot")


def _node_subsets(nodes: tuple[str, ...]) -> list[FinSet]:
    out = []
    for k in range(len(nodes) + 1):
        for combo in itertools.combinations(sorted(nodes), k):
            out.append(FinSet(tuple(sym(n) for n in combo)))
    return out


def gen_visit(g: Graph, cap: int = DEFAULT_CAP) -> System:
    """Judgments visit(v, N): N is the set of nodes a visit from v sees.

    For each node, one rule per assignment of a visited-set to each
    successor; a node with no successors gets the single axiom
    visit(v, {v}).  One coaxiom visit(v, {}) per node.
    """
    if g.weighted:
        raise ValueError("visit systems are generated from unweighted graphs")
    n = len(g.nodes)
    count = n  # coaxioms
    degs = {v: len(g.successors(v)) for v in g.nodes}
    for v in g.nodes:
        count += (2 ** n) ** degs[v] if degs[v] else 1
    guard_cap(count, cap)

    subsets = _node_subsets(g.nodes)
    rules: list[Rule] = []
    for v in sorted(g.nodes):
        succs = [e.dst for e in g.successors(v)]
        if not succs:
            rules.append(Rule(sym("visit", sym(v), FinSet((sym(v),)))))
            continue
        for combo in itertools.product(subsets, repeat=len(succs)):
            premises = tuple(sym("visit", sym(s), ns)
                             for s, ns in zip(succs, combo))
            seen = {sym(v)}
            for ns in combo:
                seen.update(ns.elements)
            rules.append(Rule(sym("visit", sym(v), FinSet(tuple(seen))),
                              premises))
    for v in sorted(g.nodes):
        rules.append(Rule(sym("visit", sym(v), FinSet()), co=True))
    return System(rules)


def simple_paths_to(g: Graph, target: str,
                    cap: int = DEFAULT_CAP) -> dict[str, list[tuple[str, ...]]]:
    """All simple paths from each node to the target, as node tuples.

    The trivial path (target,) is included for the target itself.
    """
    adj = {v: [e.dst for e in g.successors(v)] for v in g.nodes}
    out: dict[str, list[tuple[str, ...]]] = {v: [] for v in g.nodes}
    total = 0
    for v in sorted(g.nodes):
        # Depth-first with its own stack: todo[0] yields the start node
        # and todo[i] the successors of path[i - 1].  A path ends at the
        # target.
        path: list[str] = []
        on_path: set[str] = set()
        todo = [iter((v,))]
        while todo:
            node = next(todo[-1], None)
            if node is None:
                todo.pop()
                if todo:
                    on_path.remove(path.pop())
            elif node == target:
                out[v].append((*path, node))
                total += 1
                guard_cap(total, cap)
            elif node not in on_path:
                path.append(node)
                on_path.add(node)
                todo.append(iter(adj[node]))
    return out


def _check_weighted(g: Graph, target: str) -> dict[tuple[str, str], int]:
    if target not in g.nodes:
        raise ValueError(f"target {target!r} is not a node")
    w: dict[tuple[str, str], int] = {}
    for e in g.edges:
        if e.weight is None:
            raise ValueError("distance systems need a fully weighted graph")
        w[(e.src, e.dst)] = e.weight
    return w


def _path_weight(path: tuple[str, ...], w: dict[tuple[str, str], int]) -> int:
    return sum(w[(path[i], path[i + 1])] for i in range(len(path) - 1))


def _delta_universe(paths: dict[str, list[tuple[str, ...]]],
                    w: dict[tuple[str, str], int]) -> list[Term]:
    weights = sorted({_path_weight(p, w) for ps in paths.values() for p in ps})
    return [Num(x) for x in weights] + [INF]


def _plus(weight: int, d: Term) -> Term:
    return INF if isinstance(d, Inf) else Num(weight + d.value)


def _weight(d: Term) -> float:
    return math.inf if isinstance(d, Inf) else d.value


def gen_dist(g: Graph, target: str, cap: int = DEFAULT_CAP) -> System:
    """Judgments dist(v, u, d): d the least path weight from v to u.

    Premise distances range over the weights of simple paths to the
    target plus infinity; each combination yields the rule whose
    conclusion takes the minimum of weight-plus-premise over all
    successors.  Coaxioms dist(v, u, inf) for v != u.
    """
    w = _check_weighted(g, target)
    paths = simple_paths_to(g, target, cap)
    universe = _delta_universe(paths, w)
    m = len(universe)

    count = 0
    for v in g.nodes:
        if v == target:
            continue
        k = len(g.successors(v))
        count += m ** k if k else 1
    count += 1 + (len(g.nodes) - 1)
    guard_cap(count, cap)

    u = sym(target)
    rules: list[Rule] = [Rule(sym("dist", u, u, Num(0)))]
    for v in sorted(g.nodes):
        if v == target:
            continue
        succs = g.successors(v)
        if not succs:
            rules.append(Rule(sym("dist", sym(v), u, INF)))
            continue
        for combo in itertools.product(universe, repeat=len(succs)):
            best = min((_plus(w[(v, e.dst)], d) for e, d in zip(succs, combo)), key=_weight)
            premises = tuple(sym("dist", sym(e.dst), u, d)
                             for e, d in zip(succs, combo))
            rules.append(Rule(sym("dist", sym(v), u, best), premises))
    for v in sorted(g.nodes):
        if v != target:
            rules.append(Rule(sym("dist", sym(v), u, INF), co=True))
    return System(rules)


def _path_term(path: tuple[str, ...]) -> Term:
    return sym("p", *(sym(n) for n in path))


def gen_minpath(g: Graph, target: str, cap: int = DEFAULT_CAP) -> System:
    """Judgments minPath(v, u, p, d): p a minimum-weight path, d its weight.

    Premise paths range over simple paths plus the bottom path ``bot``;
    premise weights over the same universe as the distance system.  For
    every premise combination one rule is emitted per successor
    attaining the minimum, prepending v to that successor's path
    (bottom absorbs: v.bot = bot).  Coaxioms minPath(v, u, bot, inf)
    for v != u.
    """
    w = _check_weighted(g, target)
    paths = simple_paths_to(g, target, cap)
    universe = _delta_universe(paths, w)
    m = len(universe)

    count = 1 + (len(g.nodes) - 1)
    for v in g.nodes:
        if v == target:
            continue
        succs = g.successors(v)
        if not succs:
            count += 1
            continue
        combos = 1
        for e in succs:
            combos *= (len(paths[e.dst]) + 1) * m
        count += combos * len(succs)
    guard_cap(count, cap)

    u = sym(target)
    rules: list[Rule] = [Rule(sym("minPath", u, u, _path_term((target,)), Num(0)))]
    for v in sorted(g.nodes):
        if v == target:
            continue
        succs = g.successors(v)
        if not succs:
            rules.append(Rule(sym("minPath", sym(v), u, BOT, INF)))
            continue
        per_succ = []
        for e in succs:
            opts = [(_path_term(p), d) for p in sorted(paths[e.dst])
                    for d in universe]
            opts += [(BOT, d) for d in universe]
            per_succ.append(opts)
        for combo in itertools.product(*per_succ):
            costs = [_plus(w[(v, e.dst)], d) for e, (_, d) in zip(succs, combo)]
            best = min(costs, key=_weight)
            premises = tuple(sym("minPath", sym(e.dst), u, a, d)
                             for e, (a, d) in zip(succs, combo))
            for e, (a, _), c in zip(succs, combo, costs):
                if c == best:
                    if a == BOT:
                        concl_path: Term = BOT
                    else:
                        concl_path = sym("p", sym(v), *a.args)
                    rules.append(Rule(sym("minPath", sym(v), u, concl_path, best),
                                      premises))
    for v in sorted(g.nodes):
        if v != target:
            rules.append(Rule(sym("minPath", sym(v), u, BOT, INF), co=True))
    return System(rules)
