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

from ..engine import Rule, System
from ..terms import INF, FinSet, Inf, Num, Term, sym
from .common import DEFAULT_CAP, _powerset, guard_cap
from .inputs import Edge, Graph

__all__ = ["gen_visit", "gen_dist", "gen_minpath", "simple_paths_to"]

BOT = sym("bot")


def gen_visit(g: Graph, cap: int = DEFAULT_CAP) -> System:
    """Judgments visit(v, N): N is the set of nodes a visit from v sees.

    For each node, one rule per assignment of a visited-set to each
    successor; a node with no successors gets the single axiom
    visit(v, {v}).  One coaxiom visit(v, {}) per node.
    """
    if g.weighted:
        raise ValueError("visit systems are generated from unweighted graphs")
    succs = {v: [e.dst for e in g.successors(v)] for v in sorted(g.nodes)}
    nsub = 2 ** len(g.nodes)
    guard_cap(len(g.nodes) + sum(nsub ** len(ss) for ss in succs.values()), cap)

    subsets = [FinSet(tuple(map(sym, c))) for c in _powerset(tuple(succs))]
    rules: list[Rule] = []
    for v, ss in succs.items():
        if not ss:
            rules.append(Rule(sym("visit", sym(v), FinSet((sym(v),)))))
            continue
        for combo in itertools.product(subsets, repeat=len(ss)):
            premises = tuple(sym("visit", sym(s), ns)
                             for s, ns in zip(ss, combo))
            seen = {sym(v)}
            for ns in combo:
                seen.update(ns.elements)
            rules.append(Rule(sym("visit", sym(v), FinSet(tuple(seen))),
                              premises))
    for v in succs:
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


def _distance_setup(g: Graph, target: str, cap: int
                    ) -> tuple[dict[str, list[tuple[str, ...]]], list[Term],
                               dict[str, tuple[Edge, ...]]]:
    """What dist and minpath share: the simple paths to the target, the
    distance universe (their weights, then infinity), and the successor
    edges of every other node, in node order."""
    if target not in g.nodes:
        raise ValueError(f"target {target!r} is not a node")
    w: dict[tuple[str, str], int] = {}
    for e in g.edges:
        if e.weight is None:
            raise ValueError("distance systems need a fully weighted graph")
        w[(e.src, e.dst)] = e.weight
    paths = simple_paths_to(g, target, cap)
    weights = {sum(w[(p[i], p[i + 1])] for i in range(len(p) - 1))
               for ps in paths.values() for p in ps}
    succs = {v: g.successors(v) for v in sorted(g.nodes) if v != target}
    return paths, [Num(x) for x in sorted(weights)] + [INF], succs


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
    _, universe, succs = _distance_setup(g, target, cap)
    # The target's axiom and one coaxiom per other node, then the rules
    # of each other node: one per premise combination, or one axiom.
    guard_cap(len(g.nodes) + sum(len(universe) ** len(es)
                                 for es in succs.values()), cap)

    u = sym(target)
    rules: list[Rule] = [Rule(sym("dist", u, u, Num(0)))]
    for v, es in succs.items():
        if not es:
            rules.append(Rule(sym("dist", sym(v), u, INF)))
            continue
        for combo in itertools.product(universe, repeat=len(es)):
            best = min((_plus(e.weight, d) for e, d in zip(es, combo)), key=_weight)
            premises = tuple(sym("dist", sym(e.dst), u, d)
                             for e, d in zip(es, combo))
            rules.append(Rule(sym("dist", sym(v), u, best), premises))
    for v in succs:
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
    paths, universe, succs = _distance_setup(g, target, cap)
    # As for dist, but a combination grounds up to one rule per
    # successor.
    guard_cap(len(g.nodes) + sum(
        len(es) * math.prod((len(paths[e.dst]) + 1) * len(universe) for e in es)
        or 1 for es in succs.values()), cap)

    u = sym(target)
    rules: list[Rule] = [Rule(sym("minPath", u, u, _path_term((target,)), Num(0)))]
    for v, es in succs.items():
        if not es:
            rules.append(Rule(sym("minPath", sym(v), u, BOT, INF)))
            continue
        per_succ = []
        for e in es:
            opts = [(_path_term(p), d) for p in sorted(paths[e.dst])
                    for d in universe]
            opts += [(BOT, d) for d in universe]
            per_succ.append(opts)
        for combo in itertools.product(*per_succ):
            costs = [_plus(e.weight, d) for e, (_, d) in zip(es, combo)]
            best = min(costs, key=_weight)
            premises = tuple(sym("minPath", sym(e.dst), u, a, d)
                             for e, (a, d) in zip(es, combo))
            for (a, _), c in zip(combo, costs):
                if c == best:
                    if a == BOT:
                        concl_path: Term = BOT
                    else:
                        concl_path = sym("p", sym(v), *a.args)
                    rules.append(Rule(sym("minPath", sym(v), u, concl_path, best),
                                      premises))
    for v in succs:
        rules.append(Rule(sym("minPath", sym(v), u, BOT, INF), co=True))
    return System(rules)
