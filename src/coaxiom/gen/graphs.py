"""Graph generators: reachability visits, distances, minimum paths.

Each generator grounds one meta-rule family over a finite universe read
off the input graph.  The visit family quantifies successor visit-sets
over the node powerset; the distance and path families draw premise
values from the weights (respectively node sequences) of simple paths
to the designated target, with infinity (respectively the bottom path)
standing for unreachability.
"""

from __future__ import annotations

import math

from ..engine import System
from ..terms import INF, FinSet, Inf, Num, Term, sym
from .common import (DEFAULT_CAP, _axiom, _ground, _premise, _subsets, _Universe,
                     guard_cap)
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
    nodes = [sym(v) for v in sorted(g.nodes)]
    subsets = _subsets(nodes)
    # For this call only: each node's bit, each visited set's node mask,
    # and per site the conclusion of each union's mask, made once; nodes
    # is in canonical order, so a conclusion's set is found at once.
    bits = {n: 1 << i for i, n in enumerate(nodes)}
    masks: dict[Term, int] = {}

    def site(v: Term) -> tuple:
        slots = [(_premise("visit", sym(e.dst)), subsets) for e in g.successors(v.name)]
        heads: dict[int, tuple[Term]] = {}

        def conclude(*nss: FinSet) -> tuple[Term]:
            m = bits[v]
            for ns in nss:
                if ns not in masks:
                    masks[ns] = sum(bits[n] for n in ns.elements)
                m |= masks[ns]
            if m not in heads:
                heads[m] = (sym("visit", v, FinSet(
                    tuple(n for n in nodes if bits[n] & m))),)
            return heads[m]
        return slots, conclude, 1

    return _ground([site(v) for v in nodes],
                   [sym("visit", v, FinSet()) for v in nodes], cap)


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


def _distance_setup(g: Graph, target: str, cap: int) -> tuple:
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
    successors (infinity when there are none).  Coaxioms
    dist(v, u, inf) for v != u.
    """
    _, universe, succs = _distance_setup(g, target, cap)
    u = sym(target)

    def site(v: str, es: tuple[Edge, ...]) -> tuple:
        ws = [e.weight for e in es]
        return [(_premise("dist", sym(e.dst), u), universe) for e in es], \
            lambda *ds: (sym("dist", sym(v), u, min(
                map(_plus, ws, ds), key=_weight, default=INF)),), 1

    return _ground([_axiom(sym("dist", u, u, Num(0)))]
                   + [site(v, es) for v, es in succs.items()],
                   [sym("dist", sym(v), u, INF) for v in succs], cap)


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
    u = sym(target)

    def slot(e: Edge) -> tuple:
        ps = paths[e.dst]
        return (lambda ad: (sym("minPath", sym(e.dst), u, *ad),),
                _Universe((len(ps) + 1) * len(universe), lambda: [
                    (a, d) for a in [*map(_path_term, sorted(ps)), BOT]
                    for d in universe]))

    def site(v: str, es: tuple[Edge, ...]) -> tuple:
        if not es:
            return _axiom(sym("minPath", sym(v), u, BOT, INF))

        def conclude(*ads: tuple[Term, Term]) -> list[Term]:
            costs = [_plus(e.weight, d) for e, (_, d) in zip(es, ads)]
            best = min(costs, key=_weight)
            return [sym("minPath", sym(v), u,
                        BOT if a == BOT else sym("p", sym(v), *a.args), best)
                    for (a, _), c in zip(ads, costs) if c == best]
        return [slot(e) for e in es], conclude, len(es)

    return _ground([_axiom(sym("minPath", u, u, _path_term((target,)), Num(0)))]
                   + [site(v, es) for v, es in succs.items()],
                   [sym("minPath", sym(v), u, BOT, INF) for v in succs], cap)
