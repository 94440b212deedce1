"""Reference implementations the tests trust more than the engine.

Everything in this module is deliberately naive and shares no code with
the package: fixed points are found by enumerating subsets of the
universe rather than by iteration, distances come from a textbook
Dijkstra, first sets from the classic worklist algorithm, and so on.
Traces, which are defined by iteration, come from whole-set rule
application repeated until nothing changes.
When an oracle and the engine disagree, the oracle wins and the engine
has a bug.

Rules are passed around as plain triples ``(conclusion, premises, co)``
with hashable judgments, so none of the engine's own data structures
leak in here.
"""

from __future__ import annotations

import heapq
import re
from typing import Dict, FrozenSet, Hashable, Iterable, List, Sequence, Tuple

Judgment = Hashable
RuleTriple = Tuple[Judgment, FrozenSet[Judgment], bool]


# ---------------------------------------------------------------------------
# set-theoretic fixed points by exhaustive bitmask enumeration

def rule_universe(rules: Iterable[RuleTriple]) -> frozenset:
    """Every judgment mentioned anywhere in the rules."""
    out = set()
    for conclusion, premises, _co in rules:
        out.add(conclusion)
        out.update(premises)
    return frozenset(out)


def _bit_encode(rules: Sequence[RuleTriple]):
    """Assign one bit per derivable judgment (i.e. per rule conclusion).

    Only conclusions can ever belong to a fixed point, so the universe
    is the conclusion set; a rule with a premise outside it can never
    fire and is dropped.  Returns (ordered judgments, encoded rules)
    where an encoded rule is ``(conclusion_bit, premise_mask, co)``.
    """
    concl = sorted({c for c, _, _ in rules}, key=repr)
    bit = {j: 1 << i for i, j in enumerate(concl)}
    encoded = []
    for c, ps, co in rules:
        if all(p in bit for p in ps):
            mask = 0
            for p in ps:
                mask |= bit[p]
            encoded.append((bit[c], mask, co))
    return concl, encoded


def _decode(concl, mask: int) -> frozenset:
    return frozenset(j for i, j in enumerate(concl) if mask >> i & 1)


def _fire(encoded, s: int) -> int:
    f = 0
    for cbit, mask, _co in encoded:
        if mask & s == mask:
            f |= cbit
    return f


def brute_lfp(rules: Sequence[RuleTriple]) -> frozenset:
    """Least fixed point as the intersection of every closed subset.

    A set is closed when applying the rules cannot leave it; by
    Knaster-Tarski the least fixed point is the meet of all of them.
    Co rules are treated like regular ones only if the caller promoted
    them first; here they are simply ignored.
    """
    concl, encoded = _bit_encode([r for r in rules if not r[2]])
    full = (1 << len(concl)) - 1
    out = full
    for s in range(full + 1):
        if _fire(encoded, s) & ~s == 0:
            out &= s
    return _decode(concl, out)


def brute_gfp(rules: Sequence[RuleTriple]) -> frozenset:
    """Greatest fixed point as the union of every consistent subset."""
    concl, encoded = _bit_encode([r for r in rules if not r[2]])
    full = (1 << len(concl)) - 1
    out = 0
    for s in range(full + 1):
        if s & ~_fire(encoded, s) == 0:
            out |= s
    return _decode(concl, out)


def brute_bound(rules: Sequence[RuleTriple]) -> frozenset:
    """Least fixed point once the co rules are promoted to regular ones."""
    return brute_lfp([(c, ps, False) for c, ps, _ in rules])


def brute_generated(rules: Sequence[RuleTriple]) -> frozenset:
    """Union of all consistent subsets of the bound (regular rules only).

    A union of consistent sets is itself consistent, so this is exactly
    the greatest consistent subset of the bound without ever iterating.
    The bit universe must cover co-rule conclusions too: they can be in
    the bound even when no regular rule concludes them.
    """
    beta = brute_bound(rules)
    concl = sorted({c for c, _, _ in rules}, key=repr)
    bit = {j: 1 << i for i, j in enumerate(concl)}
    encoded = []
    for c, ps, co in rules:
        if not co and all(p in bit for p in ps):
            mask = 0
            for p in ps:
                mask |= bit[p]
            encoded.append((bit[c], mask, False))
    beta_mask = 0
    for j in beta:
        beta_mask |= bit[j]
    out = 0
    s = beta_mask
    while True:
        if s & ~_fire(encoded, s) == 0:
            out |= s
        if s == 0:
            break
        s = (s - 1) & beta_mask  # next subset of the bound
    return _decode(concl, out)


def brute_survives(rules: Sequence[RuleTriple], j: Judgment,
                   n: int) -> bool:
    """Does ``j`` survive ``n`` rounds of pruning the bound?

    Round zero is the bound itself; each later round keeps a judgment
    only if some regular rule concludes it from survivors of the
    previous round.  This is the oracle for approximated provability.
    """
    s = brute_bound(rules)
    regular = [(c, ps, co) for c, ps, co in rules if not co]
    for _ in range(n):
        s = frozenset(c for c, ps, _ in regular if ps <= s) & s
    return j in s


# ---------------------------------------------------------------------------
# traces by whole-set iteration

def naive_step(rules: Sequence[RuleTriple], s: FrozenSet[Judgment],
               use_co: bool = False) -> frozenset:
    """Conclusions of every rule whose premises all lie in s."""
    return frozenset(c for c, ps, co in rules if (use_co or not co) and ps <= s)


def naive_ascending_trace(rules: Sequence[RuleTriple],
                          use_co: bool = False) -> tuple:
    """The sets step^1(empty), step^2(empty), ... up to the least fixed
    point; just the empty set when nothing fires at all."""
    s: frozenset = frozenset()
    trace = []
    while True:
        t = naive_step(rules, s, use_co)
        if t == s:
            return tuple(trace) or (s,)
        trace.append(t)
        s = t


def naive_descending_trace(rules: Sequence[RuleTriple],
                           start: FrozenSet[Judgment]) -> tuple:
    """The sets after each round of s -> step(s) & start from ``start``
    (regular rules only), not listing ``start`` itself unless no round
    changes it."""
    s = frozenset(start)
    trace = []
    while True:
        t = naive_step(rules, s) & start
        if t == s:
            return tuple(trace) or (s,)
        trace.append(t)
        s = t


# ---------------------------------------------------------------------------
# graphs

def reachable_from(successors: Dict[str, Sequence[str]], start: str) -> frozenset:
    """Depth-first reachability, including the start node."""
    seen: set = set()
    stack = [start]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(successors.get(v, ()))
    return frozenset(seen)


def dijkstra_to(nodes: Iterable[str], weights: Dict[Tuple[str, str], int],
                target: str) -> Dict[str, object]:
    """Cheapest cost from every node to ``target`` along directed edges.

    Unreachable nodes map to the string ``"inf"`` so the result can be
    compared against judgment arguments without importing term types.
    """
    incoming: Dict[str, List[Tuple[str, int]]] = {v: [] for v in nodes}
    for (src, dst), w in weights.items():
        incoming[dst].append((src, w))
    dist: Dict[str, object] = {v: "inf" for v in nodes}
    dist[target] = 0
    heap: List[Tuple[int, str]] = [(0, target)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] != d:
            continue
        for src, w in incoming[v]:
            cand = d + w
            if dist[src] == "inf" or cand < dist[src]:
                dist[src] = cand
                heapq.heappush(heap, (cand, src))
    return dist


# ---------------------------------------------------------------------------
# grammars

def first_sets(productions: Dict[str, List[Tuple[str, ...]]],
               nonterminals: Iterable[str]) -> Dict[str, frozenset]:
    """Classic worklist computation of first sets, one per nonterminal.

    ``productions`` maps a nonterminal to its alternative bodies, each a
    tuple of symbols; a symbol is a nonterminal iff it appears as a key
    of the mapping.  The empty body is the empty production.
    """
    nts = set(nonterminals)
    nullable: set = set()
    changed = True
    while changed:
        changed = False
        for a, bodies in productions.items():
            if a in nullable:
                continue
            if any(all(x in nullable for x in body) for body in bodies):
                nullable.add(a)
                changed = True
    first: Dict[str, set] = {a: set() for a in productions}
    changed = True
    while changed:
        changed = False
        for a, bodies in productions.items():
            for body in bodies:
                for x in body:
                    if x not in nts:
                        if x not in first[a]:
                            first[a].add(x)
                            changed = True
                        break
                    if not first[x] <= first[a]:
                        first[a] |= first[x]
                        changed = True
                    if x not in nullable:
                        break
    return {a: frozenset(s) for a, s in first.items()}


# ---------------------------------------------------------------------------
# call-by-value evaluation

class FuelOut(Exception):
    """The big-step evaluator ran out of fuel (treated as divergence)."""


def shift(d: int, t, cutoff: int = 0):
    """Add d to every variable of t bound outside it (TAPL 6.2.1): an
    index at or above ``cutoff`` is one of those."""
    from coaxiom.gen import App, Lam, Var

    if isinstance(t, Var):
        return Var(t.index + d) if t.index >= cutoff else t
    if isinstance(t, Lam):
        return Lam(shift(d, t.body, cutoff + 1))
    return App(shift(d, t.fn, cutoff), shift(d, t.arg, cutoff))


def subst(j: int, s, t):
    """Replace variable j by s in t (TAPL 6.2.4), shifting s under
    each binder it is carried into."""
    from coaxiom.gen import App, Lam, Var

    if isinstance(t, Var):
        return s if t.index == j else t
    if isinstance(t, Lam):
        return Lam(subst(j + 1, shift(1, s), t.body))
    return App(subst(j, s, t.fn), subst(j, s, t.arg))


def beta(body, v):
    """The contraction of ``(\\. body) v``: substitute, then drop the binder."""
    return shift(-1, subst(0, shift(1, v), body))


def bigstep(e, fuel: int = 10_000):
    """Big-step call-by-value evaluation of a closed term.

    Works directly on the parsed de Bruijn ``Var``/``Lam``/``App`` nodes
    but contracts with the textbook shift and substitution above, so it
    shares nothing with the generator's closure machinery.  Raises
    :class:`FuelOut` when the step budget is exhausted, which the tests
    interpret as divergence.
    """
    from coaxiom.gen import Lam, Var

    budget = [fuel]

    def go(t):
        if budget[0] <= 0:
            raise FuelOut()
        budget[0] -= 1
        if isinstance(t, Lam):
            return t
        if isinstance(t, Var):
            raise ValueError(f"open term: {t!r}")
        fn = go(t.fn)
        arg = go(t.arg)
        return go(beta(fn.body, arg))

    return go(e)


# ---------------------------------------------------------------------------
# the canonical order on terms, as nested tuples

def nested_term_key(t):
    """The canonical order's key, built recursively as nested tuples.

    This is how the package keyed terms before it cached flat pre-order
    keys: integers by value, then ``inf``, then symbols by name, arity
    and arguments, then sets element-wise with shorter prefixes first.
    """
    from coaxiom.terms import FinSet, Inf, Num, Sym

    if isinstance(t, Num):
        return (0, t.value)
    if isinstance(t, Inf):
        return (1,)
    if isinstance(t, Sym):
        return (2, t.name, len(t.args), tuple(nested_term_key(a) for a in t.args))
    if isinstance(t, FinSet):
        return (3, tuple(nested_term_key(e) for e in t.elements))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# the .coax reader, token by token

# One .coax token: a special, an integer in ASCII digits, an identifier.
COAX_TOKEN = re.compile(r"<-|[(){},.]|-?[0-9]+|[a-z][A-Za-z0-9_]*")


def coax_tokens(text: str) -> List[str]:
    """The token texts of a .coax text; comments and whitespace separate
    tokens, and any other character is an error."""
    out = []
    for line in text.split("\n"):
        rest = line.split("%", 1)[0]
        pos = 0
        while pos < len(rest):
            if rest[pos] in " \t\r":
                pos += 1
                continue
            m = COAX_TOKEN.match(rest, pos)
            if m is None:
                raise ValueError(f"stray character {rest[pos]!r}")
            out.append(m.group())
            pos = m.end()
    return out


class _CoaxReader:
    """Recursive descent over the tokens of one .coax text, one token at
    a time: the reference for the package's reader, which takes a flat
    term such as ``visit(a,{a,b})`` as one token."""

    def __init__(self, text: str):
        self.toks = coax_tokens(text) + [""]
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, want=None) -> str:
        tok = self.peek()
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.pos += 1
        return tok

    def term(self):
        from coaxiom.terms import INF, finset, num, sym

        tok = self.take()
        if tok == "{":
            items = []
            if self.peek() != "}":
                items.append(self.term())
                while self.peek() == ",":
                    self.take()
                    items.append(self.term())
            self.take("}")
            return finset(*items)
        if not tok[:1].islower():
            if tok[-1:].isdigit():
                return num(int(tok))
            raise ValueError(f"expected a term, found {tok!r}")
        if tok == "inf":
            return INF
        if self.peek() != "(":
            return sym(tok)
        self.take("(")
        args = [self.term()]
        while self.peek() == ",":
            self.take()
            args.append(self.term())
        self.take(")")
        return sym(tok, *args)

    def starts_term(self, tok: str) -> bool:
        return tok == "{" or tok[:1].islower() or tok[-1:].isdigit()


def read_coax_rules(text: str) -> List[RuleTriple]:
    """The rules of a .coax text, in file order, as triples."""
    r = _CoaxReader(text)
    out = []
    while r.peek():
        co = r.peek() == "co" and r.starts_term(r.peek(1))
        if co:
            r.take()
        conclusion = r.term()
        premises = []
        if r.peek() == "<-":
            r.take()
            premises.append(r.term())
            while r.peek() == ",":
                r.take()
                premises.append(r.term())
        r.take(".")
        out.append((conclusion, frozenset(premises), co))
    return out


def read_coax_term(text: str):
    """The one term a text holds."""
    r = _CoaxReader(text)
    t = r.term()
    r.take("")
    return t


def read_coax_terms(text: str) -> list:
    """The terms of a judgment-set text, each ending with ``.``."""
    r = _CoaxReader(text)
    out = []
    while r.peek():
        out.append(r.term())
        r.take(".")
    return out


# ---------------------------------------------------------------------------
# the proof loader that walks every node dict

def walking_proof_from_dict(d: dict):
    """``proofs.proof_from_dict`` as it was before it compared repeated
    subtrees: every node dict not shared by identity is walked and
    built, and a back-reference is only noticed when the walk reaches
    it, after the nodes finished before it are built.
    """
    from coaxiom.dsl import parse_judgment
    from coaxiom.proofs import RegularProof, RuleRef, WfProof

    parsed = {}

    def judgment(text):
        t = parsed.get(text)
        if t is None:
            t = parsed[text] = parse_judgment(text)
        return t

    refs = {}
    built = {}
    todo = [d]
    while todo:
        nd = todo.pop()
        if nd is None:
            nd = todo.pop()
        elif id(nd) in built:
            continue
        elif nd.get("back"):
            break
        elif nd.get("children"):
            todo += (nd, None)
            todo += nd["children"]
            continue
        kids = nd.get("children", ())
        ref_key = (nd["rule"], nd.get("co"))
        ref = refs.get(ref_key)
        if ref is None:
            ref = refs[ref_key] = RuleRef(ref_key[0], bool(ref_key[1]))
        built[id(nd)] = WfProof(judgment(nd["judgment"]), ref,
                                tuple([built[id(c)] for c in kids]))
    else:
        return built[id(d)]
    # Each distinct dict once, children before parents, children taken
    # last to first.
    nodes, done, todo = [], set(), [d]
    while todo:
        nd = todo[-1]
        if id(nd) in done:
            todo.pop()
            continue
        below = () if nd.get("back") else nd.get("children", ())
        pending = [c for c in below if id(c) not in done]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        done.add(id(nd))
        nodes.append(nd)
    choice = {}
    for nd in reversed(nodes):
        if not nd.get("back"):
            choice[judgment(nd["judgment"])] = nd["rule"]
    return RegularProof(judgment(d["judgment"]), choice)
