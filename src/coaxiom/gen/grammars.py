"""Grammar generator: first-sets over sentential suffixes.

Judgments first(s, F) pair a string s with a terminal set F.  The
string universe holds every suffix of every production body, a
single-symbol string per nonterminal, and the empty string.  Terminal
sets range over the powerset of the grammar's terminals.
"""

from __future__ import annotations

from ..engine import System
from ..terms import FinSet, Term, sym
from .common import DEFAULT_CAP, _ground, _premise, _subsets
from .inputs import Grammar

__all__ = ["gen_first", "encode_string", "nullable_nonterminals"]


def nullable_nonterminals(g: Grammar) -> frozenset[str]:
    """Nonterminals that derive the empty string."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, bodies in g.productions:
            if head in nullable:
                continue
            for body in bodies:
                if all(x in nullable for x in body):
                    nullable.add(head)
                    changed = True
                    break
    return frozenset(nullable)


def _encode_symbol(x: str, g: Grammar) -> Term:
    if x in g.nonterminals:
        return sym("nt", sym(x.lower()))
    return sym(x)


def encode_string(s: tuple[str, ...], g: Grammar) -> Term:
    """Empty string -> eps; one symbol -> itself; longer -> str(...)."""
    if not s:
        return sym("eps")
    if len(s) == 1:
        return _encode_symbol(s[0], g)
    return sym("str", *(_encode_symbol(x, g) for x in s))


def gen_first(g: Grammar, cap: int = DEFAULT_CAP) -> System:
    """Ground the first-set rules of the grammar over its terminals.

    Strings headed by a terminal are axioms; strings of length at
    least two headed by a nonterminal propagate that nonterminal's
    first set, with a second tail premise when the head is nullable.
    The empty string has the axiom first(eps, {}); each nonterminal
    collects the union over its bodies.  One coaxiom first(A, {}) per
    nonterminal.
    """
    nullable = nullable_nonterminals(g)

    # Every suffix of every body, each nonterminal alone, and eps.
    strings = {(), *((a,) for a in g.nonterminals), *(
        body[i:] for _, bodies in g.productions
        for body in bodies for i in range(len(body) + 1))}
    subsets = _subsets([sym(t) for t in g.terminals])

    def site(s: tuple[str, ...], fixed: tuple[str, ...], parts: tuple) -> tuple:
        """first(s, T | F1 | ... | Fk) <- first(p1, F1), ..., first(pk, Fk)
        for every choice of terminal sets F1..Fk: T holds the terminal s
        starts with, if any, and the parts p1..pk are the strings whose
        first sets s unites."""
        enc, head = encode_string(s, g), set(map(sym, fixed))
        return [(_premise("first", encode_string(p, g)), subsets) for p in parts], \
            lambda *fs: (sym("first", enc, FinSet(
                tuple(head.union(*(f.elements for f in fs))))),), 1

    sites = []
    for s in sorted(strings):
        if not s or s[0] not in g.nonterminals:
            sites.append(site(s, s[:1], ()))
        elif len(s) >= 2:
            sites.append(site(s, (), (s[:1], s[1:]) if s[0] in nullable else (s[:1],)))
    sites += [site((head,), (), bodies) for head, bodies in g.productions]
    return _ground(sites,
                   [sym("first", _encode_symbol(a, g), FinSet()) for a in g.nonterminals],
                   cap)
