"""List generators: predicates over cyclic lists and digit-stream addition.

The equation systems bind every variable to one constructor, so a
finite set of variables describes (possibly infinite) regular lists
and trees.  Judgments mention lists by their variable name; the
generators ground each predicate's meta-rules over the variables
reachable from the requested root.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from ..engine import Rule, System
from ..terms import FinSet, Num, Sym, Term, sym, term_key
from .common import (DEFAULT_CAP, DEFAULT_CARRIES, LIST_PREDICATES,
                     MalformedEquations, guard_cap)
from .inputs import Binding, ConsBind, EquationSystem, NilBind, TreeBind

__all__ = ["gen_listpred", "gen_add", "DEFAULT_CARRIES", "LIST_PREDICATES"]

TRUE = sym("true")
FALSE = sym("false")


def _list_closure(eqs: EquationSystem, root: str) -> list[str]:
    """Variables reachable from root by following cons tails, root first."""
    out = {root: None}
    b = eqs.binding(root)
    while isinstance(b, ConsBind) and b.tail not in out:
        out[b.tail] = None
        b = eqs.binding(b.tail)
    return list(out)


def _require_root(eqs: EquationSystem, root: str, pred: str) -> None:
    if not eqs.has(root):
        raise MalformedEquations(f"unbound root variable: {root}")
    tree = isinstance(eqs.binding(root), TreeBind)
    if pred == "path0" and not tree:
        raise MalformedEquations(f"path0 needs a tree root: {root}")
    if pred != "path0" and tree:
        raise MalformedEquations(f"{pred} needs a list root, got a tree: {root}")


def _elements(eqs: EquationSystem, lists: list[str]) -> list[Term]:
    heads = dict.fromkeys(b.head for b in map(eqs.binding, lists) if isinstance(b, ConsBind))
    return sorted(heads, key=term_key)


def _numeric_heads(eqs: EquationSystem, lists: list[str], pred: str) -> None:
    for name in lists:
        b = eqs.binding(name)
        if isinstance(b, ConsBind) and not isinstance(b.head, Num):
            raise MalformedEquations(f"{pred} needs numeric elements, "
                                     f"got {b.head!r} in {name}")


def _gen_member(eqs: EquationSystem, root: str, x: Term,
                cap: int) -> System:
    lists = _list_closure(eqs, root)
    guard_cap(3 * len(lists), cap)
    rules: list[Rule] = []
    for name in lists:
        b = eqs.binding(name)
        if isinstance(b, NilBind):
            rules.append(Rule(sym("member", x, sym(name), FALSE)))
        elif b.head == x:
            rules.append(Rule(sym("member", x, sym(name), TRUE)))
        else:
            for verdict in (TRUE, FALSE):
                rules.append(Rule(sym("member", x, sym(name), verdict),
                                  (sym("member", x, sym(b.tail), verdict),)))
    for name in lists:
        rules.append(Rule(sym("member", x, sym(name), FALSE), co=True))
    return System(rules)


def _gen_allpos(eqs: EquationSystem, root: str, cap: int) -> System:
    lists = _list_closure(eqs, root)
    _numeric_heads(eqs, lists, "allPos")
    guard_cap(3 * len(lists), cap)
    rules: list[Rule] = []
    for name in lists:
        b = eqs.binding(name)
        if isinstance(b, NilBind):
            rules.append(Rule(sym("allPos", sym(name), TRUE)))
        elif b.head.value <= 0:
            rules.append(Rule(sym("allPos", sym(name), FALSE)))
        else:
            for verdict in (TRUE, FALSE):
                rules.append(Rule(sym("allPos", sym(name), verdict),
                                  (sym("allPos", sym(b.tail), verdict),)))
    for name in lists:
        rules.append(Rule(sym("allPos", sym(name), TRUE), co=True))
    return System(rules)


def _gen_elems(eqs: EquationSystem, root: str, cap: int) -> System:
    lists = _list_closure(eqs, root)
    elements = _elements(eqs, lists)
    guard_cap(len(lists) * (2 ** len(elements)) + len(lists), cap)
    subsets = []
    for k in range(len(elements) + 1):
        subsets.extend(itertools.combinations(elements, k))
    rules: list[Rule] = []
    for name in lists:
        b = eqs.binding(name)
        if isinstance(b, NilBind):
            rules.append(Rule(sym("elems", sym(name), FinSet())))
        else:
            for xs in subsets:
                rules.append(Rule(
                    sym("elems", sym(name), FinSet((b.head,) + xs)),
                    (sym("elems", sym(b.tail), FinSet(xs)),)))
    for name in lists:
        rules.append(Rule(sym("elems", sym(name), FinSet()), co=True))
    return System(rules)


def _gen_maxelem(eqs: EquationSystem, root: str, cap: int) -> System:
    lists = _list_closure(eqs, root)
    _numeric_heads(eqs, lists, "maxElem")
    elements = _elements(eqs, lists)
    guard_cap(len(lists) * (len(elements) + 2), cap)
    rules: list[Rule] = []
    for name in lists:
        b = eqs.binding(name)
        if not isinstance(b, ConsBind):
            continue
        tail = eqs.binding(b.tail)
        if isinstance(tail, NilBind):
            rules.append(Rule(sym("maxElem", sym(name), b.head)))
        else:
            for y in elements:
                best = Num(max(b.head.value, y.value))
                rules.append(Rule(sym("maxElem", sym(name), best),
                                  (sym("maxElem", sym(b.tail), y),)))
    for name in lists:
        b = eqs.binding(name)
        if isinstance(b, ConsBind):
            rules.append(Rule(sym("maxElem", sym(name), b.head), co=True))
    return System(rules)


def _tree_ref(eqs: EquationSystem, head: Term) -> tuple[Term, int, str]:
    """Resolve a cons element to (judgment term, label, children variable)."""
    assert isinstance(head, Sym)
    if head.name == "tree":
        label, kids = head.args
        assert isinstance(label, Num) and isinstance(kids, Sym)
        return head, label.value, kids.name
    b = eqs.binding(head.name)
    assert isinstance(b, TreeBind)
    return sym(head.name), b.label, b.kids


def _gen_path0(eqs: EquationSystem, root: str, cap: int) -> System:
    trees: list[tuple[Term, int, str]] = []
    lists: list[str] = []
    seen_trees: set[Term] = set()
    seen_lists: set[str] = set()
    tree_work: list[Term] = [sym(root)]
    seen_trees.add(sym(root))
    list_work: list[str] = []
    while tree_work or list_work:
        if tree_work:
            ref = _tree_ref(eqs, tree_work.pop(0))
            trees.append(ref)
            if ref[2] not in seen_lists:
                seen_lists.add(ref[2])
                list_work.append(ref[2])
            continue
        name = list_work.pop(0)
        lists.append(name)
        b = eqs.binding(name)
        if isinstance(b, NilBind):
            continue
        if not isinstance(b.head, Sym):
            raise MalformedEquations(f"path0 needs tree elements, "
                                     f"got {b.head!r} in {name}")
        if b.head not in seen_trees:
            seen_trees.add(b.head)
            tree_work.append(b.head)
        if b.tail not in seen_lists:
            seen_lists.add(b.tail)
            list_work.append(b.tail)

    trees.sort(key=lambda r: term_key(r[0]))
    lists.sort()
    nt = len(trees)
    guard_cap(nt * nt + len(lists) * (1 + nt) + nt, cap)

    rules: list[Rule] = []
    for t, label, kids in trees:
        if label != 0:
            continue
        for t2, _, _ in trees:
            rules.append(Rule(sym("path0", t),
                              (sym("is_in", t2, sym(kids)),
                               sym("path0", t2))))
    for name in lists:
        b = eqs.binding(name)
        if isinstance(b, NilBind):
            continue
        head_term = _tree_ref(eqs, b.head)[0]
        rules.append(Rule(sym("is_in", head_term, sym(name))))
        for t2, _, _ in trees:
            rules.append(Rule(sym("is_in", t2, sym(name)),
                              (sym("is_in", t2, sym(b.tail)),)))
    for t, _, _ in trees:
        rules.append(Rule(sym("path0", t), co=True))
    return System(rules)


def gen_listpred(eqs: EquationSystem, pred: str, root: str,
                 x: Optional[Term] = None, cap: int = DEFAULT_CAP) -> System:
    """Ground one list predicate over the lists reachable from root.

    ``member`` needs the element ``x``; ``path0`` takes a tree root,
    the others a list root.  Boolean-valued predicates carry an
    explicit true/false verdict argument so that both outcomes are
    judgments.
    """
    if pred == "member" and x is None:
        raise ValueError("member needs the element to look for")
    if pred != "member" and x is not None:
        raise ValueError(f"{pred} does not take an element argument")
    gens = {"member": lambda e, r, c: _gen_member(e, r, x, c),
            "allPos": _gen_allpos, "elems": _gen_elems, "maxElem": _gen_maxelem,
            "path0": _gen_path0}
    if pred not in gens:
        raise ValueError(f"unknown predicate {pred!r}; "
                         f"pick one of {', '.join(LIST_PREDICATES)}")
    _require_root(eqs, root, pred)
    return gens[pred](eqs, root, cap)


def _stream_closure(eqs: EquationSystem, roots: tuple[str, str, str]
                    ) -> list[tuple[str, str, str]]:
    """Triples reached from the roots by taking all three tails in step."""
    for r in roots:
        if not eqs.has(r):
            raise MalformedEquations(f"unbound root variable: {r}")
    triples = [roots]
    seen = {roots}
    cur = roots
    while True:
        tails = []
        for name in cur:
            b = eqs.binding(name)
            if isinstance(b, NilBind):
                raise MalformedEquations(
                    f"digit streams must be infinite, but {name} ends in nil")
            if isinstance(b, TreeBind):
                raise MalformedEquations(f"{name} is a tree, not a digit stream")
            if not isinstance(b.head, Num) or not 0 <= b.head.value <= 9:
                raise MalformedEquations(
                    f"stream {name} holds {b.head!r}, expected a digit 0-9")
            tails.append(b.tail)
        nxt = (tails[0], tails[1], tails[2])
        if nxt in seen:
            return triples
        seen.add(nxt)
        triples.append(nxt)
        cur = nxt


def gen_add(eqs: EquationSystem, r1: str, r2: str, r3: str,
            carries: Iterable[int] = DEFAULT_CARRIES,
            cap: int = DEFAULT_CAP) -> System:
    """Judgments add(x, y, z, c): z is the digit stream x + y, where c
    is the carry the current position passes on.

    A rule consumes the tail sum's carry c and checks the head digits:
    with s = head(x) + head(y) + c, the digit s mod 10 must equal
    head(z) and the outgoing carry s div 10 must be an allowed carry.
    One coaxiom per judgment.
    """
    allowed = tuple(sorted(set(carries)))
    triples = _stream_closure(eqs, (r1, r2, r3))
    guard_cap(2 * len(triples) * len(allowed), cap)

    def head(name: str) -> int:
        return eqs.binding(name).head.value

    def tail(name: str) -> str:
        return eqs.binding(name).tail

    rules: list[Rule] = []
    for x, y, z in triples:
        for c in allowed:
            s = head(x) + head(y) + c
            if s % 10 == head(z) and s // 10 in allowed:
                rules.append(Rule(
                    sym("add", sym(x), sym(y), sym(z), Num(s // 10)),
                    (sym("add", sym(tail(x)), sym(tail(y)), sym(tail(z)),
                         Num(c)),)))
    for x, y, z in triples:
        for c in allowed:
            rules.append(Rule(sym("add", sym(x), sym(y), sym(z), Num(c)),
                              co=True))
    return System(rules)
