"""List generators: predicates over cyclic lists and digit-stream addition.

The equation systems bind every variable to one constructor, so a
finite set of variables describes (possibly infinite) regular lists
and trees.  Judgments mention lists by their variable name; the
generators ground each predicate's meta-rules over the variables
reachable from the requested root.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..engine import System
from ..terms import FinSet, Num, Sym, Term, _reach, sym, term_key
from .common import (DEFAULT_CAP, DEFAULT_CARRIES, LIST_PREDICATES,
                     MalformedEquations, _axiom, _ground, _premise, _subsets,
                     guard_cap)
from .inputs import Binding, ConsBind, EquationSystem, NilBind, TreeBind

__all__ = ["gen_listpred", "gen_add", "DEFAULT_CARRIES", "LIST_PREDICATES"]

TRUE = sym("true")
FALSE = sym("false")


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


def _ground_cells(eqs: EquationSystem, lists: list[str], pred: str,
                  args: tuple[Term, ...], axiom: Callable[[Binding], Optional[Term]],
                  universe: Iterable[Term], step: Callable[[Term, Term], Term],
                  coaxiom: Callable[[Binding], Optional[Term]], cap: int) -> System:
    """The base / step / coaxiom schema the value-carrying list
    predicates share, with judgments pred(*args, l, v).

    A cell whose ``axiom`` is a value v gets the axiom pred(l, v); every
    other cons cell gets pred(l, step(head, v)) <- pred(tail, v) for
    each v in the universe.  Then each cell whose ``coaxiom`` is a value
    gets that coaxiom.
    """
    def judge(name: str, v: Term) -> Term:
        return sym(pred, *args, sym(name), v)

    def step_site(name: str, b: ConsBind) -> tuple:
        return [(_premise(pred, *args, sym(b.tail)), universe)], \
            lambda u: (judge(name, step(b.head, u)),), 1

    sites = []
    for name in lists:
        b = eqs.binding(name)
        v = axiom(b)
        if v is not None:
            sites.append(_axiom(judge(name, v)))
        elif isinstance(b, ConsBind):
            sites.append(step_site(name, b))
    return _ground(sites, [judge(name, v) for name in lists
                           if (v := coaxiom(eqs.binding(name))) is not None], cap)


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
    # A tree leads only to its children list, so the reach runs over
    # list variables; the trees are the root and the heads it meets.
    def successors(name: str) -> tuple[str, ...]:
        """A cons cell leads to its tail and to its head tree's children."""
        b = eqs.binding(name)
        if isinstance(b, NilBind):
            return ()
        if not isinstance(b.head, Sym):
            raise MalformedEquations(f"path0 needs tree elements, "
                                     f"got {b.head!r} in {name}")
        return b.tail, _tree_ref(eqs, b.head)[2]

    lists = sorted(_reach(_tree_ref(eqs, sym(root))[2], successors))
    refs = sorted({sym(root), *_elements(eqs, lists)}, key=term_key)

    def tree_site(t: Term, label: int, kids: str) -> tuple:
        return [(lambda t2: (sym("is_in", t2, sym(kids)), sym("path0", t2)), refs)], \
            lambda t2: (sym("path0", t),) if label == 0 else (), 1

    def cell_sites(name: str) -> list[tuple]:
        # A nil cell's two sites ground nothing, but they are counted.
        b = eqs.binding(name)
        cons = isinstance(b, ConsBind)
        return [((), lambda: (sym("is_in", _tree_ref(eqs, b.head)[0], sym(name)),)
                 if cons else (), 1),
                ([(lambda t2: (sym("is_in", t2, sym(b.tail)),), refs)],
                 lambda t2: (sym("is_in", t2, sym(name)),) if cons else (), 1)]

    return _ground([tree_site(*_tree_ref(eqs, t)) for t in refs]
                   + [s for name in lists for s in cell_sites(name)],
                   [sym("path0", t) for t in refs], cap)


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
    if pred not in LIST_PREDICATES:
        raise ValueError(f"unknown predicate {pred!r}; "
                         f"pick one of {', '.join(LIST_PREDICATES)}")
    _require_root(eqs, root, pred)
    if pred == "path0":
        return _gen_path0(eqs, root, cap)

    def tail(name: str) -> tuple[str, ...]:
        b = eqs.binding(name)
        return (b.tail,) if isinstance(b, ConsBind) else ()

    lists = _reach(root, tail)  # root, then each variable down its cons tails
    if pred in ("allPos", "maxElem"):
        _numeric_heads(eqs, lists, pred)
    # One row of the schema per predicate: its cap count, then the
    # axiom value of a cell, the universe and step, and the coaxiom
    # value of a cell.
    if pred == "member":
        guard_cap(3 * len(lists), cap)
        return _ground_cells(
            eqs, lists, pred, (x,),
            lambda b: FALSE if isinstance(b, NilBind) else TRUE if b.head == x else None,
            (TRUE, FALSE), lambda head, v: v, lambda b: FALSE, cap)
    if pred == "allPos":
        guard_cap(3 * len(lists), cap)
        return _ground_cells(
            eqs, lists, pred, (),
            lambda b: (TRUE if isinstance(b, NilBind)
                       else FALSE if b.head.value <= 0 else None),
            (TRUE, FALSE), lambda head, v: v, lambda b: TRUE, cap)
    elements = _elements(eqs, lists)
    if pred == "elems":
        guard_cap(len(lists) * (2 ** len(elements)) + len(lists), cap)
        return _ground_cells(
            eqs, lists, pred, (), lambda b: FinSet() if isinstance(b, NilBind) else None,
            _subsets(elements), lambda head, xs: FinSet((head, *xs.elements)),
            lambda b: FinSet(), cap)
    # maxElem: a nil cell has no maximum, so it gets no rule at all.
    guard_cap(len(lists) * (len(elements) + 2), cap)
    return _ground_cells(
        eqs, lists, pred, (),
        lambda b: (b.head if isinstance(b, ConsBind)
                   and isinstance(eqs.binding(b.tail), NilBind) else None),
        elements, lambda head, y: Num(max(head.value, y.value)),
        lambda b: b.head if isinstance(b, ConsBind) else None, cap)


def _stream_closure(eqs: EquationSystem, roots: tuple[str, str, str]
                    ) -> list[tuple[str, str, str]]:
    """Triples reached from the roots by taking all three tails in step."""
    for r in roots:
        if not eqs.has(r):
            raise MalformedEquations(f"unbound root variable: {r}")

    def advance(triple: tuple[str, str, str]) -> list[tuple[str, str, str]]:
        tails = []
        for name in triple:
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
        return [(tails[0], tails[1], tails[2])]

    return _reach(roots, advance)


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
    allowed = [Num(c) for c in sorted(set(carries))]
    triples = _stream_closure(eqs, (r1, r2, r3))
    digit = {name: eqs.binding(name).head.value for t in triples for name in t}

    def site(x: str, y: str, z: str) -> tuple:
        def conclude(c: Num) -> tuple[Term, ...]:
            s = digit[x] + digit[y] + c.value
            out = Num(s // 10)
            return (sym("add", sym(x), sym(y), sym(z), out),) \
                if s % 10 == digit[z] and out in allowed else ()
        tails = (sym(eqs.binding(v).tail) for v in (x, y, z))
        return [(_premise("add", *tails), allowed)], conclude, 1

    return _ground([site(*t) for t in triples],
                   [sym("add", *map(sym, t), c) for t in triples for c in allowed], cap)
