"""First-order terms used as judgments.

A judgment is a ground term built from four constructors: symbol
applications like ``visit(a, {a,b})``, integer literals, the special
value ``inf`` (greater than every integer, used for divergence and
unreachability), and finite sets of terms.  Set terms are normalised on
construction — elements are deduplicated and stored in canonical order —
so structural equality coincides with set equality.

Terms are interned (hash-consed): each constructor keeps one table, and
building a term equal to one built before returns that same object.  So
``==`` is identity, the hash is the identity hash, and both cost O(1)
however deep the term.  ``copy``, ``deepcopy`` and pickling give back
the interned object.  The tables hold every term ever built for as long
as the process lives.  Terms are immutable.

A single total order covers all terms: integers before ``inf`` before
symbols before sets; integers by value, symbols by name, then arity,
then argument-wise, sets element-wise with shorter prefixes first.
That order is what "canonical" means throughout the package: sorted
premise tuples, sorted trace listings, deterministic tie-breaks.  Each
term carries its sort key (see :func:`term_key`), computed once when it
is interned; :func:`render_term` caches each term's text.  Neither
recurses, and nor do :func:`_postorder` and :func:`_write`, the
package's one post-order walk and one pre-order writer, so nesting
depth is not limited by the interpreter stack.  A post-order cannot
walk a cycle: :func:`_reach`, the package's one breadth-first reach,
closes the structures that may have one (regular proofs, the cyclic
lists, trees and digit streams of the list generators).
"""

from __future__ import annotations

import gc
from functools import wraps
from typing import Union

__all__ = [
    "Term",
    "Sym",
    "Num",
    "Inf",
    "FinSet",
    "INF",
    "sym",
    "num",
    "finset",
    "term_key",
    "render_term",
]

_set = object.__setattr__


def _postorder(root, children, key=lambda node: node):
    """Each distinct node below ``root`` once, after all of its children.

    Nodes are told apart by ``key(node)``, by default the node itself:
    interned terms and proof nodes compare by identity, and pairs such
    as ``(term, depth)`` by value.  Children are taken last to first, so
    on a tree the reversed sequence is the pre-order; ``children`` may
    be asked for a node's children more than once.
    """
    done: set = set()
    todo = [root]
    while todo:
        node = todo[-1]
        if key(node) in done:
            todo.pop()
            continue
        pending = [c for c in children(node) if key(c) not in done]
        if pending:
            todo += pending
            continue
        todo.pop()
        done.add(key(node))
        yield node


def _reach(start, successors) -> list:
    """``start``, then each value that ``successors`` leads to, once,
    in breadth-first order.

    Values are told apart by equality, so the walk ends on a cyclic
    structure; ``successors`` is asked once per value.
    """
    reached, seen = [start], {start}
    for value in reached:
        for nxt in successors(value):
            if nxt not in seen:
                seen.add(nxt)
                reached.append(nxt)
    return reached


def _paused(fn):
    """``fn`` run with the cyclic garbage collector paused, for builders
    that make many long-lived objects and no reference cycles: each
    collection would walk the whole heap and free nothing.  The
    caller's setting is put back however ``fn`` ends."""
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


# The longest text, in characters, that :func:`_write` joins into one
# string when it meets a value's pieces again (see there).
_JOIN_CHARS = 256 * 1024


def _write(value, expand, before: str = "", after: str = "") -> str:
    """The text of a tree written in pre-order, between ``before`` and
    ``after``.

    ``expand(value, depth)`` gives the text of a leaf, or ``(head,
    entries, tail)`` for a value with children, where ``entries``
    yields (text before the child, child).  The pieces a value fills
    are recorded under its identity and depth: a value met again at the
    same depth, such as a subproof shared in memory, is copied instead
    of being written again.  The first time it is met again, its pieces
    are joined into one string if their text is at most
    ``_JOIN_CHARS`` long, and every copy is then that one piece; a
    longer text stays a slice of the pieces.  So a subtree repeated
    inside a repeated subtree costs one piece, not all of its own.  The
    bound counts characters (bytes, in the ASCII JSON), not pieces: once
    the inner repeats are single strings, every span has few pieces,
    and a bound on pieces would join spans as long as the whole text,
    each a copy on top of the join that ends the walk.  The text around
    the tree is two more pieces, so that one join builds the whole text.
    """
    out: list[str] = [before]
    # Span key -> (first piece, end) until the span is met again, then
    # the list of pieces each copy adds.
    spans: dict[tuple[int, int], Union[tuple[int, int], list[str]]] = {}
    # Open values: (span key, first piece, entries, tail).
    stack: list[tuple] = []
    while True:
        key = (id(value), len(stack))
        span = spans.get(key)
        if span is not None:
            if type(span) is tuple:
                span = out[span[0]:span[1]]
                if sum(map(len, span)) <= _JOIN_CHARS:
                    span = ["".join(span)]
                spans[key] = span
            out += span
        elif isinstance(node := expand(value, len(stack)), str):
            out.append(node)
        else:
            stack.append((key, len(out), node[1], node[2]))
            out.append(node[0])
        # Find the next child to write, closing every value that has
        # none left.
        while stack:
            key, start, entries, tail = stack[-1]
            entry = next(entries, None)
            if entry is not None:
                break
            stack.pop()
            out.append(tail)
            spans[key] = (start, len(out))
        else:
            out.append(after)
            return "".join(out)
        out.append(entry[0])
        value = entry[1]


def _repr_node(value, depth: int):
    """How :meth:`_Frozen.__repr__` writes a value: a tuple, or a value
    whose class shows it that way, is laid out here; any other value is
    shown by its own repr."""
    if type(value) is tuple:
        head, tail = "(", ",)" if len(value) == 1 else ")"
        entries = [(", " if n else "", v) for n, v in enumerate(value)]
    elif type(value).__repr__ is _Frozen.__repr__:
        head, tail = f"{type(value).__name__}(", ")"
        entries = [(f"{', ' if n else ''}{f}=", getattr(value, f))
                   for n, f in enumerate(value._fields)]
    else:
        return repr(value)
    return head, iter(entries), tail


class _Frozen:
    """Frozen, copied as itself, and pickled and shown by its fields, the
    ``__slots__`` its class declares but for names starting with an
    underscore (``_fields``): what interned values and records share."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in vars(cls).get("__slots__", ())
                            if not f.startswith("_"))

    def __repr__(self) -> str:
        return _write(self, _repr_node)

    def _init(self, *values) -> None:
        for f, v in zip(self._fields, values):
            _set(self, f, v)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class _Record(_Frozen):
    """A frozen value that is not interned: equal to a value of its own
    class with equal fields, hashed by its fields, and copied as a
    frozen dataclass is, into a new record of copies of its fields."""

    __slots__ = ()
    __copy__ = __deepcopy__ = None  # so that copy falls back on __reduce__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class _Interned(_Frozen):
    """Shared behaviour of the four constructors."""

    __slots__ = ("_key", "_text")


def _intern(cls, key: tuple, text, **fields):
    t = object.__new__(cls)
    for name, value in fields.items():
        _set(t, name, value)
    _set(t, "_key", key)
    _set(t, "_text", text)
    return t


# One table per constructor, keyed by the constructor's fields; terms
# in the fields are compared by identity.  A set is also found under
# each element tuple it was once built from.
_SYMS: dict[tuple, "Sym"] = {}
_NUMS: dict[int, "Num"] = {}
_SETS: dict[tuple, "FinSet"] = {}


class Sym(_Interned):
    """Symbol application ``name(arg1, ..., argk)``; nullary renders bare."""

    __slots__ = ("name", "args")

    def __new__(cls, name: str, args: tuple["Term", ...] = ()):
        args = tuple(args)
        t = _SYMS.get((name, args))
        if t is None:
            key = [2, name, len(args)]
            for a in args:
                key += a._key
            t = _SYMS[name, args] = _intern(
                cls, tuple(key), None if args else name, name=name, args=args)
        return t


class Num(_Interned):
    """Integer literal; interned by ``int(value)``."""

    __slots__ = ("value",)

    def __new__(cls, value: int):
        value = int(value)
        t = _NUMS.get(value)
        if t is None:
            t = _NUMS[value] = _intern(cls, (0, value), str(value), value=value)
        return t


class Inf(_Interned):
    """The single point above every integer."""

    __slots__ = ()

    def __new__(cls):
        return INF


class FinSet(_Interned):
    """Finite set of terms; elements are kept sorted and duplicate-free."""

    __slots__ = ("elements",)

    def __new__(cls, elements: tuple["Term", ...] = ()):
        given = tuple(elements)
        t = _SETS.get(given)
        if t is not None:
            return t
        # Sorted and deduplicated once; the table then knows the set
        # under both tuples.
        elements = tuple(sorted(set(given), key=term_key)) if len(given) > 1 else given
        t = _SETS.get(elements)
        if t is None:
            key = [3]
            for e in elements:
                key += e._key
            key.append(-1)
            t = _SETS[elements] = _intern(
                cls, tuple(key), None if elements else "{}", elements=elements)
        _SETS[given] = t
        return t


Term = Union[Sym, Num, Inf, FinSet]

INF = _intern(Inf, (1,), "inf")


def sym(name: str, *args: Term) -> Sym:
    return Sym(name, args)


def num(value: int) -> Num:
    return Num(value)


def finset(*elements: Term) -> FinSet:
    return FinSet(elements)


def term_key(t: Term) -> tuple:
    """Sort key realising the canonical total order on terms.

    The key is the term's pre-order as one flat tuple: ``(0, v)`` for
    the integer ``v``, ``(1,)`` for ``inf``, ``(2, name, arity, ...)``
    followed by the arguments' keys for a symbol, and ``(3, ..., -1)``
    around the elements' keys for a set.  Every key is self-delimiting
    and the kind tags come first, so comparing two keys as tuples
    compares the terms in canonical order without ever comparing
    payloads of different types, and without recursion.
    """
    try:
        return t._key
    except AttributeError:
        raise TypeError(f"not a term: {t!r}") from None


def render_term(t: Term) -> str:
    """Canonical textual form; parsing it back yields an equal term.

    The text of every term met on the way is cached on the term, so a
    shared subterm is rendered once.
    """
    try:
        text = t._text
    except AttributeError:
        raise TypeError(f"not a term: {t!r}") from None
    if text is not None:
        return text
    # Only compound terms (a symbol with arguments, a non-empty set)
    # start without text.
    for node in _postorder(t, lambda node: [p for p in _parts(node) if p._text is None]):
        inner = ",".join([p._text for p in _parts(node)])
        _set(node, "_text", f"{node.name}({inner})" if isinstance(node, Sym)
             else "{" + inner + "}")
    return t._text


def _parts(t: Term) -> tuple:
    return t.args if isinstance(t, Sym) else t.elements
