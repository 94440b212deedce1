"""Input descriptions the generators consume, with their file formats.

Four little languages, all sharing ``%`` end-of-line comments:

* graphs — ``node a`` / ``edge a b`` / ``edge a b 5`` lines;
* grammars — ``S -> A S | b ;`` statements (uppercase heads are
  nonterminals, lowercase body symbols are terminals, an empty
  alternative is the empty string);
* equation systems — ``l = 1 : l ;``, ``m = nil ;``,
  ``t = tree(0, l) ;`` with multi-element cons chains like
  ``l1 = t2 : t1 : l1 ;`` normalised into binary conses behind fresh
  tail variables;
* lambda terms — ``\\x. e``, application by juxtaposition, parentheses.

Identifiers that end up inside judgments (graph nodes, equation
variables, terminals) must be legal term symbols: a lowercase letter
followed by letters, digits or underscores.

All four are tokenized by ``coaxiom.dsl.tokenize``, like ``.coax``
files, and walked with its ``Cursor``: a word is ``[A-Za-z][A-Za-z0-9_]*``,
an integer ``-?[0-9]+`` in ASCII digits.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Optional, Union

from ..dsl import Cursor, Lexicon, ParseError, Token
from ..terms import Num, Sym, Term, _Frozen, _Record, _paused, _postorder, _set
from .common import MalformedEquations

__all__ = [
    "Edge",
    "Graph",
    "Grammar",
    "NilBind",
    "ConsBind",
    "TreeBind",
    "EquationSystem",
    "Var",
    "Lam",
    "App",
    "LambdaTerm",
    "parse_graph",
    "parse_grammar",
    "parse_equations",
    "parse_lambda",
    "render_lambda",
]

_SYMBOL_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_NONTERM_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")

# Symbol names the grammar and equation encodings claim for themselves.
_RESERVED = {"eps", "nt", "str", "tree", "nil", "inf"}


def _lexicon(*specials: str) -> Lexicon:
    return Lexicon(specials, r"[A-Za-z][A-Za-z0-9_]*", "WORD", ("token",))


_GRAPH = _lexicon()
_GRAMMAR = _lexicon("->", "|", ";")
_EQUATIONS = _lexicon("=", ":", ";", "(", ")", ",")
_LAMBDA = _lexicon("\\", ".", "(", ")")


def _word(cur: Cursor, pattern: re.Pattern, expected: str) -> Token:
    """Take a word that ``pattern`` matches, or fail expecting ``expected``."""
    kind, word, _, _ = cur.peek()
    if kind != "WORD" or not pattern.match(word):
        cur.fail(expected)
    return cur.take()


# ---------------------------------------------------------------------------
# graphs

class Edge(_Record):
    __slots__ = ("src", "dst", "weight")

    def __init__(self, src: str, dst: str, weight: Optional[int] = None) -> None:
        self._init(src, dst, weight)


class Graph(_Record):
    __slots__ = ("nodes", "edges", "_succ")

    def __init__(self, nodes: tuple[str, ...], edges: tuple[Edge, ...]) -> None:
        self._init(nodes, edges)
        # Each node's out-edges sorted by destination, from one pass.
        succ: dict[str, list[Edge]] = {}
        for e in edges:
            succ.setdefault(e.src, []).append(e)
        _set(self, "_succ", {v: tuple(sorted(es, key=lambda e: e.dst))
                             for v, es in succ.items()})

    def successors(self, v: str) -> tuple[Edge, ...]:
        return self._succ.get(v, ())

    @property
    def weighted(self) -> bool:
        return any(e.weight is not None for e in self.edges)


def parse_graph(text: str) -> Graph:
    nodes: list[str] = []
    edges: list[Edge] = []
    seen_edges: set[tuple[str, str]] = set()
    cur = Cursor(text, _GRAPH)
    while not cur.at("EOF"):
        keyword = cur.peek()[1]
        if keyword not in ("node", "edge"):
            cur.fail("node", "edge")
        cur.take()
        if keyword == "node":
            _, name, line, column = _word(cur, _SYMBOL_RE, "node identifier")
            # Rule files read ``inf`` as the infinity term, never a node.
            if name == "inf":
                raise ParseError(line, column, ("unreserved node name",), name)
            if name in nodes:
                raise ParseError(line, column, ("fresh node identifier",), name)
            nodes.append(name)
            continue
        ends = [_word(cur, _SYMBOL_RE, "node identifier") for _ in range(2)]
        for _, name, line, column in ends:
            if name not in nodes:
                raise ParseError(line, column, ("declared node",), name)
        weight = None
        if cur.at("INT"):
            _, digits, line, column = cur.take()
            weight = int(digits)
            if weight < 0:
                raise ParseError(line, column, ("natural weight",), digits)
        (_, src, line, column), (_, dst, _, _) = ends
        if (src, dst) in seen_edges:
            raise ParseError(line, column, ("fresh edge",), f"{src} {dst}")
        seen_edges.add((src, dst))
        edges.append(Edge(src, dst, weight))
    return Graph(tuple(nodes), tuple(edges))


# ---------------------------------------------------------------------------
# grammars

class Grammar(_Record):
    """Context-free grammar; bodies are symbol tuples, () is the empty string."""

    __slots__ = ("terminals", "nonterminals", "productions")

    def __init__(self, terminals: tuple[str, ...], nonterminals: tuple[str, ...],
                 productions: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...]) -> None:
        self._init(terminals, nonterminals, productions)

    def bodies(self, nt: str) -> tuple[tuple[str, ...], ...]:
        for head, bs in self.productions:
            if head == nt:
                return bs
        raise KeyError(nt)


def parse_grammar(text: str) -> Grammar:
    cur = Cursor(text, _GRAMMAR)
    prods: dict[str, list[tuple[str, ...]]] = {}
    heads: dict[str, tuple[int, int]] = {}  # head -> (line, column), first use
    body_syms: list[tuple[str, int, int]] = []  # (symbol, line, column)

    while not cur.at("EOF"):
        _, head, head_line, head_column = _word(cur, _NONTERM_RE, "nonterminal")
        cur.expect("->")
        body: list[str] = []
        while True:
            kind, sym, line, column = cur.peek()
            if kind == "WORD":
                body.append(sym)
                body_syms.append((sym, line, column))
            elif kind in ("|", ";"):
                prods.setdefault(head, []).append(tuple(body))
                heads.setdefault(head, (head_line, head_column))
                body = []
            else:
                cur.fail("symbol", "|", ";")
            cur.take()
            if kind == ";":
                break

    nonterminals = tuple(heads)
    terminals: list[str] = []
    for sym, line, column in body_syms:
        if _NONTERM_RE.match(sym):
            if sym not in prods:
                raise ParseError(line, column, ("nonterminal with productions",), sym)
        else:
            if sym in _RESERVED:
                raise ParseError(line, column, ("unreserved terminal name",), sym)
            if sym not in terminals:
                terminals.append(sym)
    lowered: set[str] = set()
    for nt, (line, column) in heads.items():
        if nt.lower() in lowered:
            raise ParseError(line, column, ("case-distinct nonterminals",), nt)
        lowered.add(nt.lower())
    return Grammar(tuple(sorted(terminals)), nonterminals,
                   tuple((nt, tuple(prods[nt])) for nt in nonterminals))


# ---------------------------------------------------------------------------
# equation systems

class NilBind(_Record):
    __slots__ = ()


class ConsBind(_Record):
    __slots__ = ("head", "tail")

    def __init__(self, head: Term, tail: str) -> None:
        self._init(head, tail)


class TreeBind(_Record):
    __slots__ = ("label", "kids")

    def __init__(self, label: int, kids: str) -> None:
        self._init(label, kids)


Binding = Union[NilBind, ConsBind, TreeBind]


class EquationSystem(_Record):
    """Guarded recursive equations over lists, trees and digit streams.

    Every binding starts with one constructor (``nil``, a cons, or a
    ``tree`` node), so the system is productive by construction.
    Multi-element cons chains are already normalised: each cons holds
    exactly one head and a tail variable.
    """

    __slots__ = ("bindings", "_by_name")

    def __init__(self, bindings: tuple[tuple[str, Binding], ...]) -> None:
        self._init(bindings)
        # The first binding of a name wins, as in a scan of ``bindings``.
        _set(self, "_by_name", dict(reversed(bindings)))

    def binding(self, var: str) -> Binding:
        b = self._by_name.get(var)
        if b is None:
            raise MalformedEquations(f"unbound variable: {var}")
        return b

    def has(self, var: str) -> bool:
        return var in self._by_name


def _check_equations(bindings: list[tuple[str, Binding]]) -> None:
    by_name = dict(bindings)

    def is_list(var: str) -> bool:
        return isinstance(by_name.get(var), (NilBind, ConsBind))

    for name, b in bindings:
        if isinstance(b, ConsBind):
            if b.tail not in by_name:
                raise MalformedEquations(f"unbound tail variable: {b.tail}")
            if not is_list(b.tail):
                raise MalformedEquations(
                    f"tail of {name} must be a list, got tree: {b.tail}")
            h = b.head
            if isinstance(h, Sym) and h.name == "tree":
                kids = h.args[1]
                assert isinstance(kids, Sym)
                if kids.name not in by_name or not is_list(kids.name):
                    raise MalformedEquations(
                        f"tree children of an element of {name} must be "
                        f"a bound list: {kids.name}")
            elif isinstance(h, Sym):
                if h.name not in by_name:
                    raise MalformedEquations(f"unbound element variable: {h.name}")
                if not isinstance(by_name[h.name], TreeBind):
                    raise MalformedEquations(
                        f"element {h.name} of {name} must be a tree variable")
        elif isinstance(b, TreeBind):
            if b.kids not in by_name or not is_list(b.kids):
                raise MalformedEquations(
                    f"children of tree {name} must be a bound list: {b.kids}")


def parse_equations(text: str) -> EquationSystem:
    cur = Cursor(text, _EQUATIONS)
    raw: list[tuple[str, list, int, int]] = []  # (var, chain items, line, column)

    def variable() -> Token:
        if cur.peek()[1] in _RESERVED:
            cur.fail("variable")
        return _word(cur, _SYMBOL_RE, "variable")

    def atom():
        """One chain item: INT, variable, ``nil`` or ``tree(INT, var)``."""
        kind, text, _, _ = cur.peek()
        if kind == "INT":
            cur.take()
            return Num(int(text))
        if text == "nil":
            cur.take()
            return "nil"
        if text == "tree":
            cur.take()
            cur.expect("(")
            label = cur.expect("INT")[1]
            cur.expect(",")
            _, kids, line, column = cur.expect("WORD")
            if not _SYMBOL_RE.match(kids):
                raise ParseError(line, column, ("variable",), kids)
            cur.expect(")")
            return Sym("tree", (Num(int(label)), Sym(kids)))
        if kind == "WORD":
            return Sym(variable()[1])
        cur.fail("integer", "variable", "nil", "tree(")

    while not cur.at("EOF"):
        _, var, line, column = variable()
        cur.expect("=")
        chain = [atom()]
        while cur.at(":"):
            cur.take()
            chain.append(atom())
        cur.expect(";")
        raw.append((var, chain, line, column))

    names = Counter(v for v, _, _, _ in raw)
    for v, _, line, column in raw:
        if names[v] > 1:
            raise ParseError(line, column, ("fresh variable",), v)

    used = set(names)
    last: dict[str, int] = {}  # the suffix fresh(base) returned last

    def fresh(base: str) -> str:
        k = last.get(base, 0) + 1
        while f"{base}_{k}" in used:
            k += 1
        last[base] = k
        used.add(f"{base}_{k}")
        return f"{base}_{k}"

    bindings: list[tuple[str, Binding]] = []
    for var, chain, line, column in raw:
        if len(chain) == 1:
            item = chain[0]
            if item == "nil":
                bindings.append((var, NilBind()))
            elif isinstance(item, Sym) and item.name == "tree":
                label = item.args[0]
                kids = item.args[1]
                assert isinstance(label, Num) and isinstance(kids, Sym)
                bindings.append((var, TreeBind(label.value, kids.name)))
            else:
                raise ParseError(line, column,
                                 ("cons chain", "nil", "tree(...)"),
                                 "a bare value")
        else:
            *heads, tail = chain
            if not isinstance(tail, Sym) or tail.name == "tree":
                raise ParseError(line, column,
                                 ("tail variable",), "a non-variable tail")
            if any(h == "nil" for h in heads):
                raise ParseError(line, column,
                                 ("element",), "nil used as an element")
            link = var
            for k, h in enumerate(heads):
                nxt = tail.name if k == len(heads) - 1 else fresh(var)
                bindings.append((link, ConsBind(h, nxt)))
                link = nxt

    _check_equations(bindings)
    return EquationSystem(tuple(bindings))


# ---------------------------------------------------------------------------
# lambda terms

class _Lambda(_Frozen):
    """An interned lambda term, ``Var(index)``, ``Lam(body)`` or ``App(fn, arg)``,
    with its node count ``size`` and the bracket depth ``height`` of its
    encoding.  Each class keeps a table of every node it ever built,
    keyed by the node's fields, so ``==`` is identity."""

    __slots__ = ("size", "height")

    @classmethod
    def _new(cls, key, size: int, height: int, *fields):
        t = cls._table[key] = object.__new__(cls)
        t._init(*fields)
        _set(t, "size", size)
        _set(t, "height", height)
        return t


class Var(_Lambda):
    """The variable of the index-th enclosing binder, 0 the innermost."""

    __slots__ = ("index",)
    _table: dict[int, "Var"] = {}

    def __new__(cls, index: int):
        return cls._table.get(index) or cls._new(index, 1, 1, index)


class Lam(_Lambda):
    __slots__ = ("body",)
    _table: dict["LambdaTerm", "Lam"] = {}

    def __new__(cls, body: "LambdaTerm"):
        return cls._table.get(body) or cls._new(body, body.size + 1, body.height + 1, body)


class App(_Lambda):
    __slots__ = ("fn", "arg")
    _table: dict[tuple, "App"] = {}

    def __new__(cls, fn: "LambdaTerm", arg: "LambdaTerm"):
        return cls._table.get((fn, arg)) or cls._new(
            (fn, arg), fn.size + arg.size + 1, max(fn.height, arg.height) + 1, fn, arg)


LambdaTerm = Union[Var, Lam, App]


@_paused
def parse_lambda(text: str) -> LambdaTerm:
    """A lambda term, read up to alpha-equivalence.  Application
    associates to the left, and an abstraction extends as far right as
    possible.  The parser keeps its own stack, so nesting depth is not
    limited by the interpreter stack."""
    cur = Cursor(text, _LAMBDA)
    # The binding depths of each variable name in scope, innermost last.
    scope: dict[str, list[int]] = {}
    depth = 0
    # Unfinished enclosing terms, innermost last: a binder ("\\", var)
    # awaiting its body; ("app", e), e applied to the trailing
    # abstraction being read; ("(", spine), the application spine
    # awaiting the parenthesised atom being read (None before its first).
    stack: list[tuple[str, object]] = []
    while True:
        # An expression: its binders, then an application spine.
        while cur.at("\\"):
            cur.take()
            var = cur.expect("WORD", "variable")[1]
            cur.expect(".")
            stack.append(("\\", var))
            scope.setdefault(var, []).append(depth)
            depth += 1
        spine: Optional[LambdaTerm] = None
        while True:
            kind = cur.peek()[0]
            if kind == "WORD":
                _, name, line, column = cur.take()
                if not scope.get(name):
                    raise ParseError(line, column, ("bound variable",), name)
                atom = Var(depth - 1 - scope[name][-1])
                spine = atom if spine is None else App(spine, atom)
                continue
            if kind == "(":
                cur.take()
                stack.append(("(", spine))
                break
            if spine is None:
                cur.fail("variable", "(", "\\")
            if kind == "\\":
                stack.append(("app", spine))
                break
            # The spine ends the innermost expression: finish every
            # enclosing term it completes.
            e = spine
            while stack:
                tag, x = stack.pop()
                if tag == "\\":
                    scope[x].pop()
                    depth -= 1
                    e = Lam(e)
                elif tag == "app":
                    e = App(x, e)
                else:
                    cur.expect(")")
                    spine = e if x is None else App(x, e)
                    break
            else:
                cur.expect("EOF", "end of input")
                return e


def _fold(e: LambdaTerm, visit):
    """``visit(t, depth, *kids)`` once per distinct pair of a subterm t of
    e and the depth of binders above it, kids being the results for t's
    children: a post-order over (subterm, depth) pairs."""

    def children(key: tuple[LambdaTerm, int]) -> list[tuple[LambdaTerm, int]]:
        t, depth = key
        return ([(t.body, depth + 1)] if isinstance(t, Lam) else
                [(t.fn, depth), (t.arg, depth)] if isinstance(t, App) else [])

    done: dict[tuple[LambdaTerm, int], object] = {}
    for key in _postorder((e, 0), children):
        done[key] = visit(*key, *[done[k] for k in children(key)])
    return done[e, 0]


def render_lambda(e: LambdaTerm) -> str:
    """Source text of a closed term, naming binders x0, x1, ... by depth."""

    def text(t: LambdaTerm, depth: int, *kids: str) -> str:
        if isinstance(t, Var):
            return f"x{depth - 1 - t.index}"
        if isinstance(t, Lam):
            return f"\\x{depth}. {kids[0]}"
        fn, arg = kids
        fn = f"({fn})" if isinstance(t.fn, Lam) else fn
        arg = arg if isinstance(t.arg, Var) else f"({arg})"
        return f"{fn} {arg}"

    return _fold(e, text)
