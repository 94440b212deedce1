"""Concrete syntax for systems and judgments (``.coax`` files).

One statement per rule::

    visit(c,{c}).                              % axiom
    visit(a,{a,b}) <- visit(b,{a,b}).          % rule with premises
    co visit(a,{}).                            % coaxiom

Grammar, whitespace-insensitive, ``%`` starts a comment running to end
of line::

    stmt  := ["co"] term ["<-" term ("," term)*] "."
    term  := IDENT ["(" term ("," term)* ")"] | INT | "inf"
           | "{" [term ("," term)*] "}"
    IDENT := [a-z][A-Za-z0-9_]*
    INT   := "-"? [0-9]+                 (ASCII digits only)

``inf`` always denotes the infinity term, so no symbol can carry that
name.  ``co`` is only special at the start of a statement, and only
when a term follows it: ``co f(x).`` is a coaxiom, while ``co.``
is an axiom concluding the nullary symbol ``co``.  A term may nest
at most ``MAX_DEPTH`` brackets deep.

Parsing stops at the first error and reports its position together with
the token classes that would have been acceptable.

The tokenizer defined here (:func:`tokenize`) also serves the
generator input languages in ``coaxiom.gen.inputs``; each language is
one :class:`Lexicon` table, and those languages walk their tokens with
:class:`Cursor`, whose errors quote a token by its text where the
``.coax`` parser names its kind.
"""

from __future__ import annotations

import re
from contextlib import suppress
from typing import Callable, NoReturn, Optional, TypeVar

from .engine import Rule, System, _ordered, _system
from .terms import INF, FinSet, Num, Sym, Term, _paused, render_term, term_key

__all__ = [
    "ParseError",
    "parse_system",
    "parse_judgment",
    "parse_judgments",
    "render_system",
    "render_rule",
]

_R = TypeVar("_R")


class ParseError(Exception):
    """Syntax error at a 1-based (line, column), with the expected token set."""

    def __init__(self, line: int, column: int, expected: tuple[str, ...], found: str):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(expected)
        super().__init__(f"{line}:{column}: expected {want}, found {found}")


# ---------------------------------------------------------------------------
# the tokenizer shared with the generator input languages (gen.inputs)

# A token is a plain tuple (kind, text, line, column); kind is a
# special's own text, INT, the lexicon's word kind, or EOF.
Token = tuple[str, str, int, int]


class Lexicon:
    """One token language: a constant table compiled into the regex
    ``pattern`` for :func:`tokenize`.

    ``specials`` are matched first, longest first, then ``INT`` and then
    ``word``, whose tokens get the kind ``word_kind``.  A character that
    starts no token reports ``stray`` as the expected set.  Whitespace
    and ``%`` comments separate tokens in every language.
    """

    __slots__ = ("pattern", "stray")

    def __init__(self, specials: tuple[str, ...], word: str, word_kind: str,
                 stray: tuple[str, ...]):
        alts = [r"(?P<NL>\n)"]
        if specials:
            alts.append("(?P<SPECIAL>" + "|".join(map(re.escape, specials)) + ")")
        alts += [r"(?P<INT>-?[0-9]+)", f"(?P<{word_kind}>{word})"]
        self.pattern = re.compile(r"(?:[ \t\r]+|%[^\n]*)*(?:" + "|".join(alts) + ")?")
        self.stray = stray


COAX = Lexicon(("<-", "(", ")", "{", "}", ",", "."), r"[a-z][A-Za-z0-9_]*",
               "IDENT", ("statement", "term"))


def tokenize(text: str, lexicon: Lexicon) -> list[Token]:
    """The tokens of ``text``, ending with an ``EOF`` token.

    The first character that starts no token raises :class:`ParseError`,
    before any parser sees the tokens.  Columns count characters; a
    trailing comment does not count, so ``EOF`` sits where it starts.
    """
    match = lexicon.pattern.match
    toks: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        if kind is None:
            break
        start, pos = m.span(kind)
        if kind == "NL":
            line += 1
            line_start = pos
            continue
        word = text[start:pos]
        toks.append((word if kind == "SPECIAL" else kind, word, line, start - line_start + 1))
    end = m.end()
    if end < len(text):
        raise ParseError(line, end - line_start + 1, lexicon.stray, repr(text[end]))
    comment = text.find("%", pos)
    toks.append(("EOF", "", line, (end if comment < 0 else comment) - line_start + 1))
    return toks


class Cursor:
    """A position in the tokens of one text, for recursive descent."""

    __slots__ = ("toks", "pos")

    def __init__(self, text: str, lexicon: Lexicon):
        self.toks = tokenize(text, lexicon)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, kind: str) -> bool:
        return self.toks[self.pos][0] == kind

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, *expected: str) -> Token:
        """Take a ``kind`` token, or fail expecting ``expected`` (default: the kind)."""
        if self.toks[self.pos][0] != kind:
            self.fail(*(expected or (kind,)))
        return self.take()

    def fail(self, *expected: str) -> NoReturn:
        """Raise :class:`ParseError` at the current token, found by its text."""
        kind, text, line, column = self.toks[self.pos]
        found = "end of input" if kind == "EOF" else text
        raise ParseError(line, column, expected, found)


# ---------------------------------------------------------------------------
# parser

_EMPTY = FinSet()

# The deepest bracket nesting a term may have.  A term's sort key holds
# the keys of all its subterms, so the keys of a term n deep and of its
# subterms take O(n**2) space together; past this depth the parser
# reports an error instead.
MAX_DEPTH = 2000

# ``_TEXTS(tok)``: the texts of a term text of the split cut, such as
# ``visit(a,{a,b})``, for :meth:`_Parser.flat_term`.  Such a text has no
# whitespace, ``%`` or ``.``, so each bracket and comma is a text, and
# so is each run of other characters between them.
_TEXTS = re.compile(r"[(){},]|[^(){},]+").findall


class _Reread(Exception):
    """The parser cannot go on with this cut of the text (see :func:`_read`)."""


def _starts_term(tok: str) -> bool:
    """Is the token text an IDENT, an INT, a term text or ``{``?"""
    return tok == "{" or "a" <= tok[:1] <= "z" or "0" <= tok[-1:] <= "9"


class _Parser:
    """A parser over the token texts of one cut of a ``.coax`` text.

    Positions are kept out of the hot loop: ``tokens``, the positioned
    tokens that ``toks`` are the texts of, is given only for the token
    reading of :func:`_read`; without it :meth:`fail` raises ``_Reread``.
    Terms are built with an explicit stack, so nesting depth is not
    limited by the interpreter stack.  Each method takes the index of
    its first token and returns the index after its last.

    A rule file repeats each judgment in many rules, so the parser keeps
    one table, ``flat``, for the parse: every identifier, integer and
    term text it has read, by its text, with the term and the most
    brackets the term can nest.  A token found there that no ``(``
    follows is taken with one lookup.  No regex checked the texts of
    the split cut, so a text not in the table is checked: an identifier
    by ``str.isidentifier``, an integer as digits after an optional
    ``-``, a term text by reading it.  A term text enters the table only
    once it has passed the ``MAX_DEPTH`` check where it was read, so at
    the top level of a statement no entry is too deep.
    """

    __slots__ = ("toks", "tokens", "flat")

    def __init__(self, toks: list[str], tokens: Optional[list[Token]] = None):
        self.toks = toks
        toks.append("")  # so that a lookahead of one never runs off the end
        self.tokens = tokens
        self.flat: dict[str, tuple[Term, int]] = {"inf": (INF, 0)}

    def fail(self, pos: int, *expected: str) -> NoReturn:
        """Raise :class:`ParseError` at the ``pos``-th token."""
        if self.tokens is None:
            raise _Reread
        kind, _, line, column = self.tokens[pos]
        raise ParseError(line, column, expected, "end of input" if kind == "EOF" else kind)

    def flat_term(self, tok: str, height: int) -> Term:
        """The term spelled by the token text ``tok``, a symbol applied
        to arguments, read inside ``height`` open brackets.

        It is read as its ``_TEXTS`` by :meth:`term`'s bracket stack; the
        most brackets it can nest are its ``(`` and ``{``.
        """
        hit = self.flat.get(tok)
        if hit is None:
            toks = _TEXTS(tok) + [""]
            t, pos = self.term(toks, 0)
            if toks[pos]:  # as in a), inf(a) or f(a)(b)
                raise _Reread
            hit = t, tok.count("(") + tok.count("{")
        if height + hit[1] > MAX_DEPTH:
            # Too deep, or its brackets only side by side: the
            # token-by-token reading tells.
            raise _Reread
        self.flat[tok] = hit
        return hit[0]

    def term(self, toks: list[str], pos: int) -> tuple[Term, int]:
        """The term that starts at ``toks[pos]``, and the index after it."""
        flat = self.flat
        # Open brackets, innermost last: (symbol name, or None for a
        # set; the closing token; the finished items so far).
        stack: list[tuple[Optional[str], str, list[Term]]] = []
        while True:
            tok = toks[pos]
            pos += 1
            hit = flat.get(tok)
            if hit is not None and toks[pos] != "(":
                t, depth = hit
                if len(stack) + depth > MAX_DEPTH:  # as in flat_term
                    raise _Reread
            elif "a" <= tok[:1] <= "z":
                if tok[-1] == ")":
                    t = self.flat_term(tok, len(stack))
                elif tok == "inf":  # followed by (
                    t = INF
                elif hit is None and not tok.isidentifier():  # as in q<-p
                    self.fail(pos - 1, "term")
                elif toks[pos] != "(":
                    t = Sym(tok)
                    flat[tok] = t, 0
                elif len(stack) < MAX_DEPTH:
                    stack.append((tok, ")", []))
                    pos += 1
                    continue
                else:
                    self.fail(pos, f"terms nested at most {MAX_DEPTH} deep")
            elif tok == "{":
                if toks[pos] == "}":
                    t = _EMPTY
                    pos += 1
                elif len(stack) < MAX_DEPTH:
                    stack.append((None, "}", []))
                    continue
                else:
                    self.fail(pos - 1, f"terms nested at most {MAX_DEPTH} deep")
            elif "0" <= tok[-1:] <= "9" and tok[tok[0] == "-":].isdigit():
                t = Num(int(tok))
                flat[tok] = t, 0
            else:
                self.fail(pos - 1, "term")
            # t is finished: add it to its bracket, closing every
            # bracket it completes.
            while stack:
                name, close, items = stack[-1]
                items.append(t)
                tok = toks[pos]
                if tok == ",":
                    pos += 1
                    break
                if tok != close:
                    self.fail(pos, close)
                pos += 1
                stack.pop()
                t = FinSet(tuple(items)) if name is None else Sym(name, tuple(items))
            else:
                return t, pos

    def unseen(self, toks: list[str], pos: int) -> tuple[Term, int]:
        """:meth:`term`, for a term token that the table does not give:
        a name seen for the first time is taken with one check."""
        tok = toks[pos]
        if "a" <= tok[:1] <= "z" and toks[pos + 1] != "(" and tok.isidentifier():
            t = Sym(tok)
            self.flat[tok] = t, 0
            return t, pos + 1
        return self.term(toks, pos)

    def statements(self) -> list[tuple[Term, tuple[Term, ...], bool]]:
        """The ``(conclusion, premises, co)`` key of each statement, its
        premises in canonical order, for :func:`~coaxiom.engine._system`."""
        toks = self.toks
        get = self.flat.get
        unseen = self.unseen
        out: list[tuple[Term, tuple[Term, ...], bool]] = []
        pos = 0
        while toks[pos]:
            # "co" is the co marker only when a term follows.
            co = toks[pos] == "co" and _starts_term(toks[pos + 1])
            pos += co
            # A term token read before is one lookup, unless a "("
            # follows it: see the class docstring.
            hit = get(toks[pos])
            if hit is not None and toks[pos + 1] != "(":
                conclusion = hit[0]
                pos += 1
            else:
                conclusion, pos = unseen(toks, pos)
            premises: list[Term] = []
            sep = "<-"
            while toks[pos] == sep:
                pos += 1
                hit = get(toks[pos])
                if hit is not None and toks[pos + 1] != "(":
                    premises.append(hit[0])
                    pos += 1
                else:
                    t, pos = unseen(toks, pos)
                    premises.append(t)
                sep = ","
            if toks[pos] != ".":
                self.fail(pos, ".")
            ps = tuple(premises)
            out.append((conclusion, _ordered(ps) if len(ps) > 1 else ps, co))
            pos += 1
        return out

    def single_term(self) -> Term:
        t, pos = self.term(self.toks, 0)
        if self.toks[pos]:
            self.fail(pos, "EOF")
        return t

    def term_lines(self) -> tuple[Term, ...]:
        toks = self.toks
        out: list[Term] = []
        pos = 0
        while toks[pos]:
            t, pos = self.term(toks, pos)
            if toks[pos] != ".":
                self.fail(pos, ".")
            out.append(t)
            pos += 1
        return tuple(out)


# The ASCII characters that str.split() takes for whitespace and the
# grammar does not.
_SPLIT_REFUSED = "\x0b\x0c\x1c\x1d\x1e\x1f"

_COMMENTS = re.compile(r"%[^\n]*").sub


def _split_texts(text: str) -> list[str]:
    """The split cut of :func:`_read`: ``text`` without its comments, cut
    at whitespace and around each ``.`` and each ``,`` before a space.

    A text as :func:`render_system` and ``gen`` write it is cut into
    ``co``, ``<-``, ``,``, ``.`` and whole terms.  A text outside ASCII
    or with whitespace that the grammar does not have is refused.
    """
    if not text.isascii() or any(c in text for c in _SPLIT_REFUSED):
        raise _Reread
    if "%" in text:
        text = _COMMENTS("", text)
    # The join spaces out each ", " faster than str.replace does.
    return " , ".join(text.split(", ")).replace(".", " . ").split()


def _read(text: str, read: Callable[[_Parser], _R]) -> _R:
    """``read`` applied to a parser of ``text``, under the split cut of
    :func:`_split_texts` if it can go on with it, and otherwise under
    the tokens of :func:`tokenize`, the reference reading, which give an
    error its position or read a term that only looked too deep.
    Tokenizing also reports a stray character first, wherever it is.
    """
    with suppress(_Reread):
        return read(_Parser(_split_texts(text)))
    tokens = tokenize(text, COAX)
    return read(_Parser([tok[1] for tok in tokens], tokens))


@_paused
def parse_system(text: str) -> System:
    """Parse a whole ``.coax`` document into a :class:`System`."""
    return _system(_read(text, _Parser.statements))


def parse_judgment(text: str) -> Term:
    """Parse one bare term, e.g. a judgment given on a command line."""
    return _read(text, _Parser.single_term)


def parse_judgments(text: str) -> tuple[Term, ...]:
    """Parse a judgment-set file: one ``.``-terminated term per entry."""
    return _read(text, _Parser.term_lines)


# ---------------------------------------------------------------------------
# rendering

def render_rule(r: Rule) -> str:
    return _line(r, render_term)


def _line(r: Rule, text: Callable[[Term], str]) -> str:
    """The statement of ``r``, its terms written by ``text``."""
    head = ("co " if r.co else "") + text(r.conclusion)
    return head + (" <- " + ", ".join(map(text, r.premises)) + "." if r.premises else ".")


def render_system(sys: System) -> str:
    """Canonical text: regular rules first, each family in canonical order.

    ``parse_system(render_system(s)) == s`` for every system whose
    symbol names are all IDENTs other than ``inf``, as every generator's
    are: a symbol named ``inf`` reads back as the infinity term, and a
    name such as ``X`` does not read back at all.

    The order is :func:`~coaxiom.engine.rule_key`'s, compared on the
    ranks of the terms, which are sorted and rendered once.
    """
    families = (sys.regular_rules, sys.co_rules)
    terms = {t for rs in families for r in rs for t in (r.conclusion, *r.premises)}
    rank = {t: n for n, t in enumerate(sorted(terms, key=term_key))}
    get = rank.__getitem__
    text = {t: render_term(t) for t in rank}.__getitem__
    lines = [_line(r, text) for rs in families for r in sorted(
        rs, key=lambda r: (get(r.conclusion), *map(get, r.premises)))]
    return "\n".join(lines) + ("\n" if lines else "")
