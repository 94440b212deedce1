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
is an axiom concluding the nullary symbol ``co``.

Parsing stops at the first error and reports its position together with
the token classes that would have been acceptable.

The tokenizer and token cursor defined here (:func:`tokenize`,
:class:`Cursor`) also serve the generator input languages in
``coaxiom.gen.inputs``; each language is one :class:`Lexicon` table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from .engine import Rule, System, rule_key
from .terms import INF, FinSet, Num, Sym, Term, render_term

__all__ = [
    "ParseError",
    "SourceStatement",
    "SourceSystem",
    "parse_system",
    "parse_source",
    "parse_judgment",
    "parse_judgments",
    "render_system",
    "render_rule",
]


class ParseError(Exception):
    """Syntax error at a 1-based (line, column), with the expected token set."""

    def __init__(self, line: int, column: int, expected: tuple[str, ...], found: str):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(expected)
        super().__init__(f"{line}:{column}: expected {want}, found {found}")


@dataclass(frozen=True)
class SourceStatement:
    """A parsed rule plus where its statement started."""

    rule: Rule
    line: int
    column: int


@dataclass(frozen=True)
class SourceSystem:
    """Parse result that remembers source locations, for tooling."""

    statements: tuple[SourceStatement, ...]

    def system(self) -> System:
        return System(s.rule for s in self.statements)


# ---------------------------------------------------------------------------
# the tokenizer shared with the generator input languages (gen.inputs)

# A token is a plain tuple (kind, text, line, column); kind is a
# special's own text, INT, the lexicon's word kind, or EOF.
Token = tuple[str, str, int, int]


class Lexicon:
    """One token language: a constant table compiled into one regex.

    ``specials`` are matched first, longest first, then ``INT`` and then
    ``word``, whose tokens get the kind ``word_kind``.  A character that
    starts no token reports ``stray`` as the expected set, and
    :meth:`Cursor.fail` quotes a token by its text if ``quote_text``,
    else by its kind.  Whitespace and ``%`` comments separate tokens in
    every language.
    """

    __slots__ = ("pattern", "stray", "quote_text")

    def __init__(self, specials: tuple[str, ...], word: str, word_kind: str,
                 stray: tuple[str, ...], quote_text: bool):
        alts = [r"(?P<NL>\n)"]
        if specials:
            alts.append("(?P<SPECIAL>" + "|".join(map(re.escape, specials)) + ")")
        alts += [r"(?P<INT>-?[0-9]+)", f"(?P<{word_kind}>{word})"]
        self.pattern = re.compile(r"(?:[ \t\r]+|%[^\n]*)*(?:" + "|".join(alts) + ")?")
        self.stray = stray
        self.quote_text = quote_text


COAX = Lexicon(("<-", "(", ")", "{", "}", ",", "."), r"[a-z][A-Za-z0-9_]*",
               "IDENT", ("statement", "term"), quote_text=False)


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

    __slots__ = ("toks", "pos", "quote_text")

    def __init__(self, text: str, lexicon: Lexicon):
        self.toks = tokenize(text, lexicon)
        self.pos = 0
        self.quote_text = lexicon.quote_text

    def peek(self, k: int = 0) -> Token:
        """The token ``k`` ahead; callers never look past ``EOF``."""
        return self.toks[self.pos + k]

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
        """Raise :class:`ParseError` at the current token."""
        kind, text, line, column = self.toks[self.pos]
        found = "end of input" if kind == "EOF" else text if self.quote_text else kind
        raise ParseError(line, column, expected, found)


# ---------------------------------------------------------------------------
# parser

_TERM_START = ("IDENT", "INT", "{")


class _Parser(Cursor):
    def __init__(self, text: str):
        super().__init__(text, COAX)

    def term(self) -> Term:
        kind, text, _, _ = self.peek()
        if kind == "INT":
            self.take()
            return Num(int(text))
        if kind == "IDENT":
            self.take()
            if text == "inf":
                return INF
            if self.at("("):
                self.take()
                args = [self.term()]
                while self.at(","):
                    self.take()
                    args.append(self.term())
                self.expect(")")
                return Sym(text, tuple(args))
            return Sym(text)
        if kind == "{":
            self.take()
            elems: list[Term] = []
            if not self.at("}"):
                elems.append(self.term())
                while self.at(","):
                    self.take()
                    elems.append(self.term())
            self.expect("}")
            return FinSet(tuple(elems))
        self.fail("term")

    def statement(self) -> SourceStatement:
        _, text, line, column = self.peek()
        # "co" is the co marker only when a term follows.
        co = text == "co" and self.peek(1)[0] in _TERM_START
        if co:
            self.take()
        conclusion = self.term()
        premises: list[Term] = []
        if self.at("<-"):
            self.take()
            premises.append(self.term())
            while self.at(","):
                self.take()
                premises.append(self.term())
        self.expect(".")
        return SourceStatement(Rule(conclusion, tuple(premises), co), line, column)

    def source_system(self) -> SourceSystem:
        stmts: list[SourceStatement] = []
        while not self.at("EOF"):
            stmts.append(self.statement())
        return SourceSystem(tuple(stmts))

    def single_term(self) -> Term:
        t = self.term()
        self.expect("EOF")
        return t

    def term_lines(self) -> tuple[Term, ...]:
        out: list[Term] = []
        while not self.at("EOF"):
            out.append(self.term())
            self.expect(".")
        return tuple(out)


def parse_source(text: str) -> SourceSystem:
    """Parse a whole ``.coax`` document, keeping statement locations."""
    return _Parser(text).source_system()


def parse_system(text: str) -> System:
    """Parse a whole ``.coax`` document into a :class:`System`."""
    return parse_source(text).system()


def parse_judgment(text: str) -> Term:
    """Parse one bare term, e.g. a judgment given on a command line."""
    return _Parser(text).single_term()


def parse_judgments(text: str) -> tuple[Term, ...]:
    """Parse a judgment-set file: one ``.``-terminated term per entry."""
    return _Parser(text).term_lines()


# ---------------------------------------------------------------------------
# rendering

def render_rule(r: Rule) -> str:
    head = ("co " if r.co else "") + render_term(r.conclusion)
    if r.premises:
        head += " <- " + ", ".join(render_term(p) for p in r.premises)
    return head + "."


def render_system(sys: System) -> str:
    """Canonical text: regular rules first, each family in canonical order.

    ``parse_system(render_system(s)) == s`` for every system.
    """
    lines = [render_rule(r) for r in sorted(sys.regular_rules, key=rule_key)]
    lines += [render_rule(r) for r in sorted(sys.co_rules, key=rule_key)]
    return "\n".join(lines) + ("\n" if lines else "")
