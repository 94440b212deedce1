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

The tokenizer and token cursor defined here (:func:`tokenize`,
:class:`Cursor`) also serve the generator input languages in
``coaxiom.gen.inputs``; each language is one :class:`Lexicon` table.
"""

from __future__ import annotations

import re
from typing import NoReturn, Optional

from .engine import Rule, System, rule_key
from .terms import INF, FinSet, Num, Sym, Term, render_term

__all__ = [
    "ParseError",
    "parse_system",
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


# ---------------------------------------------------------------------------
# the tokenizer shared with the generator input languages (gen.inputs)

# A token is a plain tuple (kind, text, line, column); kind is a
# special's own text, INT, the lexicon's word kind, or EOF.
Token = tuple[str, str, int, int]


class Lexicon:
    """One token language: a constant table compiled into two regexes,
    ``pattern`` for :func:`tokenize` and ``texts`` for bare token texts.

    ``specials`` are matched first, longest first, then ``INT`` and then
    ``word``, whose tokens get the kind ``word_kind``.  A character that
    starts no token reports ``stray`` as the expected set, and
    :meth:`Cursor.fail` quotes a token by its text if ``quote_text``,
    else by its kind.  Whitespace and ``%`` comments separate tokens in
    every language.
    """

    __slots__ = ("pattern", "texts", "stray", "quote_text")

    def __init__(self, specials: tuple[str, ...], word: str, word_kind: str,
                 stray: tuple[str, ...], quote_text: bool):
        alts = [r"(?P<NL>\n)"]
        if specials:
            alts.append("(?P<SPECIAL>" + "|".join(map(re.escape, specials)) + ")")
        alts += [r"(?P<INT>-?[0-9]+)", f"(?P<{word_kind}>{word})"]
        self.pattern = re.compile(r"(?:[ \t\r]+|%[^\n]*)*(?:" + "|".join(alts) + ")?")
        # ``texts(text)``: the same tokens as bare texts, for a parser
        # that needs positions only to report an error.  A character
        # that starts no token is a text of its own, and the list ends
        # with "" (once or twice).
        plain = list(map(re.escape, specials)) + [r"-?[0-9]+", word, "."]
        self.texts = re.compile(
            r"(?:[ \t\r\n]+|%[^\n]*)*(" + "|".join(plain) + ")?").findall
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
        """Raise :class:`ParseError` at the current token."""
        kind, text, line, column = self.toks[self.pos]
        found = "end of input" if kind == "EOF" else text if self.quote_text else kind
        raise ParseError(line, column, expected, found)


# ---------------------------------------------------------------------------
# parser

_EMPTY = FinSet()

# The deepest bracket nesting a term may have.  A term's sort key holds
# the keys of all its subterms, so the keys of a term n deep and of its
# subterms take O(n**2) space together; past this depth the parser
# reports an error instead.
MAX_DEPTH = 2000


def _starts_term(tok: str) -> bool:
    """Is the token text an IDENT, an INT or ``{``?"""
    return tok == "{" or "a" <= tok[:1] <= "z" or "0" <= tok[-1:] <= "9"


class _Parser:
    """A parser over the token texts of one ``.coax`` text.

    It reads bare token texts (``COAX.texts``), which leaves the
    positions out of the hot loop.  Only a failure tokenizes
    the text again with positions, to report where it happened; that
    also reports a stray character first, wherever it is, as
    :func:`tokenize` does.  Terms are built with an explicit stack, so
    nesting depth is not limited by the interpreter stack.  Each method
    takes the index of its first token and returns the index after its
    last.
    """

    __slots__ = ("text", "toks", "flat")

    def __init__(self, text: str):
        self.text = text
        self.toks = COAX.texts(text)
        self.toks.append("")  # so that a lookahead of one never runs off the end
        # Flat terms already read, by their tokens: see term().
        self.flat: dict[tuple[str, ...], Term] = {}

    def fail(self, pos: int, *expected: str) -> NoReturn:
        """Raise :class:`ParseError` at the ``pos``-th token."""
        kind, _, line, column = tokenize(self.text, COAX)[pos]
        raise ParseError(line, column, expected, "end of input" if kind == "EOF" else kind)

    def term(self, pos: int) -> tuple[Term, int]:
        """The term that starts at token ``pos``, and the index after it.

        A rule file repeats each judgment in many rules, so a flat term,
        a symbol applied to arguments without parentheses such as
        ``visit(a,{a,b})``, is looked up by its tokens before it is read.
        Every ``)`` after its ``(`` closes it, so its tokens run to the
        first ``)``.
        """
        toks = self.toks
        if toks[pos + 1] != "(":
            return self._term(pos)
        try:
            end = toks.index(")", pos + 2) + 1
        except ValueError:
            return self._term(pos)
        key = tuple(toks[pos:end])
        t = self.flat.get(key)
        if t is not None:
            return t, end
        t, after = self._term(pos)
        if after == end and "(" not in key[2:]:
            self.flat[key] = t
        return t, after

    def _term(self, pos: int) -> tuple[Term, int]:
        toks = self.toks
        # Open brackets, innermost last: (symbol name, or None for a
        # set; the closing token; the finished items so far).
        stack: list[tuple[Optional[str], str, list[Term]]] = []
        while True:
            tok = toks[pos]
            pos += 1
            if "a" <= tok[:1] <= "z":
                if tok == "inf":
                    t = INF
                elif toks[pos] != "(":
                    t = Sym(tok)
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
            elif "0" <= tok[-1:] <= "9":
                t = Num(int(tok))
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

    def statements(self) -> list[Rule]:
        toks = self.toks
        out: list[Rule] = []
        pos = 0
        while toks[pos]:
            # "co" is the co marker only when a term follows.
            co = toks[pos] == "co" and _starts_term(toks[pos + 1])
            conclusion, pos = self.term(pos + co)
            premises: list[Term] = []
            sep = "<-"
            while toks[pos] == sep:
                t, pos = self.term(pos + 1)
                premises.append(t)
                sep = ","
            if toks[pos] != ".":
                self.fail(pos, ".")
            out.append(Rule(conclusion, tuple(premises), co))
            pos += 1
        return out

    def single_term(self) -> Term:
        t, pos = self.term(0)
        if self.toks[pos]:
            self.fail(pos, "EOF")
        return t

    def term_lines(self) -> tuple[Term, ...]:
        toks = self.toks
        out: list[Term] = []
        pos = 0
        while toks[pos]:
            t, pos = self.term(pos)
            if toks[pos] != ".":
                self.fail(pos, ".")
            out.append(t)
            pos += 1
        return tuple(out)


def parse_system(text: str) -> System:
    """Parse a whole ``.coax`` document into a :class:`System`."""
    return System(_Parser(text).statements())


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
