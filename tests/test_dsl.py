"""Parsing and rendering of rule files and judgment files."""

from __future__ import annotations

import gc
import json
import random
import sys

import pytest

from cli_golden import GOLDEN
from coaxiom import (INF, ParseError, Rule, System, dsl, finset, num,
                     parse_judgment, parse_judgments, parse_system,
                     render_rule, render_system, render_term, rule_key, sym)
from coaxiom.dsl import COAX, MAX_DEPTH, _Parser, _Reread, _split_texts, tokenize
from coaxiom.gen import gen_visit, parse_graph
from corpus import as_system, corpus
from oracles import read_coax_rules

P, Q = sym("p"), sym("q")


# ---------------------------------------------------------------------------
# statements

def test_axiom_rule_and_coaxiom():
    sys_ = parse_system("""
        p.                       % axiom
        q <- p.                  % one premise
        co q.                    % coaxiom
    """)
    assert sys_ == System([Rule(P), Rule(Q, (P,)), Rule(Q, co=True)])


def test_co_rule_with_premises():
    sys_ = parse_system("co q <- p, r.")
    (r,) = sys_.co_rules
    assert r.co and r.conclusion == Q and r.premises == (P, sym("r"))


def test_co_is_only_special_before_a_term():
    sys_ = parse_system("co.")
    (r,) = sys_.regular_rules
    assert r.conclusion == sym("co") and not r.co


def test_term_shapes():
    j = parse_judgment("f(g(x),{1,-2,inf},{})")
    assert j == sym("f", sym("g", sym("x")),
                    finset(num(1), num(-2), INF), finset())


def test_inf_is_reserved_for_the_infinity_term():
    assert parse_judgment("inf") == INF
    assert parse_judgment("dist(a,e,inf)").args[2] == INF


def test_set_elements_are_normalised():
    assert parse_judgment("{b,a,a}") == parse_judgment("{a,b}")


def test_comments_and_whitespace_are_ignored():
    assert parse_system("p. % trailing\n% whole line\n\n  q <- p.") == \
        parse_system("p. q <- p.")


# ---------------------------------------------------------------------------
# round trips

def test_render_parse_round_trip():
    sys_ = System([
        Rule(sym("visit", sym("a"), finset(sym("a"), sym("b"))),
             (sym("visit", sym("b"), finset(sym("b"))),)),
        Rule(sym("dist", sym("a"), sym("e"), INF), co=True),
        Rule(sym("n", num(-4))),
    ])
    assert parse_system(render_system(sys_)) == sys_


# Systems render_system writes but parse_system reads as another
# system: a symbol named inf reads as the infinity term, and X is no
# IDENT.  What parse_system reads from the text instead.
UNREADABLE_NAMES = {
    "inf": ((Rule(INF),), ()),
    "X": (1, 1, ("statement", "term"), "'X'"),
}


@pytest.mark.parametrize("name, read", UNREADABLE_NAMES.items(), ids=UNREADABLE_NAMES)
def test_render_parse_round_trip_needs_ident_symbol_names(name, read):
    text = render_system(System([Rule(sym(name))]))
    assert text == f"{name}.\n"
    assert reading(parse_system, text) == read


def test_render_system_is_canonical_and_stable():
    a = System([Rule(Q, (P,)), Rule(P), Rule(Q, co=True)])
    b = System([Rule(P), Rule(Q, co=True), Rule(Q, (P,))])
    assert render_system(a) == render_system(b)
    lines = render_system(a).splitlines()
    assert lines == ["p.", "q <- p.", "co q."]


def render_by_rule_key(sys_: System) -> list[str]:
    return [render_rule(r) for rs in (sys_.regular_rules, sys_.co_rules)
            for r in sorted(rs, key=rule_key)]


def test_render_system_orders_each_family_by_rule_key():
    for seed, triples in corpus():
        sys_ = as_system(triples)
        assert render_system(sys_).splitlines() == render_by_rule_key(sys_), seed


def test_render_system_orders_gen_outputs_by_rule_key():
    # Each gen output of the golden replay, its rules shuffled.
    rng = random.Random(0)
    runs = json.loads(GOLDEN.read_text())["runs"]
    outputs = [run["stdout"] for run in runs
               if run["argv"][0] == "gen" and run["code"] == 0]
    assert len(outputs) > 20
    for text in outputs:
        parsed = parse_system(text)
        rules = [*parsed.regular_rules, *parsed.co_rules]
        sys_ = System(rng.sample(rules, len(rules)))
        assert render_system(sys_).splitlines() == render_by_rule_key(sys_)
        assert render_system(sys_) == text


def test_render_system_renders_each_term_once(monkeypatch):
    # gen visit on a 5-node ring plus a chord: 1,157 rules that name
    # 160 distinct terms 3,333 times.
    sys_ = gen_visit(parse_graph("node a node b node c node d node e edge a c "
                                 "edge a b edge b c edge c d edge d e edge e a"))
    terms = {t for r in sys_.regular_rules + sys_.co_rules for t in (r.conclusion, *r.premises)}
    rendered = []
    monkeypatch.setattr(dsl, "render_term", lambda t: rendered.append(t) or render_term(t))
    text = render_system(sys_)
    monkeypatch.undo()
    assert len(rendered) == len(set(rendered)) == len(terms) == 160
    assert text.splitlines() == render_by_rule_key(sys_)


def test_render_rule_spells_premises():
    assert render_rule(Rule(Q, (sym("r"), P))) == "q <- p, r."
    assert render_rule(Rule(Q, co=True)) == "co q."


def test_render_empty_system():
    assert render_system(System()) == ""
    assert parse_system("") == System()


# ---------------------------------------------------------------------------
# judgment files

def test_parse_judgments_file():
    js = parse_judgments("p. q.\n f(1). % comment\n")
    assert js == (P, Q, sym("f", num(1)))


def test_parse_judgment_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_judgment("p q")
    with pytest.raises(ParseError):
        parse_judgment("")


# ---------------------------------------------------------------------------
# errors

def test_error_carries_position_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_system("p <- .")
    assert exc.value.line == 1
    assert exc.value.column == 6
    assert "term" in " ".join(exc.value.expected)


def test_error_on_missing_dot():
    with pytest.raises(ParseError) as exc:
        parse_system("p <- q")
    assert "." in exc.value.expected or "," in exc.value.expected


def test_error_on_unbalanced_braces():
    with pytest.raises(ParseError):
        parse_system("f({a.")


def test_error_on_capitalised_identifier():
    with pytest.raises(ParseError):
        parse_judgment("Foo")


# (text, line, column, expected, found) for whole rule files.  Columns
# count characters; a trailing comment does not count, so end of input
# sits where it starts.
SYSTEM_ERRORS = [
    ("p. q <- #.", 1, 9, ("statement", "term"), "'#'"),        # stray character
    ("p <- Foo.", 1, 6, ("statement", "term"), "'F'"),         # uppercase identifier
    ("n(-x).", 1, 3, ("statement", "term"), "'-'"),            # - without digits
    ("p < q.", 1, 3, ("statement", "term"), "'<'"),            # < without -
    ("p <- q,", 1, 8, ("term",), "end of input"),              # premature end
    ("p <- q", 1, 7, (".",), "end of input"),                  # missing .
    ("f(a, b.", 1, 7, (")",), "."),                            # missing )
    ("{a,b", 1, 5, ("}",), "end of input"),                    # missing }
    ("p <- q r.", 1, 8, (".",), "IDENT"),
    ("co", 1, 3, (".",), "end of input"),
    ("p <- % dangling", 1, 6, ("term",), "end of input"),      # comment at end
    ("p.\n  q <- r % trailing", 2, 10, (".",), "end of input"),
    ("p\n\n  <- \n ?", 4, 2, ("statement", "term"), "'?'"),
    ("p. %c\n\t q <-\r\n  .", 3, 3, ("term",), "."),
    ("p <- .\n#", 2, 1, ("statement", "term"), "'#'"),        # stray before syntax
    # Errors inside or right after a flat term such as p(a,{b}).
    ("p(#).", 1, 3, ("statement", "term"), "'#'"),
    ("p(a. q).", 1, 4, (")",), "."),
    ("p(a %c\n)", 2, 2, (".",), "end of input"),
    ("inf(a).", 1, 4, (".",), "("),
    ("p(a,{b).", 1, 7, ("}",), ")"),
    ("p(a b).", 1, 5, (")",), "IDENT"),
    ("q <- p(a, 1 2).", 1, 13, (")",), "INT"),
    ("p <- q(a, {b}", 1, 14, (")",), "end of input"),        # ) missing at the end
    # Separators that str.split() takes and the grammar does not, between
    # two statements as render_system writes them, or inside one.
    *[(f"a <- b.{c}c.", 1, 8, ("statement", "term"), repr(c))
      for c in "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"],
    ("a\u2028<- b.", 1, 2, ("statement", "term"), "'\\u2028'"),
]

JUDGMENT_ERRORS = [
    ("p q", 1, 3, ("EOF",), "IDENT"),
    ("", 1, 1, ("term",), "end of input"),
    ("%only comment", 1, 1, ("term",), "end of input"),
    ("f(1,", 1, 5, ("term",), "end of input"),
    ("Foo", 1, 1, ("statement", "term"), "'F'"),
    ("p(#)", 1, 3, ("statement", "term"), "'#'"),
    ("p(a. q)", 1, 4, (")",), "."),
    ("p(a %c\n).", 2, 2, ("EOF",), "."),
    ("inf(a)", 1, 4, ("EOF",), "("),
    ("co p(a).", 1, 4, ("EOF",), "IDENT"),                   # co marks only rules
    ("co(a).", 1, 6, ("EOF",), "."),
    ("p(a,{b)", 1, 7, ("}",), ")"),
    ("q(a, {b}", 1, 9, (")",), "end of input"),
]


def error_fields(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    e = exc.value
    return (e.line, e.column, e.expected, e.found)


@pytest.mark.parametrize("text, line, column, expected, found", SYSTEM_ERRORS)
def test_system_error_positions(text, line, column, expected, found):
    assert error_fields(parse_system, text) == (line, column, expected, found)


@pytest.mark.parametrize("text, line, column, expected, found", JUDGMENT_ERRORS)
def test_judgment_error_positions(text, line, column, expected, found):
    assert error_fields(parse_judgment, text) == (line, column, expected, found)


def nested(depth):
    """``f(p({...{a}...}))`` with its innermost braces ``depth`` brackets deep."""
    n = depth - 2
    return "f(p(" + "{" * n + "a" + "}" * n + "))"


def nested_term(depth):
    t = sym("a")
    for _ in range(depth - 2):
        t = finset(t)
    return sym("f", sym("p", t))


@pytest.mark.parametrize("depth", [1998, 1999, 2000])
def test_terms_nest_up_to_the_depth_limit(depth):
    assert parse_judgment(nested(depth)) is nested_term(depth)
    assert parse_system(nested(depth) + ".") == System([Rule(nested_term(depth))])


def test_terms_nested_past_the_depth_limit_are_an_error():
    want = (1, 2003, ("terms nested at most 2000 deep",), "{")
    assert error_fields(parse_judgment, nested(2001)) == want
    assert error_fields(parse_system, nested(2001) + ".") == want
    assert error_fields(parse_judgments, nested(2001) + ".") == want


def reused(n):
    """A flat term with ``n`` nested braces, read at the top level and
    then again one bracket deeper."""
    flat = "p(" + "{" * n + "a" + "}" * n + ")"
    return f"{flat}.\nf({flat})."


def test_a_flat_term_reused_deeper_counts_its_brackets():
    assert len(parse_system(reused(1998)).regular_rules) == 2
    assert error_fields(parse_system, reused(1999)) == \
        (2, 2003, ("terms nested at most 2000 deep",), "{")


@pytest.mark.parametrize("text, column, found", [
    ("p(\u00b2)", 3, "'\u00b2'"),    # superscript two
    ("p(\u0663)", 3, "'\u0663'"),    # Arabic-Indic three
    ("p(-\u00b2)", 3, "'-'"),
    ("p(3\u0663)", 4, "'\u0663'"),
])
def test_integers_are_ascii_digits(text, column, found):
    assert error_fields(parse_judgment, text) == \
        (1, column, ("statement", "term"), found)
    assert error_fields(parse_system, text + ".") == \
        (1, column, ("statement", "term"), found)


# ---------------------------------------------------------------------------
# the table of tokens already read

def top_then_nested(flat, brackets):
    """``flat`` as a whole statement, then inside ``brackets`` applications."""
    return f"{flat}.\n" + "f(" * brackets + flat + ")" * brackets + "."


TABLE_TEXTS = {
    # p is read bare, then applied: its tokens are p, (, f(a), ).
    "applied": "p. q <- p(f(a)). p(f(a)) <- p, q.",
    "co-symbol": "co. co co. co <- co. co (a) <- co. co co(a) <- co, co.",
    "bare-inf": "inf. p(inf). q <- inf, p(inf). co inf <- inf.",
    "flat-at-max-depth": top_then_nested("p({a})", MAX_DEPTH - 2),
    # Texts laid out as render_system writes them, which parse_system
    # cuts with str.split(): either that cut reads them or the next one.
    "co-then-arrow": "co <- a.",
    "co-co": "co co.",
    "co-axiom-then-coaxiom": "co.\nco x.",
    "inf-axiom": "inf.",
    "co-inf": "co inf <- inf.",
    "duplicate-premise": "p <- a, b, c, a.",
    "unsorted-set": "visit(a,{b,a}) <- visit(b,{}).",
    "arrow-without-spaces": "q<-p.\nr<-q,p.",
    "flat-braces-at-max-depth":
        "p(" + "{" * (MAX_DEPTH - 1) + "a" + "}" * (MAX_DEPTH - 1) + ").",
}

# Texts that the split cut reads whole, nested terms and comments
# included.
SPLIT_TEXTS = {
    "nested-rule": "q <- p(f(g(a))), r.",
    "minpath-rule": "minPath(a,e,bot,0) <- minPath(b,e,bot,0), minPath(e,e,p(e),5).",
    "comment-line": "x. % c\ny <- x.",
    "nested-at-max-depth":
        "q <- " + "f(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1) + ".",
}
TABLE_TEXTS.update(SPLIT_TEXTS)


@pytest.mark.parametrize("text", TABLE_TEXTS.values(), ids=TABLE_TEXTS)
def test_tokens_read_again_parse_as_read_token_by_token(text):
    parsed = parse_system(text)
    # The reference reader recurses once per bracket.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * MAX_DEPTH))
    try:
        triples = read_coax_rules(text)
    finally:
        sys.setrecursionlimit(limit)
    reference = System(Rule(c, tuple(ps), co=co) for c, ps, co in triples)
    assert parsed.regular_rules == reference.regular_rules
    assert parsed.co_rules == reference.co_rules


def split_cut_reads(text: str) -> bool:
    """Does the split cut, the first that ``parse_system`` tries, read
    ``text`` whole?"""
    try:
        _Parser(_split_texts(text)).statements()
    except _Reread:
        return False
    return True


@pytest.mark.parametrize("text", SPLIT_TEXTS.values(), ids=SPLIT_TEXTS)
def test_the_split_cut_reads_nested_terms_and_comments(text):
    assert split_cut_reads(text)


def read_token_by_token(text: str) -> System:
    """``text`` read through the tokens of :func:`tokenize`, as
    ``parse_system`` reads a text it cannot take faster."""
    tokens = tokenize(text, COAX)
    return System(_Parser([tok[1] for tok in tokens], tokens).statements())


def read_judgments_token_by_token(text: str) -> tuple:
    """``text`` read through the tokens of :func:`tokenize`, as
    ``parse_judgments`` reads a text it cannot take faster."""
    tokens = tokenize(text, COAX)
    return _Parser([tok[1] for tok in tokens], tokens).term_lines()


def reading(parse, text):
    """What ``parse`` reads from ``text``: the rule tuples of a system or
    the judgments, in order, or the fields of its :class:`ParseError`."""
    try:
        out = parse(text)
    except ParseError as e:
        return e.line, e.column, e.expected, e.found
    return (out.regular_rules, out.co_rules) if isinstance(out, System) else out


def test_rendered_corpus_parses_as_read_token_by_token():
    # check and prove print rule indices, so the order must agree too.
    for seed, triples in corpus():
        text = render_system(as_system(triples))
        assert split_cut_reads(text), seed
        assert reading(parse_system, text) == reading(read_token_by_token, text), seed


def flat_family(n: int, seed: int) -> str:
    """ROADMAP item 12's random flat family: ``n`` rules of 0-3 premises
    drawn out of order over n/4 symbols, the last of two or three the
    first again in a tenth of them, a twentieth of the rules stated
    twice, and n/100 coaxioms."""
    rng = random.Random(seed)

    def s() -> str:
        return f"s{rng.randrange(n // 4)}"

    lines = []
    for _ in range(n):
        head, premises = s(), [s() for _ in range(rng.randint(0, 3))]
        if len(premises) > 1 and rng.random() < 0.1:
            premises[-1] = premises[0]
        lines.append(head + (" <- " + ", ".join(premises) if premises else "") + ".")
    lines += rng.sample(lines, n // 20)
    rng.shuffle(lines)
    return "\n".join(lines + ["co " + s() + "." for _ in range(n // 100)]) + "\n"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_both_readings_agree_on_the_flat_family(seed):
    text = flat_family(2000, seed)
    # Each statement by its words: the rules in order of first
    # statement, premises deduplicated and in canonical order.
    statements = [line.rstrip(".").replace(",", "").split() for line in text.splitlines()]
    regular = dict.fromkeys((words[0], tuple(sorted(set(words[2:]))))
                            for words in statements if words[0] != "co")
    unsorted = [ws for ws in statements if ws[2:] != sorted(set(ws[2:]))]
    assert len(unsorted) > 200 and any(len(set(ws[2:])) < len(ws[2:]) for ws in unsorted)
    assert split_cut_reads(text)
    assert reading(parse_system, text) == reading(read_token_by_token, text)
    parsed = parse_system(text)
    assert [(render_term(r.conclusion), tuple(map(render_term, r.premises)))
            for r in parsed.regular_rules] == list(regular)
    assert len(parsed.co_rules) == len({ws[1] for ws in statements if ws[0] == "co"})


def cycle_tail_text(n: int) -> str:
    """cycle-tail's shape: an n-rule cycle and an n-rule chain of bare
    names, each closed by a coaxiom, its statements shuffled."""
    lines = [f"c{i} <- c{(i + 1) % n}." for i in range(n)]
    lines += [f"t{i} <- t{i + 1}." for i in range(n)] + ["co c0.", f"co t{n}."]
    random.Random(n).shuffle(lines)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("read", [parse_system, read_token_by_token])
def test_statements_take_a_new_name_without_the_bracket_machine(monkeypatch, read):
    entered = []
    monkeypatch.setattr(_Parser, "term", lambda self, toks, pos, _term=_Parser.term:
                        entered.append(toks[pos]) or _term(self, toks, pos))
    sys_ = read(cycle_tail_text(500))
    assert entered == []
    assert len(sys_.regular_rules) == 1000 and len(sys_.co_rules) == 2


def test_judgments_read_a_symbol_bare_and_then_applied():
    assert parse_judgments("p. p (a). p.") == (P, sym("p", sym("a")), P)


# (text, line, column, expected, found), recorded from the parser that
# read every token through the stack machine.
TABLE_ERRORS = [
    ("p. p q.", 1, 6, (".",), "IDENT"),
    ("p(a). q <- p(a) p(a).", 1, 17, (".",), "IDENT"),
    ("p. q <- p, .", 1, 12, ("term",), "."),
    ("p(a). p(a)(b).", 1, 11, (".",), "("),
    ("p. q <- p(.", 1, 11, ("term",), "."),
    ("inf. inf(a).", 1, 9, (".",), "("),
    ("co. co co(", 1, 11, ("term",), "end of input"),
    ("p. q <- p(f(a)", 1, 15, (")",), "end of input"),
    (top_then_nested("p({a})", MAX_DEPTH - 1), 2, 4001,
     (f"terms nested at most {MAX_DEPTH} deep",), "{"),
]


@pytest.mark.parametrize("text, line, column, expected, found", TABLE_ERRORS,
                         ids=[t[:24] for t, *_ in TABLE_ERRORS])
def test_errors_after_a_token_read_again_keep_their_positions(text, line, column,
                                                               expected, found):
    assert error_fields(parse_system, text) == (line, column, expected, found)


def reused_nested(n):
    """A nested term with ``n`` nested braces, read at the top level and
    then again one bracket deeper, as a part of its own."""
    part = "p(f(" + "{" * n + "a" + "}" * n + "))"
    return f"{part}.\ng ( {part} )."


# (text, line, column, expected, found), recorded from the parser before
# the split cut read nested terms: texts whose parts the split cut must
# check before it reads them.
SPLIT_ERRORS = [
    ("a).", 1, 2, (".",), ")"),
    ("1-2.", 1, 2, (".",), "INT"),
    ("p(a)b.", 1, 5, (".",), "IDENT"),
    ("f(a)(b).", 1, 5, (".",), "("),
    ("p <- q<-r.", 1, 7, (".",), "<-"),
    ("1_0.", 1, 2, ("statement", "term"), "'_'"),
    ("p(f(a))b.", 1, 8, (".",), "IDENT"),
    (reused_nested(MAX_DEPTH - 2), 2, 2006,
     (f"terms nested at most {MAX_DEPTH} deep",), "{"),
]


@pytest.mark.parametrize("text, line, column, expected, found", SPLIT_ERRORS,
                         ids=[t[:24] for t, *_ in SPLIT_ERRORS])
def test_parts_of_the_split_cut_are_checked(text, line, column, expected, found):
    assert error_fields(parse_system, text) == (line, column, expected, found)


def test_a_nested_term_reused_deeper_counts_its_brackets():
    assert len(parse_system(reused_nested(MAX_DEPTH - 3)).regular_rules) == 2
    assert split_cut_reads(reused_nested(MAX_DEPTH - 3))


def test_reading_a_large_system_starts_no_collection():
    # 20,000 rules make tens of thousands of objects the collector
    # tracks, in no reference cycle: a collection could free nothing.
    n = 20_000
    text = "".join(f"c{i} <- c{(i + 1) % n}.\n" for i in range(n)) + "co c0.\n"
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        sys_ = parse_system(text)
    finally:
        gc.callbacks.remove(record)
    assert len(sys_.regular_rules) == n
    assert starts == []
    assert gc.isenabled()
