"""Parsers for the generator input formats."""

from __future__ import annotations

import copy
import gc
import pickle
import time

import pytest

from coaxiom import (BudgetExceeded, NotPreFixed, ParseError, Rule, System, cli,
                     generated, kernel, num, parse_system, sym)
from coaxiom.gen import (App, ConsBind, InstantiationTooLarge, Lam,
                         MalformedEquations, NilBind, TreeBind, Var, gen_visit,
                         parse_equations, parse_grammar, parse_graph,
                         parse_lambda, render_lambda)


# ---------------------------------------------------------------------------
# graphs

def test_graph_nodes_edges_and_weights():
    g = parse_graph("""
        node a   node b
        edge a b 3
        edge b a
    """)
    assert g.nodes == ("a", "b")
    assert [(e.src, e.dst, e.weight) for e in g.edges] == \
        [("a", "b", 3), ("b", "a", None)]
    assert g.weighted


def test_graph_successors_are_sorted_by_destination():
    g = parse_graph("node a node c node b edge a c edge a b")
    assert [e.dst for e in g.successors("a")] == ["b", "c"]
    assert g.successors("b") == ()


def test_graph_rejects_undeclared_endpoint():
    with pytest.raises(ParseError):
        parse_graph("node a edge a z")


def test_graph_rejects_duplicates_and_negative_weights():
    with pytest.raises(ParseError):
        parse_graph("node a node a")
    with pytest.raises(ParseError):
        parse_graph("node a node b edge a b edge a b")
    with pytest.raises(ParseError):
        parse_graph("node a node b edge a b -1")


# ---------------------------------------------------------------------------
# grammars

def test_grammar_alternatives_and_empty_body():
    g = parse_grammar("S -> A S | b ; A -> a | ;")
    assert g.nonterminals == ("S", "A")
    assert g.terminals == ("a", "b")
    assert g.bodies("S") == (("A", "S"), ("b",))
    assert g.bodies("A") == (("a",), ())


def test_grammar_rejects_undefined_nonterminal():
    with pytest.raises(ParseError):
        parse_grammar("S -> A ;")


def test_grammar_rejects_reserved_terminals():
    with pytest.raises(ParseError):
        parse_grammar("S -> eps ;")


def test_grammar_rejects_case_colliding_nonterminals():
    with pytest.raises(ParseError):
        parse_grammar("Sx -> a ; SX -> b ;")


# ---------------------------------------------------------------------------
# equation systems

def test_equations_normalise_chains_to_binary_conses():
    eqs = parse_equations("l = 1 : 2 : l;")
    b = eqs.binding("l")
    assert isinstance(b, ConsBind) and b.head == num(1)
    rest = eqs.binding(b.tail)
    assert isinstance(rest, ConsBind) and rest.head == num(2)
    assert rest.tail == "l"


def test_equations_nil_and_tree_bindings():
    eqs = parse_equations("""
        l = tree(1, k) : l;
        k = nil;
        t = tree(0, l);
    """)
    assert isinstance(eqs.binding("k"), NilBind)
    t = eqs.binding("t")
    assert isinstance(t, TreeBind) and (t.label, t.kids) == (0, "l")


def test_equations_reject_unbound_variables():
    with pytest.raises(MalformedEquations):
        parse_equations("l = 1 : m;")


def test_equations_reject_bare_variable_rhs():
    with pytest.raises(ParseError):
        parse_equations("l = m;")


def test_equations_reject_tree_with_unbound_children():
    with pytest.raises(MalformedEquations):
        parse_equations("t = tree(0, zz);")


@pytest.mark.parametrize("text, error, message", [
    ("l = tree(0, m) : l;", MalformedEquations,
     "tree children of an element of l must be a bound list: m"),
    ("l = x : l;\nx = nil;", MalformedEquations,
     "element x of l must be a tree variable"),
    ("nil = 1 : l;\nl = nil;", ParseError, "1:1: expected variable, found nil"),
    ("l = 1;", ParseError,
     "1:1: expected cons chain or nil or tree(...), found a bare value"),
])
def test_equations_name_what_is_wrong(text, error, message):
    with pytest.raises(error) as exc:
        parse_equations(text)
    assert str(exc.value) == message


def test_binding_unknown_variable_raises():
    eqs = parse_equations("l = 1 : l;")
    with pytest.raises(MalformedEquations):
        eqs.binding("nope")


def test_equations_fresh_names_skip_bound_ones():
    eqs = parse_equations("l = 1 : 2 : 3 : 4 : l; l_2 = nil; m = 5 : 6 : l_2;")
    assert [name for name, _ in eqs.bindings] == \
        ["l", "l_1", "l_3", "l_4", "l_2", "m", "m_1"]
    assert eqs.binding("l_4").tail == "l" and eqs.binding("m_1").tail == "l_2"


# ---------------------------------------------------------------------------
# lambda terms

def test_lambda_application_is_left_associative():
    e = parse_lambda(r"\x. x x x")
    assert isinstance(e, Lam)
    body = e.body
    assert isinstance(body, App) and isinstance(body.fn, App)
    assert render_lambda(e) == r"\x0. x0 x0 x0"


def test_lambda_trailing_abstraction_extends_right():
    e = parse_lambda(r"\x. \y. x y")
    assert isinstance(e.body, Lam)
    inner = e.body.body
    assert isinstance(inner, App)
    assert inner.fn is Var(1) and inner.arg is Var(0)


def test_lambda_variables_refer_to_the_innermost_binder():
    assert parse_lambda(r"\x. \x. x") is Lam(Lam(Var(0)))
    assert parse_lambda(r"\x. \y. (\x. x) x") is \
        Lam(Lam(App(Lam(Var(0)), Var(1))))


def test_lambda_parens_override_grouping():
    grouped = parse_lambda(r"\y. (\x. x) y").body
    assert isinstance(grouped, App) and isinstance(grouped.fn, Lam)


def test_lambda_render_parse_round_trip():
    for src in (r"\x. x", r"(\x. x x) (\x. x x)", r"\f. \x. f (f x)"):
        e = parse_lambda(src)
        assert parse_lambda(render_lambda(e)) is e
        assert pickle.loads(pickle.dumps(e)) is e and copy.deepcopy(e) is e


def test_lambda_terms_show_their_fields():
    assert repr(parse_lambda(r"\x. x x")) == \
        "Lam(body=App(fn=Var(index=0), arg=Var(index=0)))"


def test_lambda_rejects_garbage():
    with pytest.raises(ParseError):
        parse_lambda(r"\x.")
    with pytest.raises(ParseError):
        parse_lambda("")
    with pytest.raises(ParseError):
        parse_lambda(r"\x. x) y")


def _chain(n):
    return "".join(f"c{i} <- c{i + 1}.\n" for i in range(n)) + f"co c{n}.\n"


def _cli(tmp_path, text, *argv):
    path = tmp_path / "rules.coax"
    path.write_text(text)
    return cli.main([argv[0], str(path), *argv[1:]])


# Every public call that pauses the collector, returning and raising:
# (call, the exception it raises or the status it returns).
PAUSED_CALLS = {
    "parse_lambda": (lambda tmp: parse_lambda("\\x. x"), None),
    "parse_lambda-ParseError": (lambda tmp: parse_lambda("\\x. y"), ParseError),
    "parse_system": (lambda tmp: parse_system("a. b <- a."), None),
    "parse_system-ParseError": (lambda tmp: parse_system("a <-"), ParseError),
    "gen_visit": (lambda tmp: gen_visit(parse_graph("node a edge a a")), None),
    "gen_visit-InstantiationTooLarge": (
        lambda tmp: gen_visit(parse_graph("node a edge a a"), cap=1),
        InstantiationTooLarge),
    "generated": (lambda tmp: generated(parse_system(_chain(3))), None),
    "generated-BudgetExceeded": (
        lambda tmp: generated(parse_system(_chain(3)), budget=2), BudgetExceeded),
    "kernel": (lambda tmp: kernel(System([Rule(sym("a"))]), [sym("a")]), None),
    "kernel-NotPreFixed": (lambda tmp: kernel(System([Rule(sym("a"))]), []),
                           NotPreFixed),
    "cli.main": (lambda tmp: _cli(tmp, _chain(3), "generated"), 0),
    "cli.main-exit-2": (lambda tmp: _cli(tmp, "a <-", "generated"), 2),
    "cli.main-exit-3": (lambda tmp: _cli(tmp, _chain(3), "generated", "--max-iters", "2"), 3),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("name", PAUSED_CALLS)
def test_paused_calls_leave_the_collector_as_it_was(name, enabled, tmp_path,
                                                   capsys, monkeypatch):
    call, outcome = PAUSED_CALLS[name]
    (gc.enable if enabled else gc.disable)()
    pauses = []
    monkeypatch.setattr(gc, "disable", lambda _fn=gc.disable: pauses.append(1) or _fn())
    try:
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                call(tmp_path)
        else:
            result = call(tmp_path)
            assert outcome is None or result == outcome
        assert pauses
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_lambda_tokenizing_is_linear():
    # About 400 KB and 200k tokens: a tokenizer that copies the rest of
    # the text for every token needs tens of seconds here.
    text = "\\x. " + "x " * 200_000
    t0 = time.perf_counter()
    e = parse_lambda(text)
    assert time.perf_counter() - t0 < 2.0
    assert isinstance(e, Lam) and isinstance(e.body, App)


# ---------------------------------------------------------------------------
# error positions: (language, text, line, column, expected, found)

PARSERS = {"graph": parse_graph, "grammar": parse_grammar,
           "equations": parse_equations, "lambda": parse_lambda}

INPUT_ERRORS = [
    ("graph", "node a; node b", 1, 7, ("token",), "';'"),
    ("graph", "node A", 1, 6, ("node identifier",), "A"),
    ("graph", "node a node b edge a b -", 1, 24, ("token",), "'-'"),
    ("graph", "node a < node b", 1, 8, ("token",), "'<'"),
    ("graph", "node a edge a", 1, 14, ("node identifier",), "end of input"),
    ("graph", "node a edge a % x", 1, 15, ("node identifier",), "end of input"),
    ("graph", "node a node b edge a 1 b", 1, 22, ("node identifier",), "1"),
    ("graph", "node a 3", 1, 8, ("node", "edge"), "3"),
    ("graph", "node a edge a z", 1, 15, ("declared node",), "z"),
    ("graph", "node a node b edge a b -1", 1, 24, ("natural weight",), "-1"),
    ("grammar", "S -> a # ;", 1, 8, ("token",), "'#'"),
    ("grammar", "s -> a ;", 1, 1, ("nonterminal",), "s"),
    ("grammar", "S - a ;", 1, 3, ("token",), "'-'"),
    ("grammar", "S <- a ;", 1, 3, ("token",), "'<'"),
    ("grammar", "S -> a", 1, 7, ("symbol", "|", ";"), "end of input"),
    ("grammar", "S -> a  T -> b ;", 1, 11, ("symbol", "|", ";"), "->"),
    ("grammar", "S a ;", 1, 3, ("->",), "a"),
    ("grammar", "S -> a % end", 1, 8, ("symbol", "|", ";"), "end of input"),
    ("grammar", "S -> Bad_ ;", 1, 6, ("nonterminal with productions",), "Bad_"),
    ("equations", "l = 1 # l;", 1, 7, ("token",), "'#'"),
    ("equations", "L = nil;", 1, 1, ("variable",), "L"),
    ("equations", "l = - : l;", 1, 5, ("token",), "'-'"),
    ("equations", "l = 1 <- l;", 1, 7, ("token",), "'<'"),
    ("equations", "l = 1 :", 1, 8, ("integer", "variable", "nil", "tree("),
     "end of input"),
    ("equations", "l = 1 : l", 1, 10, (";",), "end of input"),
    ("equations", "t = tree(0, l ;", 1, 15, (")",), ";"),
    ("equations", "t = tree(x, l);", 1, 10, ("INT",), "x"),
    ("equations", "t = tree(0, L);", 1, 13, ("variable",), "L"),
    ("equations", "l = 1 : tree;", 1, 13, ("(",), ";"),
    ("equations", "l = 1 : % c", 1, 9, ("integer", "variable", "nil", "tree("),
     "end of input"),
    ("lambda", "\\x. x # y", 1, 7, ("token",), "'#'"),
    ("lambda", "\\x. x -", 1, 7, ("token",), "'-'"),
    ("lambda", "\\x. x < y", 1, 7, ("token",), "'<'"),
    ("lambda", "\\x.", 1, 4, ("variable", "(", "\\"), "end of input"),
    ("lambda", "\\x x", 1, 4, (".",), "x"),
    ("lambda", "(\\x. x x", 1, 9, (")",), "end of input"),
    ("lambda", "\\x. x) y", 1, 6, ("end of input",), ")"),
    ("lambda", "\\1. x", 1, 2, ("variable",), "1"),
    ("lambda", "\\x. % c", 1, 5, ("variable", "(", "\\"), "end of input"),
    # Reserved and colliding names.  New rows go last: pytest numbers the
    # ids of the rows.
    ("graph", "node a\n  node inf", 2, 8, ("unreserved node name",), "inf"),
    ("graph", "node inf edge inf inf", 1, 6, ("unreserved node name",), "inf"),
    ("grammar", "Sx -> a ; SX -> b ;", 1, 11, ("case-distinct nonterminals",), "SX"),
    ("grammar", "Ab -> a ;\nS -> Ab ;\n  AB -> b ;\nAB -> c ;", 3, 3,
     ("case-distinct nonterminals",), "AB"),
    ("grammar", "Sx -> a | SX ;\nSX -> b ;\nSx -> c ;", 2, 1,
     ("case-distinct nonterminals",), "SX"),
    ("lambda", "(\\y. y)\n  \\x. x y", 2, 9, ("bound variable",), "y"),
    ("equations", "l = nil;\nk = nil;\n  l = 1 : k;", 1, 1, ("fresh variable",), "l"),
]


@pytest.mark.parametrize("lang, text, line, column, expected, found", INPUT_ERRORS)
def test_error_positions(lang, text, line, column, expected, found):
    with pytest.raises(ParseError) as exc:
        PARSERS[lang](text)
    e = exc.value
    assert (e.line, e.column, e.expected, e.found) == (line, column, expected, found)
