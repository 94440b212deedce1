"""Term construction, canonical ordering, and rendering."""

from __future__ import annotations

from collections import Counter

import pytest

import coaxiom.terms
from coaxiom import (FinSet, INF, Inf, Num, Sym, finset, num, parse_judgment,
                     render_term, sym, term_key)


def test_finset_sorts_and_deduplicates():
    assert finset(num(2), num(1), num(2)) == finset(num(1), num(2))
    assert finset(num(3), num(1)).elements == (num(1), num(3))


def test_nullary_symbol_is_bare():
    assert render_term(sym("a")) == "a"
    assert sym("a") == Sym("a", ())


def test_kind_order_num_inf_sym_set():
    ordered = sorted([finset(), sym("a"), INF, num(5)], key=term_key)
    assert ordered == [num(5), INF, sym("a"), finset()]


def test_numbers_order_by_value_below_inf():
    assert term_key(num(-7)) < term_key(num(0)) < term_key(num(3))
    assert term_key(num(10**9)) < term_key(INF)


def test_symbols_order_by_name_then_arity_then_args():
    a, b = sym("a"), sym("b")
    assert term_key(a) < term_key(b)
    assert term_key(sym("f", a)) < term_key(sym("f", a, a))
    assert term_key(sym("f", a)) < term_key(sym("f", b))


def test_sets_order_by_elements():
    assert term_key(finset()) < term_key(finset(num(1)))
    assert term_key(finset(num(1))) < term_key(finset(num(1), num(2)))
    assert term_key(finset(num(1))) < term_key(finset(num(2)))


def test_render_nested_term():
    t = sym("dist", sym("a"), sym("e"), INF)
    assert render_term(t) == "dist(a,e,inf)"
    s = sym("visit", sym("a"), finset(sym("a"), sym("b")))
    assert render_term(s) == "visit(a,{a,b})"


def test_render_negative_number():
    assert render_term(sym("add", num(-1))) == "add(-1)"


def test_render_empty_set():
    assert render_term(finset()) == "{}"


def test_render_parse_round_trip_on_samples():
    samples = [
        sym("p"),
        num(42),
        num(-3),
        INF,
        finset(),
        finset(num(1), sym("a"), INF),
        sym("f", sym("g", sym("x")), finset(sym("y"))),
        sym("minPath", sym("a"), sym("e"), sym("p", sym("a"), sym("e")), num(5)),
    ]
    for t in samples:
        assert parse_judgment(render_term(t)) == t


def test_terms_are_hashable_and_comparable_as_values():
    assert len({sym("a"), Sym("a"), num(1), Num(1)}) == 2
    assert sym("f", num(1)) == sym("f", num(1))
    assert sym("f", num(1)) != sym("f", num(2))


def test_equal_terms_are_the_same_object():
    assert sym("f", num(1), finset(sym("a"))) is sym("f", num(1), finset(sym("a")))
    assert finset(num(2), num(1), num(2)) is finset(num(1), num(2))
    assert Sym("a") is sym("a") and FinSet(()) is finset()
    assert Inf() is INF


def test_num_interns_by_int_value():
    assert Num(True) is Num(1) and type(Num(True).value) is int
    assert Num(False) is num(0)
    assert render_term(sym("f", Num(True))) == "f(1)"


def test_terms_are_immutable():
    t = sym("f", num(1))
    with pytest.raises(AttributeError):
        t.name = "g"
    with pytest.raises(AttributeError):
        del num(1).value


def test_repr_names_the_fields():
    assert repr(sym("f", num(1))) == "Sym(name='f', args=(Num(value=1),))"
    assert repr(finset(INF)) == "FinSet(elements=(Inf(),))"


def test_repr_keeps_its_format_at_any_depth():
    cases = {
        sym("a"): "Sym(name='a', args=())",
        num(-2): "Num(value=-2)",
        finset(): "FinSet(elements=())",
        sym("f", num(-1), INF): "Sym(name='f', args=(Num(value=-1), Inf()))",
        finset(sym("a"), num(1), sym("a")):
            "FinSet(elements=(Num(value=1), Sym(name='a', args=())))",
        sym("g'", finset(finset()), sym("h", sym("b"))):
            "Sym(name=\"g'\", args=(FinSet(elements=(FinSet(elements=()),)), "
            "Sym(name='h', args=(Sym(name='b', args=()),))))",
    }
    for t, shown in cases.items():
        assert repr(t) == shown
    t = sym("a")
    for _ in range(1500):
        t = sym("s", t)
    assert repr(t) == "Sym(name='s', args=(" * 1500 + "Sym(name='a', args=())" + ",))" * 1500


def test_a_set_sorts_its_elements_once(monkeypatch):
    elements = (num(7), sym("b"), sym("a"))
    s = FinSet(elements)
    calls = []
    monkeypatch.setattr(coaxiom.terms, "term_key",
                        lambda t: calls.append(t) or t._key)
    assert FinSet(elements) is s
    assert FinSet(s.elements) is s
    assert calls == []


def test_keys_are_flat_pre_orders():
    assert term_key(num(-3)) == (0, -3)
    assert term_key(INF) == (1,)
    assert term_key(sym("f", sym("a"), num(2))) == (2, "f", 2, 2, "a", 0, 0, 2)
    assert term_key(finset(num(1), finset())) == (3, 0, 1, 3, -1, -1)


def test_deep_terms_key_and_render_without_recursion():
    t = sym("a")
    for _ in range(1500):
        t = sym("f", t)
    assert render_term(t) == "f(" * 1500 + "a" + ")" * 1500
    assert len(term_key(t)) == 3 * 1501
    assert parse_judgment(render_term(t)) is t


def test_non_terms_are_rejected():
    with pytest.raises(TypeError):
        term_key("a")
    with pytest.raises(TypeError):
        render_term(("a",))


def _ladder_dag(k: int):
    """Nodes ``(name, children)``: x_i has children y_i and z_i, which
    both have the one x_(i-1), so x_(i-1) is shared at one depth; the
    root holds x_k and x_(k-2) again at other depths as well."""
    x = ("x0", ())
    xs = [x]
    for i in range(1, k + 1):
        x = (f"x{i}", ((f"y{i}", (x,)), (f"z{i}", (x,))))
        xs.append(x)
    other = ("w", (xs[k], xs[k - 2]))
    return ("r", (xs[k], other, xs[k - 2], other, xs[k]))


def _node(value, depth):
    name, children = value
    text = "  " * depth + name
    if not children:
        return text
    return text + "[", (("\n", c) for c in children), "]"


def _naive(value, depth=0):
    name, children = value
    text = "  " * depth + name
    if not children:
        return text
    return text + "[" + "".join("\n" + _naive(c, depth + 1) for c in children) + "]"


@pytest.mark.parametrize("bound", [0, 300, coaxiom.terms._JOIN_CHARS, 10 ** 12])
def test_the_writer_copies_repeats_whole_or_as_pieces(monkeypatch, bound):
    root = _ladder_dag(8)
    # The repeated subtrees run from under 300 characters to over it,
    # so a bound of 300 joins some repeats and copies others as pieces.
    occurrences, todo = [], [(root, 0)]
    while todo:
        value, depth = todo.pop()
        occurrences.append((value, depth))
        todo += [(c, depth + 1) for c in value[1]]
    counts = Counter((id(value), depth) for value, depth in occurrences)
    sizes = [len(_naive(value, depth)) for value, depth in occurrences
             if value[1] and counts[id(value), depth] > 1]
    assert min(sizes) <= 300 < max(sizes)
    monkeypatch.setattr(coaxiom.terms, "_JOIN_CHARS", bound)
    expected = _naive(root)
    assert coaxiom.terms._write(root, _node, "<", ">") == "<" + expected + ">"
    assert coaxiom.terms._write(root, _node) == expected
