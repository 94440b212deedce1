"""List/stream generators: membership, positivity, element sets, maxima,
infinite-tree paths, and digit-stream addition.

The cyclic one-list ``l = 1 : l`` is the canonical regular list; the
expected judgment sets on it are small enough to fix by hand.
"""

from __future__ import annotations

import time

import pytest

from coaxiom import generated, ind, num, parse_judgment, sym
from coaxiom.gen import (MalformedEquations, gen_add, gen_listpred,
                         parse_equations)

J = parse_judgment

ONES = parse_equations("l = 1 : l;")


def listpred(eqs, pred, root, x=None):
    return generated(gen_listpred(eqs, pred, root, x=x)).judgments


# ---------------------------------------------------------------------------
# the four predicates on l = 1 : l

def test_member_one_is_true_on_ones():
    assert listpred(ONES, "member", "l", x=num(1)) == {J("member(1,l,true)")}


def test_member_two_is_false_on_ones():
    assert listpred(ONES, "member", "l", x=num(2)) == {J("member(2,l,false)")}


def test_allpos_true_on_ones():
    assert listpred(ONES, "allPos", "l") == {J("allPos(l,true)")}


def test_elems_on_ones():
    assert listpred(ONES, "elems", "l") == {J("elems(l,{1})")}


def test_maxelem_on_ones():
    assert listpred(ONES, "maxElem", "l") == {J("maxElem(l,1)")}


# ---------------------------------------------------------------------------
# finite and mixed lists

FINITE = parse_equations("l = 1 : 2 : k; k = nil;")


def test_finite_list_is_purely_inductive():
    def about_l(js, pred):
        subject = (lambda j: j.args[1]) if pred == "member" else \
            (lambda j: j.args[0])
        return {j for j in js if subject(j) == sym("l")}

    for pred, x, expected in (
        ("member", num(2), "member(2,l,true)"),
        ("member", num(3), "member(3,l,false)"),
        ("allPos", None, "allPos(l,true)"),
        ("elems", None, "elems(l,{1,2})"),
        ("maxElem", None, "maxElem(l,2)"),
    ):
        sys_ = gen_listpred(FINITE, pred, "l", x=x)
        full = generated(sys_).judgments
        assert J(expected) in full, (pred, expected)
        # On a nil-terminated list the coaxioms add nothing.
        assert about_l(full, pred) == about_l(ind(sys_).judgments, pred)


def test_allpos_false_on_cycle_with_negative_element():
    eqs = parse_equations("l = 1 : m; m = -2 : l;")
    assert listpred(eqs, "allPos", "l") == {J("allPos(l,false)"),
                                            J("allPos(m,false)")}


def test_member_found_beats_the_false_coaxiom():
    eqs = parse_equations("l = 1 : m; m = 2 : l;")
    got = listpred(eqs, "member", "l", x=num(2))
    assert got == {J("member(2,l,true)"), J("member(2,m,true)")}


def test_elems_collects_along_the_cycle():
    eqs = parse_equations("l = 1 : m; m = 2 : l;")
    got = listpred(eqs, "elems", "l")
    assert J("elems(l,{1,2})") in got
    assert J("elems(m,{1,2})") in got


# ---------------------------------------------------------------------------
# argument discipline

def test_member_requires_an_element():
    with pytest.raises(ValueError):
        gen_listpred(ONES, "member", "l")


def test_other_predicates_reject_an_element():
    with pytest.raises(ValueError):
        gen_listpred(ONES, "allPos", "l", x=num(1))


def test_unknown_predicate():
    with pytest.raises(ValueError):
        gen_listpred(ONES, "area51", "l")


def test_numeric_predicates_demand_numeric_heads():
    trees = parse_equations("l = tree(1, k) : l; k = nil;")
    with pytest.raises(MalformedEquations):
        gen_listpred(trees, "allPos", "l")


# ---------------------------------------------------------------------------
# path0 over infinite trees

T1T2 = parse_equations("""
    t1 = tree(0, l1);
    l1 = t2 : t1 : l1;
    t2 = tree(0, l2);
    l2 = tree(1, l1) : l2;
""")


def test_path0_holds_along_the_all_zero_branch():
    got = listpred(T1T2, "path0", "t1")
    assert J("path0(t1)") in got
    # t1 sits on its own child list, witnessing the infinite 0-branch.
    assert J("is_in(t1,l1)") in got


def test_path0_fails_when_every_child_is_positive():
    # t2 is labelled zero, but all of its children carry label one.
    got = listpred(T1T2, "path0", "t1")
    assert J("path0(t2)") not in got
    assert J("path0(tree(1,l1))") not in got


def test_path0_rejects_number_lists():
    with pytest.raises(MalformedEquations):
        gen_listpred(ONES, "path0", "l")


def test_path0_root_must_be_a_tree():
    lists_only = parse_equations("l = tree(0, k) : l; k = nil;")
    with pytest.raises(MalformedEquations):
        gen_listpred(lists_only, "path0", "l")


# ---------------------------------------------------------------------------
# digit-stream addition

STREAMS = parse_equations("z = 0 : z; n = 9 : n;")


def test_add_zeros_and_zeros_makes_nines_with_borrow():
    got = generated(gen_add(STREAMS, "z", "z", "n")).judgments
    assert J("add(z,z,n,-1)") in got


def test_add_nines_and_nines_makes_zeros_with_carry_two():
    got = generated(gen_add(STREAMS, "n", "n", "z")).judgments
    assert J("add(n,n,z,2)") in got


def test_add_rejects_leading_carry_one_for_all_zeros():
    got = generated(gen_add(STREAMS, "z", "z", "z")).judgments
    assert J("add(z,z,z,0)") in got
    assert J("add(z,z,z,1)") not in got


def test_add_widened_carries_still_truncate_the_carry_tower():
    # Admitting carries up to ten changes nothing for the all-zero
    # sum: a leading carry of one would need a premise carry of ten,
    # which in turn needs a hundred, so every finite carry alphabet
    # prunes the whole tower.
    wide = gen_add(STREAMS, "z", "z", "z", carries=range(-10, 11))
    got = generated(wide).judgments
    assert got == {J("add(z,z,z,0)")}


def test_add_requires_infinite_digit_streams():
    finite = parse_equations("z = 0 : k; k = nil;")
    with pytest.raises(MalformedEquations):
        gen_add(finite, "z", "z", "z")
    trees = parse_equations("z = tree(0, k) : z; k = nil;")
    with pytest.raises(MalformedEquations):
        gen_add(trees, "z", "z", "z")
    big = parse_equations("z = 12 : z;")
    with pytest.raises(MalformedEquations):
        gen_add(big, "z", "z", "z")


# ---------------------------------------------------------------------------
# scale

def test_equations_are_linear_in_their_variables():
    # x0 = 0 : x1; ... x19999 = 9 : x20000; x20000 = nil;  A duplicate
    # check or a binding lookup that scans every variable needs well
    # over 10 s here.
    n = 20_000
    text = "".join(f"x{i} = {i % 10} : x{i + 1};\n" for i in range(n)) + f"x{n} = nil;\n"
    t0 = time.perf_counter()
    eqs = parse_equations(text)
    rules = gen_listpred(eqs, "member", "x0", x=num(7), cap=10**6).regular_rules
    elapsed = time.perf_counter() - t0
    assert eqs.has(f"x{n}") and not eqs.has(f"x{n + 1}")
    assert len(rules) == 2 * n - n // 10 + 1
    assert elapsed < 5.0, f"{elapsed:.2f} s"
