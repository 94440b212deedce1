"""The value types of the core: frozen slotted records compared by field."""

from __future__ import annotations

import copy
import pickle

import pytest

from coaxiom import (INF, DropsAtLevel, Interpretation, NotInBound,
                     RegularProof, Rule, RuleRef, SurvivesTo, ValidationReport,
                     Verdict, Violation, finset, num, sym)
from coaxiom.gen.inputs import (ConsBind, Edge, EquationSystem, Grammar, Graph,
                                NilBind, TreeBind)

P = sym("p")
Q = sym("q", num(1))
S = finset(sym("a"), INF)

# (class, positional arguments, keyword arguments, every field after
# construction), the defaults being those the classes had as dataclasses.
BUILT = [
    (Rule, (P,), {}, {"conclusion": P, "premises": (), "co": False}),
    (Rule, (P, [Q]), {"co": True}, {"conclusion": P, "premises": (Q,), "co": True}),
    (Rule, (P, (Q, P, Q)), {}, {"conclusion": P, "premises": (P, Q), "co": False}),
    (Interpretation, (frozenset({P}), "bound"), {},
     {"judgments": frozenset({P}), "phase": "bound", "levels": {}, "layers": 0,
      "phase1": None}),
    (Interpretation, (frozenset(), "generated"),
     {"levels": {P: 1}, "layers": 1, "phase1": Interpretation(frozenset(), "bound")},
     {"judgments": frozenset(), "phase": "generated", "levels": {P: 1}, "layers": 1,
      "phase1": Interpretation(frozenset(), "bound")}),
    (RuleRef, (3,), {}, {"index": 3, "co": False}),
    (RuleRef, (), {"index": 0, "co": True}, {"index": 0, "co": True}),
    (RegularProof, (P,), {}, {"root": P, "choice": {}}),
    (RegularProof, (), {"root": P, "choice": {P: 0}}, {"root": P, "choice": {P: 0}}),
    (Violation, ((0, 1), Q, "not-in-bound"), {},
     {"path": (0, 1), "judgment": Q, "reason": "not-in-bound"}),
    (ValidationReport, ("wf",), {}, {"mode": "wf", "violations": ()}),
    (Verdict, (True,), {}, {"accepted": True, "failures": ()}),
    (Verdict, (), {"accepted": False, "failures": ((P, "not-consistent"),)},
     {"accepted": False, "failures": ((P, "not-consistent"),)}),
    (NotInBound, (), {}, {}),
    (DropsAtLevel, (2,), {}, {"level": 2}),
    (SurvivesTo, (3,), {}, {"level": 3, "at_fixpoint": False}),
    (SurvivesTo, (), {"level": 4, "at_fixpoint": True}, {"level": 4, "at_fixpoint": True}),
    # The input types of the generators.
    (Edge, ("a", "b"), {}, {"src": "a", "dst": "b", "weight": None}),
    (Edge, ("a", "b", 3), {}, {"src": "a", "dst": "b", "weight": 3}),
    (Graph, (("a", "b"), (Edge("a", "b"),)), {},
     {"nodes": ("a", "b"), "edges": (Edge("a", "b"),)}),
    (Grammar, (("a",), ("S",), (("S", (("a", "S"), ())),)), {},
     {"terminals": ("a",), "nonterminals": ("S",),
      "productions": (("S", (("a", "S"), ())),)}),
    (NilBind, (), {}, {}),
    (ConsBind, (Q, "l"), {}, {"head": Q, "tail": "l"}),
    (TreeBind, (0, "l"), {}, {"label": 0, "kids": "l"}),
    (EquationSystem, ((("l", ConsBind(Q, "l")), ("m", NilBind())),), {},
     {"bindings": (("l", ConsBind(Q, "l")), ("m", NilBind()))}),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(BUILT)]


@pytest.mark.parametrize("cls, args, kwargs, fields", BUILT, ids=IDS)
def test_construction_sets_the_fields_and_their_defaults(cls, args, kwargs, fields):
    value = cls(*args, **kwargs)
    assert {f: getattr(value, f) for f in fields} == fields


@pytest.mark.parametrize("cls, args, kwargs, fields", BUILT, ids=IDS)
def test_records_compare_and_hash_by_their_fields(cls, args, kwargs, fields):
    a, b = cls(*args, **kwargs), cls(**fields)
    assert a == b and not a != b
    assert a is not b
    if cls is RegularProof:  # its choice map is a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != tuple(fields.values())


@pytest.mark.parametrize("cls, args, kwargs, fields", BUILT, ids=IDS)
def test_records_are_frozen(cls, args, kwargs, fields):
    value = cls(*args, **kwargs)
    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert {f: getattr(value, f) for f in fields} == fields


@pytest.mark.parametrize("cls, args, kwargs, fields", BUILT, ids=IDS)
def test_records_copy_and_pickle_to_equal_records(cls, args, kwargs, fields):
    value = cls(*args, **kwargs)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


def test_a_deep_copy_copies_a_mutable_field():
    proof = RegularProof(P, {P: 0})
    twin = copy.deepcopy(proof)
    assert twin == proof and twin.choice is not proof.choice


def test_records_differ_from_tuples_and_from_sibling_classes():
    assert Rule(P, (Q,)) != (P, (Q,), False)
    assert (P, (Q,), False) != Rule(P, (Q,))
    assert DropsAtLevel(1) != SurvivesTo(1)
    assert NotInBound() != ()
    assert RuleRef(1) != RuleRef(1, True)
    assert Rule(P, (Q,)) != Rule(P, (Q,), True)


def test_an_equation_system_finds_the_first_binding_of_a_name():
    eqs = EquationSystem((("l", NilBind()), ("m", TreeBind(0, "l")), ("l", ConsBind(Q, "l"))))
    assert eqs.binding("l") == NilBind() and eqs.has("m") and not eqs.has("n")
    twin = pickle.loads(pickle.dumps(eqs))
    assert twin == eqs and twin.binding("m") == TreeBind(0, "l")


def test_interpretations_compare_levels_but_do_not_hash_them():
    a = Interpretation(frozenset({P}), "bound", {P: 1}, 1)
    b = Interpretation(frozenset({P}), "bound", {P: 2}, 1)
    assert a != b and hash(a) == hash(b)


def test_a_trace_is_rebuilt_on_each_read_and_not_compared():
    a = Interpretation(frozenset({P, Q}), "inductive", {P: 1, Q: 2}, 2)
    b = Interpretation(frozenset({P, Q}), "inductive", {P: 1, Q: 2}, 2)
    trace = (frozenset({P}), frozenset({P, Q}))
    assert a.trace == trace and a.trace == trace
    assert a == b and hash(a) == hash(b) and b.trace == trace
    assert not any("trace" in slot for slot in Interpretation.__slots__)
    assert pickle.loads(pickle.dumps(a)).trace == trace


# Recorded from the dataclass versions of these classes.
REPRS = [
    (Rule(P, (Q, P, Q)),
     "Rule(conclusion=Sym(name='p', args=()), premises=(Sym(name='p', args=()), "
     "Sym(name='q', args=(Num(value=1),))), co=False)"),
    (Rule(P, (), True), "Rule(conclusion=Sym(name='p', args=()), premises=(), co=True)"),
    (Interpretation(frozenset({P}), "bound", {P: 1}, 1),
     "Interpretation(judgments=frozenset({Sym(name='p', args=())}), phase='bound', "
     "layers=1, phase1=None)"),
    (Interpretation(frozenset(), "generated", {}, 0,
                    phase1=Interpretation(frozenset(), "bound")),
     "Interpretation(judgments=frozenset(), phase='generated', layers=0, "
     "phase1=Interpretation(judgments=frozenset(), phase='bound', layers=0, "
     "phase1=None))"),
    (RuleRef(3), "RuleRef(index=3, co=False)"),
    (RuleRef(0, True), "RuleRef(index=0, co=True)"),
    (RegularProof(P, {P: 0}),
     "RegularProof(root=Sym(name='p', args=()), choice={Sym(name='p', args=()): 0})"),
    (Violation((0, 1), Q, "not-in-bound"),
     "Violation(path=(0, 1), judgment=Sym(name='q', args=(Num(value=1),)), "
     "reason='not-in-bound')"),
    (ValidationReport("wf", (Violation((), P, "x"),)),
     "ValidationReport(mode='wf', violations=(Violation(path=(), "
     "judgment=Sym(name='p', args=()), reason='x'),))"),
    (ValidationReport("regular"), "ValidationReport(mode='regular', violations=())"),
    (Verdict(False, ((P, "not-in-bound"), (S, "not-consistent"))),
     "Verdict(accepted=False, failures=((Sym(name='p', args=()), 'not-in-bound'), "
     "(FinSet(elements=(Inf(), Sym(name='a', args=()))), 'not-consistent')))"),
    (Verdict(True), "Verdict(accepted=True, failures=())"),
    (NotInBound(), "NotInBound()"),
    (DropsAtLevel(2), "DropsAtLevel(level=2)"),
    (SurvivesTo(3), "SurvivesTo(level=3, at_fixpoint=False)"),
    (SurvivesTo(4, at_fixpoint=True), "SurvivesTo(level=4, at_fixpoint=True)"),
    (Graph(("a", "b"), (Edge("a", "b", 3), Edge("b", "a"))),
     "Graph(nodes=('a', 'b'), edges=(Edge(src='a', dst='b', weight=3), "
     "Edge(src='b', dst='a', weight=None)))"),
    (Grammar(("a", "b"), ("S", "A"), (("S", (("A", "S"), ("b",))), ("A", (("a",), ())))),
     "Grammar(terminals=('a', 'b'), nonterminals=('S', 'A'), productions=(('S', "
     "(('A', 'S'), ('b',))), ('A', (('a',), ()))))"),
    (EquationSystem((("l", ConsBind(num(1), "l_1")), ("l_1", ConsBind(P, "l")),
                     ("m", NilBind()), ("t", TreeBind(0, "l")))),
     "EquationSystem(bindings=(('l', ConsBind(head=Num(value=1), tail='l_1')), "
     "('l_1', ConsBind(head=Sym(name='p', args=()), tail='l')), ('m', NilBind()), "
     "('t', TreeBind(label=0, kids='l'))))"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[t.split("(")[0] + str(i)
                                                   for i, (_, t) in enumerate(REPRS)])
def test_records_show_as_their_dataclasses_did(value, text):
    assert repr(value) == text


def test_a_tuple_held_twice_at_one_depth_shows_twice():
    bodies = (("a",), ())
    grammar = Grammar(("a",), ("S", "A"), (("S", bodies), ("A", bodies)))
    assert grammar.productions[0][1] is grammar.productions[1][1]
    assert repr(grammar) == ("Grammar(terminals=('a',), nonterminals=('S', 'A'), "
                             "productions=(('S', (('a',), ())), ('A', (('a',), ()))))")
