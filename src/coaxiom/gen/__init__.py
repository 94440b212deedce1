"""Generators that ground the worked inference systems over finite universes.

Each ``gen_*`` function reads a small input description (graph,
grammar, equation system, or lambda term) and emits a finite System
whose bounded fixed point is the intended semantics of the
corresponding predicate.  The generators pre-count their output
against a cap and refuse oversized instantiations instead of
thrashing.
"""

from .common import (DEFAULT_CAP, DEFAULT_CLOSURE_BUDGET,
                     ClosureBudgetExceeded, GenError, InstantiationTooLarge,
                     MalformedEquations, guard_cap)
from .graphs import gen_dist, gen_minpath, gen_visit, simple_paths_to
from .grammars import encode_string, gen_first, nullable_nonterminals
from .inputs import (App, ConsBind, Edge, EquationSystem, Grammar, Graph, Lam,
                     LambdaTerm, NilBind, TreeBind, Var, parse_equations,
                     parse_grammar, parse_graph, parse_lambda, render_lambda)
from .lambdas import encode_lambda, gen_lambda, value_closure
from .lists import DEFAULT_CARRIES, LIST_PREDICATES, gen_add, gen_listpred

__all__ = [
    "DEFAULT_CAP",
    "DEFAULT_CLOSURE_BUDGET",
    "DEFAULT_CARRIES",
    "LIST_PREDICATES",
    "GenError",
    "InstantiationTooLarge",
    "ClosureBudgetExceeded",
    "MalformedEquations",
    "guard_cap",
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
    "gen_visit",
    "gen_dist",
    "gen_minpath",
    "simple_paths_to",
    "gen_first",
    "encode_string",
    "nullable_nonterminals",
    "gen_listpred",
    "gen_add",
    "gen_lambda",
    "encode_lambda",
    "value_closure",
]
