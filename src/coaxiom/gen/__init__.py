"""Generators that ground the worked inference systems over finite universes.

Each ``gen_*`` function reads a small input description (graph,
grammar, equation system, or lambda term) and emits a finite System
whose bounded fixed point is the intended semantics of the
corresponding predicate.  Each states its rules as a site table that
:func:`.common._ground` counts against a cap before it builds a rule,
so an oversized instantiation is refused instead of thrashing.

The constants and exceptions of :mod:`.common` load with the package.
Every other name loads its submodule on first use (PEP 562), so that a
program that never runs a generator never loads one.
"""

import importlib

from . import common
from .common import *  # noqa: F401,F403

# The submodule that defines each name loaded on first use.
_LAZY = {name: module for module, names in (
    ("graphs", ("gen_visit", "gen_dist", "gen_minpath", "simple_paths_to")),
    ("grammars", ("gen_first", "encode_string", "nullable_nonterminals")),
    ("inputs", ("Edge", "Graph", "Grammar", "NilBind", "ConsBind", "TreeBind",
                "EquationSystem", "Var", "Lam", "App", "LambdaTerm",
                "parse_graph", "parse_grammar", "parse_equations",
                "parse_lambda", "render_lambda")),
    ("lists", ("gen_listpred", "gen_add")),
    ("lambdas", ("gen_lambda", "encode_lambda", "value_closure")),
) for name in names}

__all__ = [*common.__all__, *_LAZY]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
