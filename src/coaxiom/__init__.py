"""Inference systems with coaxioms.

The engine computes the bounded fixed point of a finite inference
system: phase 1 takes the inductive interpretation of the system
extended with its co rules, phase 2 keeps the greatest subset of that
bound consistent with the regular rules.  On top of it sit proof-tree
construction and validation, proof techniques (bounded coinduction,
level witnesses), a small concrete syntax, and generators that
instantiate well-known specifications — graph visits, distances,
predicates on cyclic lists, digit-stream addition, first sets,
call-by-value evaluation — into finite systems.
"""

from .terms import (Term, Sym, Num, Inf, FinSet, INF, sym, num, finset,
                    term_key, render_term)
from .engine import (Rule, System, Interpretation, EngineError,
                     BudgetExceeded, NotPreFixed, DEFAULT_BUDGET,
                     INDUCTIVE, COINDUCTIVE, BOUND, GENERATED,
                     rule_key, step, ind, coind, bound, kernel,
                     generated, analyse, sort_judgments)
from .dsl import (ParseError, parse_system, parse_judgment, parse_judgments,
                  render_system, render_rule)
from .proofs import (RuleRef, WfProof, RegularProof, Violation,
                     ValidationReport, WF_EXTENDED, APPROX,
                     REGULAR_GENERATED, prove_wf, prove_approx,
                     prove_regular, validate, proof_to_dict,
                     proof_from_dict)
from .checks import (Verdict, NotInBound, DropsAtLevel, SurvivesTo,
                     is_closed, is_consistent, bounded_coinduction,
                     level_witness)

__version__ = "0.1.0"

__all__ = [
    "Term", "Sym", "Num", "Inf", "FinSet", "INF", "sym", "num", "finset",
    "term_key", "render_term",
    "Rule", "System", "Interpretation", "EngineError", "BudgetExceeded",
    "NotPreFixed", "DEFAULT_BUDGET", "INDUCTIVE", "COINDUCTIVE", "BOUND",
    "GENERATED", "rule_key", "step", "ind", "coind", "bound", "kernel",
    "generated", "analyse", "sort_judgments",
    "ParseError", "parse_system", "parse_judgment", "parse_judgments",
    "render_system", "render_rule",
    "RuleRef", "WfProof", "RegularProof", "Violation", "ValidationReport",
    "WF_EXTENDED", "APPROX", "REGULAR_GENERATED",
    "prove_wf", "prove_approx", "prove_regular", "validate",
    "proof_to_dict", "proof_from_dict",
    "Verdict", "NotInBound", "DropsAtLevel", "SurvivesTo", "is_closed",
    "is_consistent", "bounded_coinduction", "level_witness",
    "__version__",
]
