"""Shared plumbing for the system generators.

Every generator instantiates a meta-rule family over a finite universe,
and most of those families are exponential in some input measure.  Each
generator therefore *counts before it builds*: the number of rule
instances, or an upper bound on it, is computed arithmetically and
checked against a cap, so a hopeless instantiation fails fast instead
of eating memory.  A cap can thus refuse an instantiation whose
grounding would stay under it.

This module also holds the constants and exceptions that the CLI needs
before it runs a generator, so that loading it loads no generator.
"""

from __future__ import annotations

import itertools
from typing import Sequence

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
]

DEFAULT_CAP = 1_000_000
DEFAULT_CLOSURE_BUDGET = 10_000

LIST_PREDICATES = ("member", "allPos", "elems", "maxElem", "path0")

# Carry values a digit-stream sum is allowed to thread, unless overridden.
DEFAULT_CARRIES = (-1, 0, 1, 2)


class GenError(Exception):
    """Base class for generator failures."""


class InstantiationTooLarge(GenError):
    """The counted rules (exact or an upper bound) exceed the cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"instantiation needs {needed} rules, cap is {cap}")
        self.needed = needed
        self.cap = cap


class ClosureBudgetExceeded(GenError):
    """An evaluation closure kept growing past its budget."""

    def __init__(self, budget: int):
        super().__init__(f"evaluation closure exceeds {budget} expressions; "
                         f"the call structure is not regular at this budget")
        self.budget = budget


class MalformedEquations(GenError):
    """The equation system violates the shape a generator needs."""


def guard_cap(needed: int, cap: int) -> None:
    if needed > cap:
        raise InstantiationTooLarge(needed, cap)


def _powerset(items: Sequence) -> list[tuple]:
    """Every subset of items: by size, then in itertools.combinations order."""
    return [c for k in range(len(items) + 1)
            for c in itertools.combinations(items, k)]
