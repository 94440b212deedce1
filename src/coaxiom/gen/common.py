"""Shared plumbing for the system generators.

Every generator states its meta-rule family as a *site table* and
grounds it with :func:`_ground`.  A site is ``(slots, conclude, fan)``:
each slot pairs a premise maker (value -> premises) with a universe of
values, and for each choice of one value per slot ``conclude(*values)``
gives the conclusions that choice grounds, at most ``fan`` and possibly
none, each with the premises the makers give.

Most families are exponential in some input measure, so ``_ground``
*counts before it builds*: ``len(coaxioms)`` plus, per site, ``fan``
times the product of its universe sizes is checked against a cap, and a
hopeless instantiation fails fast instead of eating memory.  Where a
choice can ground fewer than ``fan`` rules the count is an upper bound,
so a cap can refuse an instantiation whose grounding would stay under
it.  A :class:`_Universe` knows its size, a Python integer, before it
builds a value.

This module also holds the constants and exceptions that the CLI needs
before it runs a generator, so that loading it loads no generator.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

from ..engine import Rule, System
from ..terms import FinSet, Term, _paused, sym

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


class _Universe:
    """A slot's values, whose number is known before any is built."""

    __slots__ = ("size", "_build", "_values")

    def __init__(self, size: int, build: Callable[[], list]) -> None:
        self.size, self._build, self._values = size, build, None

    def __iter__(self):
        if self._values is None:
            self._values = self._build()
        return iter(self._values)


def _subsets(items: Sequence[Term]) -> _Universe:
    """Every subset of items as a set term: by size, then in
    itertools.combinations order."""
    return _Universe(2 ** len(items), lambda: [
        FinSet(c) for k in range(len(items) + 1)
        for c in itertools.combinations(items, k)])


def _premise(name: str, *args: Term) -> Callable[[Term], tuple[Term]]:
    """The maker of the one premise name(*args, value)."""
    return lambda v: (sym(name, *args, v),)


def _axiom(t: Term) -> tuple:
    """A site with no slots that concludes t."""
    return (), lambda: (t,), 1


@_paused
def _ground(sites: Sequence[tuple], coaxioms: Sequence[Term], cap: int) -> System:
    """Check the count of the site table against the cap, then ground
    each site in turn and the coaxioms last."""
    guard_cap(len(coaxioms) + sum(
        fan * math.prod(u.size if isinstance(u, _Universe) else len(u)
                        for _, u in slots)
        for slots, _, fan in sites), cap)
    rules: list[Rule] = []
    for slots, conclude, _ in sites:
        # Each premise is made once per slot value, on first use.
        makers = [functools.cache(make) for make, _ in slots]
        for values in itertools.product(*(u for _, u in slots)):
            heads = conclude(*values)
            if heads:
                premises = tuple(p for make, v in zip(makers, values) for p in make(v))
                rules += [Rule(h, premises) for h in heads]
    rules += [Rule(c, co=True) for c in coaxioms]
    return System(rules)
