"""Proof techniques: bounded coinduction and level witnesses.

``bounded_coinduction`` is the sound acceptance test for membership in
the bounded fixed point: a candidate set proves its own judgments as
soon as it sits inside the bound and each member is concluded by some
regular rule from premises in the set.

``level_witness`` explains a single judgment's fate along the
descending phase: never in the bound at all, dropped at a precise
round, or surviving.  Survival at the descending fixed point is
conclusive membership, and the witness says when that is the case.
It is a lookup in the entry and drop layers of one two-phase pass.
"""

from __future__ import annotations

from typing import Iterable, Union

from .engine import DEFAULT_BUDGET, System, analyse, bound, step
from .terms import Term, _Record, term_key

__all__ = [
    "Verdict",
    "NotInBound",
    "DropsAtLevel",
    "SurvivesTo",
    "bounded_coinduction",
    "level_witness",
]

NOT_IN_BOUND = "not-in-bound"
NOT_CONSISTENT = "not-consistent"


class Verdict(_Record):
    """Outcome of bounded coinduction; failures pair a judgment with why."""

    __slots__ = ("accepted", "failures")

    def __init__(self, accepted: bool,
                 failures: tuple[tuple[Term, str], ...] = ()) -> None:
        self._init(accepted, failures)


def bounded_coinduction(sys: System, candidate: Iterable[Term],
                        budget: int = DEFAULT_BUDGET) -> Verdict:
    """Accept iff the candidate set lies in the bound and is consistent.

    Acceptance is sound: every judgment of an accepted set belongs to
    the bounded fixed point.  Failures list each offending judgment
    once, tagged ``not-in-bound`` or ``not-consistent``, in canonical
    order (a judgment outside the bound is not additionally reported as
    inconsistent).
    """
    s = frozenset(candidate)
    b = bound(sys, budget).judgments
    derivable = step(sys, s)
    failures: list[tuple[Term, str]] = []
    for j in sorted(s, key=term_key):
        if j not in b:
            failures.append((j, NOT_IN_BOUND))
        elif j not in derivable:
            failures.append((j, NOT_CONSISTENT))
    return Verdict(not failures, tuple(failures))


class NotInBound(_Record):
    """The judgment is not even in the bound."""

    __slots__ = ()


class DropsAtLevel(_Record):
    """Least number of descending rounds that refutes the judgment."""

    __slots__ = ("level",)

    def __init__(self, level: int) -> None:
        self._init(level)


class SurvivesTo(_Record):
    """The judgment is still present after ``level`` descending rounds.

    ``at_fixpoint`` records that the descent stabilised on the way, in
    which case survival is conclusive: the judgment belongs to the
    bounded fixed point, not merely to an unexplored tail.
    """

    __slots__ = ("level", "at_fixpoint")

    def __init__(self, level: int, at_fixpoint: bool = False) -> None:
        self._init(level, at_fixpoint)


LevelWitness = Union[NotInBound, DropsAtLevel, SurvivesTo]


def level_witness(sys: System, j: Term, max_n: int,
                  budget: int = DEFAULT_BUDGET) -> LevelWitness:
    """Track one judgment for up to ``max_n`` descending rounds.

    The layers come from ``analyse(sys, budget)``, so ``budget`` bounds
    phase 1 only.  The descent is stable once a round drops nothing,
    that is from round ``layers + 1`` on.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    a = analyse(sys, budget)
    if j not in a.phase1.judgments:
        return NotInBound()
    level = a.levels.get(j)
    if level is not None and level <= max_n:
        return DropsAtLevel(level)
    return SurvivesTo(max_n, at_fixpoint=a.layers < max_n)
