"""Inference systems with coaxioms and their bounded fixed point.

A system is a finite set of ground rules, each a finite premise set and
a conclusion, tagged either regular or co.  The regular rules alone
admit the usual inductive (least) and coinductive (greatest)
interpretations; the co rules single out an interpretation in between,
computed in two phases:

* phase 1 (the *bound*): the inductive interpretation of the system
  extended with the co rules taken as regular rules;
* phase 2 (the *kernel*): the greatest set that is consistent with the
  regular rules and contained in the bound, obtained by descending
  iteration from the bound.

Both phases run one counting loop in synchronous layers, linear in the
total size of the rules: a judgment that changes counts down the rules
that watch it, and a rule whose count reaches zero counts down its
conclusion, which changes in the next layer once its own count is zero.

* ascending (``ind``, ``bound``): a rule counts its premises still
  missing and a judgment waits for one rule, as in Dowling and
  Gallier's linear-time Horn satisfiability.  A judgment's *entry
  layer* is the number of rule applications from the empty set after
  which it first holds.
* descending (``coind``, ``kernel``): a rule dies with its first
  dropped premise and a judgment counts its live regular rules, as in
  Liu and Smolka's linear-time fixed point algorithms.  A judgment's
  *drop layer* is the number of descending rounds after which it no
  longer holds.

An :class:`Interpretation` keeps those layers.  Its ``trace``, the set
after each productive round of the naive whole-set iteration, is
rebuilt from them on each read, at O(n²) cost, and never kept; level
witnesses and proofs read the layers directly.

A :class:`System` runs each phase at most once, on first use, and keeps
the pass.  A budget refuses a finished pass of at least ``budget``
productive layers, as the naive iteration would.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .terms import Term, _Record, _paused, _set, term_key

__all__ = [
    "Rule",
    "System",
    "Interpretation",
    "EngineError",
    "BudgetExceeded",
    "NotPreFixed",
    "DEFAULT_BUDGET",
    "INDUCTIVE",
    "COINDUCTIVE",
    "BOUND",
    "GENERATED",
    "rule_key",
    "step",
    "ind",
    "coind",
    "bound",
    "kernel",
    "generated",
    "analyse",
    "sort_judgments",
]

DEFAULT_BUDGET = 100_000

INDUCTIVE = "inductive"
COINDUCTIVE = "coinductive"
BOUND = "bound"
GENERATED = "generated"


class EngineError(Exception):
    """Base class for engine failures."""


class BudgetExceeded(EngineError):
    """A fixed point iteration did not stabilise within its budget."""

    def __init__(self, budget: int):
        super().__init__(f"no fixed point within {budget} iterations")
        self.budget = budget


class NotPreFixed(EngineError):
    """kernel() was handed a set that is not closed under the rules.

    ``witness`` is the canonically least judgment derivable from the
    candidate bound in one step but missing from it.
    """

    def __init__(self, witness: Term):
        from .terms import render_term

        super().__init__(f"bound is not closed under the rules: {render_term(witness)}")
        self.witness = witness


class Rule(_Record):
    """One ground rule.  Premises are deduplicated and canonically sorted.

    ``co=False`` marks a regular rule, ``co=True`` a co rule (a coaxiom
    when the premise tuple is empty).
    """

    __slots__ = ("conclusion", "premises", "co")

    def __init__(self, conclusion: Term, premises: tuple[Term, ...] = (),
                 co: bool = False) -> None:
        premises = tuple(premises)
        if len(premises) > 1:
            premises = tuple(sorted(set(premises), key=term_key))
        # Field by field: every parsed or grounded rule is built and hashed.
        _set(self, "conclusion", conclusion)
        _set(self, "premises", premises)
        _set(self, "co", co)

    def __hash__(self) -> int:
        return hash((self.conclusion, self.premises, self.co))


def rule_key(r: Rule):
    """Canonical order on rules: conclusion, then premises, regular before co."""
    return (term_key(r.conclusion), tuple(term_key(p) for p in r.premises), r.co)


class System:
    """An inference system: regular rules plus co rules.

    Duplicate rules are dropped on construction.  ``by_conclusion``
    sends each conclusion to its ``(rule, position)`` pairs, the regular
    rules first and then the co rules, a position being the rule's index
    in its own tuple.  Rule order is preserved for reference purposes
    only; no operation's result depends on it.  A system is read-only,
    and so are the results of :func:`bound` and :func:`analyse` it keeps.
    """

    __slots__ = ("regular_rules", "co_rules", "by_conclusion", "_bound", "_analysis")

    def __init__(self, rules: Iterable[Rule] = ()):
        unique = dict.fromkeys(rules)
        self.regular_rules: tuple[Rule, ...] = tuple(r for r in unique if not r.co)
        self.co_rules: tuple[Rule, ...] = tuple(r for r in unique if r.co)
        self.by_conclusion: dict[Term, list[tuple[Rule, int]]] = {}
        for rs in (self.regular_rules, self.co_rules):
            for i, r in enumerate(rs):
                self.by_conclusion.setdefault(r.conclusion, []).append((r, i))
        self._bound = self._analysis = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, System):
            return NotImplemented
        return (frozenset(self.regular_rules) == frozenset(other.regular_rules)
                and frozenset(self.co_rules) == frozenset(other.co_rules))

    def __hash__(self) -> int:
        return hash((frozenset(self.regular_rules), frozenset(self.co_rules)))

    def __repr__(self) -> str:
        return (f"System({len(self.regular_rules)} regular, "
                f"{len(self.co_rules)} co)")


class Interpretation(_Record):
    """A computed judgment set together with how it was reached.

    ``levels`` records when each judgment changed: for the ascending
    phases (``ind``, ``bound``) the entry layer of every member, for the
    descending ones (``coind``, ``kernel``, ``generated``) the drop
    layer of every judgment of the starting set that did not survive.
    ``layers`` counts the productive rounds.  ``levels`` is compared
    but neither hashed nor shown.

    ``trace`` lists the judgment set after each productive round —
    ascending for the inductive phases, descending for the coinductive
    ones — and always ends with ``judgments``; without a productive
    round it is that one set.  It is rebuilt from ``levels`` on each
    read, in O(n²) time and space for n judgments, and never kept.  For
    ``generated`` results, ``phase1`` carries the full bound-phase
    interpretation so both traces stay retrievable.
    """

    __slots__ = ("judgments", "phase", "levels", "layers", "phase1")

    def __init__(self, judgments: frozenset[Term], phase: str,
                 levels: Optional[Mapping[Term, int]] = None, layers: int = 0,
                 phase1: Optional["Interpretation"] = None) -> None:
        self._init(judgments, phase, {} if levels is None else levels, layers, phase1)

    def __hash__(self) -> int:
        return hash((self.judgments, self.phase, self.layers, self.phase1))

    def __repr__(self) -> str:
        return (f"Interpretation(judgments={self.judgments!r}, phase={self.phase!r}, "
                f"layers={self.layers!r}, phase1={self.phase1!r})")

    def __contains__(self, j: Term) -> bool:
        return j in self.judgments

    def sorted_judgments(self) -> list[Term]:
        return sort_judgments(self.judgments)

    @property
    def trace(self) -> tuple[frozenset[Term], ...]:
        return tuple(_layers(self, lambda j: j, lambda i, d: frozenset(d)))


def _layers(interp: Interpretation, show, take) -> list:
    """``take(i, d)`` for the i-th set of ``interp.trace``, each in turn.
    The dict ``d``, valid during the call, maps the set's judgments j in
    canonical order to ``show(j)``.  It is sorted once and loses one
    layer's judgments before each set, so a set costs time linear in its
    size plus its changes.  An ascending pass is walked from its end.
    """
    levels = interp.levels
    current = {j: show(j) for j in sort_judgments(interp.judgments.union(levels))}
    changed: list[list[Term]] = [[] for _ in range(interp.layers)]
    for j, k in levels.items():
        changed[k - 1].append(j)
    ascending = interp.phase in (INDUCTIVE, BOUND)
    # Before each set goes the layer that made it, or, walking an
    # ascending pass back, the layer after it.
    steps = ([()] + changed[:0:-1]) if ascending else (changed or [()])
    sets, full = [], len(current)
    for n, gone in enumerate(steps, start=1):
        for j in gone:
            del current[j]
        if 2 * len(current) < full:  # a copy drops the slots of deleted keys
            current = dict(current)
            full = len(current)
        sets.append(take(len(steps) + 1 - n if ascending else n, current))
    return sets[::-1] if ascending else sets


def sort_judgments(js: Iterable[Term]) -> list[Term]:
    return sorted(js, key=term_key)


# ---------------------------------------------------------------------------
# the operations


def step(sys: System, s: frozenset[Term] | set[Term]) -> frozenset[Term]:
    """One application of the regular rules: conclusions of rules whose
    premises all hold in s."""
    if not isinstance(s, (set, frozenset)):
        s = frozenset(s)
    return frozenset(r.conclusion for r in sys.regular_rules if s.issuperset(r.premises))


def _within(interp: Interpretation, budget: Optional[int]) -> Interpretation:
    """``interp``, unless its pass has at least ``budget`` productive layers."""
    if budget is not None and interp.layers >= budget:
        raise BudgetExceeded(budget)
    return interp


def _propagate(rules: Sequence[Rule], watchers: Mapping[Term, list[int]],
               rule_count: list[int], count: dict[Term, int],
               frontier: list[Term]) -> tuple[dict[Term, int], int]:
    """The layer in which each judgment changes, and the number of
    productive layers, counted as the module docstring describes: the
    judgments in ``frontier`` change in layer 1, and a count already
    below 0 changes nothing.
    """
    changed: dict[Term, int] = {}
    layer = 0
    while frontier:
        layer += 1
        after: list[Term] = []
        for j in frontier:
            changed[j] = layer
            for i in watchers.get(j, ()):
                rule_count[i] -= 1
                if not rule_count[i]:
                    c = rules[i].conclusion
                    count[c] -= 1
                    if not count[c]:
                        after.append(c)
        frontier = after
    return changed, layer


@_paused
def _ascend(rules: Sequence[Rule]) -> tuple[dict[Term, int], int]:
    """Entry layer of every judgment derivable from ``rules``, and the
    number of productive layers.

    A rule counts its premises not derived yet and fires once the count
    reaches 0; a judgment enters in the layer after the first rule
    concluding it fired.
    """
    watchers: dict[Term, list[int]] = {}
    for i, r in enumerate(rules):
        for p in r.premises:
            watchers.setdefault(p, []).append(i)
    count = dict.fromkeys([r.conclusion for r in rules], 1)
    facts = dict.fromkeys([r.conclusion for r in rules if not r.premises], 0)
    count.update(facts)
    return _propagate(rules, watchers, [len(r.premises) for r in rules],
                      count, list(facts))


@_paused
def _descend(sys: System, start: frozenset[Term]) -> tuple[dict[Term, int], int]:
    """Drop layer of every judgment the descent from ``start`` removes,
    and the number of productive rounds.

    Each judgment counts its live regular rules, those whose premises
    all still hold.  A rule dies in the round its first premise drops;
    a judgment drops in the round after its last live rule died.
    Raises :class:`NotPreFixed` if a live rule concludes outside
    ``start``.
    """
    rules = sys.regular_rules
    live = dict.fromkeys(start, 0)
    watchers: dict[Term, list[int]] = {}
    escaped: list[Term] = []
    for i, r in enumerate(rules):
        if start.issuperset(r.premises):
            if r.conclusion not in live:
                escaped.append(r.conclusion)
                continue
            live[r.conclusion] += 1
            for p in r.premises:
                watchers.setdefault(p, []).append(i)
    if escaped:
        raise NotPreFixed(min(escaped, key=term_key))
    return _propagate(rules, watchers, [1] * len(rules), live,
                      [j for j, n in live.items() if not n])


def ind(sys: System, budget: int = DEFAULT_BUDGET) -> Interpretation:
    """Inductive interpretation of the regular rules (least fixed point)."""
    entry, layers = _ascend(sys.regular_rules)
    return _within(Interpretation(frozenset(entry), INDUCTIVE, entry, layers), budget)


def coind(sys: System, budget: int = DEFAULT_BUDGET) -> Interpretation:
    """Coinductive interpretation of the regular rules (greatest fixed point).

    Descends from the set of all regular-rule conclusions, which already
    contains every candidate judgment.
    """
    start = frozenset(r.conclusion for r in sys.regular_rules)
    drop, layers = _descend(sys, start)
    return _within(Interpretation(start.difference(drop), COINDUCTIVE, drop, layers), budget)


def bound(sys: System, budget: int = DEFAULT_BUDGET) -> Interpretation:
    """Phase 1, kept in ``sys``: inductive interpretation with co rules."""
    if sys._bound is None:
        entry, layers = _ascend(sys.regular_rules + sys.co_rules)
        sys._bound = Interpretation(frozenset(entry), BOUND, entry, layers)
    return _within(sys._bound, budget)


def kernel(sys: System, beta: Iterable[Term],
           budget: Optional[int] = DEFAULT_BUDGET) -> Interpretation:
    """Phase 2: greatest consistent subset of a closed set ``beta``.

    Raises :class:`NotPreFixed` if ``beta`` is not closed under the
    regular rules (the defining descent is only meaningful below a
    pre-fixed point).  ``budget=None`` accepts a descent of any length;
    it ends within ``len(beta)`` rounds.
    """
    b = beta if isinstance(beta, frozenset) else frozenset(beta)
    drop, layers = _descend(sys, b)
    return _within(Interpretation(b.difference(drop), GENERATED, drop, layers), budget)


def analyse(sys: System, budget: int = DEFAULT_BUDGET) -> Interpretation:
    """Both phases, kept in ``sys``, with only phase 1 held to ``budget``:
    level witnesses and approximated proofs read a descent longer than
    the budget as an answer ("drops at level n"), not a failure."""
    if sys._analysis is None:
        b = bound(sys, budget)
        k = kernel(sys, b.judgments, None)
        sys._analysis = Interpretation(k.judgments, GENERATED, k.levels, k.layers,
                                       phase1=b)
    _within(sys._analysis.phase1, budget)
    return sys._analysis


def generated(sys: System, budget: int = DEFAULT_BUDGET) -> Interpretation:
    """Bounded fixed point: :func:`analyse`, phase 2 held to ``budget`` too."""
    return _within(analyse(sys, budget), budget)
