"""Proof objects for the three flavours of derivability.

* :class:`WfProof` — a finite well-founded tree over the extended
  system (co rules usable anywhere).  Exists exactly for judgments in
  the bound.
* approximated proofs of level ``n`` — the same tree type, but co rules
  may only occur at depth ``n`` or deeper.  Exists exactly for
  judgments that survive ``n`` rounds of the descending phase.
* :class:`RegularProof` — a finite *choice map* assigning one regular
  rule to every judgment reachable from the root; cycles are what makes
  it non-well-founded.  Exists exactly for judgments in the bounded
  fixed point.

Constructors are deterministic: wherever a rule has to be picked, the
canonically least admissible one is taken (regular rules before co
rules at a tie).  ``validate`` re-checks a proof object against a
system, reporting every offending node.  A :class:`WfProof` is built,
validated and serialised in its distinct nodes, by one post-order walk
(``terms._postorder``); a regular proof is cyclic, so it is walked in
pre-order instead.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional, Union

from .engine import DEFAULT_BUDGET, Rule, System, analyse, bound, generated, rule_key
from .terms import Term, _Frozen, _Record, _postorder, _reach, render_term, term_key

__all__ = [
    "RuleRef",
    "WfProof",
    "RegularProof",
    "Violation",
    "ValidationReport",
    "WF_EXTENDED",
    "APPROX",
    "REGULAR_GENERATED",
    "prove_wf",
    "prove_approx",
    "prove_regular",
    "tree_size",
    "validate",
    "proof_to_dict",
    "proof_from_dict",
]


class RuleRef(_Record):
    """Position of a rule in its system: ``co`` selects the co-rule list."""

    __slots__ = ("index", "co")

    def __init__(self, index: int, co: bool = False) -> None:
        self._init(index, co)


# One table for every proof node ever built, keyed by judgment, rule
# index, co flag and children; judgments and children are interned, so
# the key compares them by identity.
_NODES: dict[tuple, "WfProof"] = {}


class WfProof(_Frozen):
    """Well-founded proof tree node.

    Children appear in canonical premise order; their judgments are
    exactly the premises of the referenced rule.

    Nodes are interned like terms: building a node equal to one built
    before returns that same object, so equal subproofs are shared,
    ``==`` is identity and the hash is the identity hash.  Nodes are
    immutable; ``copy``, ``deepcopy`` and pickling give back the
    interned node, and the table keeps every node for as long as the
    process lives.
    """

    __slots__ = ("judgment", "rule", "children")

    def __new__(cls, judgment: Term, rule: RuleRef,
                children: tuple["WfProof", ...] = ()):
        children = tuple(children)
        key = (judgment, rule.index, rule.co, children)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            node._init(judgment, rule, children)
        return node

    def __repr__(self) -> str:
        # Children by their judgments only: a shared subtree is never
        # expanded, and nothing recurses.
        kids = [f"<proof of {render_term(c.judgment)}>" for c in self.children]
        shown = ", ".join(kids) + ("," if len(kids) == 1 else "")
        return (f"WfProof(judgment={self.judgment!r}, rule={self.rule!r}, "
                f"children=({shown}))")


class RegularProof(_Record):
    """Cyclic proof: one regular rule per judgment, closed under premises."""

    __slots__ = ("root", "choice")

    def __init__(self, root: Term, choice: Optional[dict[Term, int]] = None) -> None:
        self._init(root, {} if choice is None else choice)


class Violation(_Record):
    """One offending proof node: its path from the root and the reason code."""

    __slots__ = ("path", "judgment", "reason")

    def __init__(self, path: tuple[int, ...], judgment: Term, reason: str) -> None:
        self._init(path, judgment, reason)


class ValidationReport(_Record):
    __slots__ = ("mode", "violations")

    def __init__(self, mode: str, violations: tuple[Violation, ...] = ()) -> None:
        self._init(mode, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# construction


def _least(sys: System, j: Term, admissible: Callable[[Term], bool],
           co: bool = False) -> tuple[Rule, int]:
    """The canonically least rule concluding ``j`` whose premises all
    pass ``admissible``, with its index in its list.  Regular rules come
    before co rules at a tie, and co rules compete only when ``co`` is
    set."""
    ok = [(r, i) for r, i in sys.by_conclusion.get(j, ())
          if (co or not r.co) and all(map(admissible, r.premises))]
    if len(ok) == 1:
        return ok[0]
    if not ok:
        raise AssertionError(f"no admissible rule for {render_term(j)}")
    return min(ok, key=lambda pair: rule_key(pair[0]))


def _build(sys: System, entered: Mapping[Term, int],
           dropped: Mapping[Term, int], j: Term, n: int) -> WfProof:
    """The level-``n`` proof of ``j``: level 0 is the well-founded proof.

    At every depth below ``n`` a judgment takes the least regular rule
    whose premises are in the bound and survive one round less; from
    depth ``n`` on, it takes the least rule of the extended system whose
    premises all entered the bound in earlier layers.  So levels fall,
    and at level 0 entry layers fall, from a node to its children, and
    one post-order over (judgment, level) builds every node after the
    nodes of its premises.
    """
    # (judgment, level) -> (rule, its index, the level of its premises)
    picked: dict[tuple[Term, int], tuple[Rule, int, int]] = {}

    def premises(key: tuple[Term, int]) -> list[tuple[Term, int]]:
        if key not in picked:
            g, k = key
            if k:
                # Premises must survive k - 1 rounds: in the bound and
                # not dropped before round k.
                rule, i = _least(sys, g, lambda p: p in entered and dropped.get(p, k) >= k)
            else:
                layer = entered[g]
                rule, i = _least(sys, g, lambda p: entered.get(p, layer) < layer, co=True)
            picked[key] = rule, i, max(k - 1, 0)
        rule, _, below = picked[key]
        return [(p, below) for p in rule.premises]

    built: dict[tuple[Term, int], WfProof] = {}
    for key in _postorder((j, n), premises):
        rule, i, below = picked[key]
        built[key] = WfProof(key[0], RuleRef(i, rule.co),
                             tuple([built[p, below] for p in rule.premises]))
    return built[j, n]


def prove_wf(sys: System, j: Term, budget: int = DEFAULT_BUDGET) -> Optional[WfProof]:
    """A well-founded proof over the extended system, or None.

    Succeeds exactly when ``j`` is in the bound.  The tree is read off
    the entry layers of phase 1 (:func:`bound`, held to ``budget``): a
    judgment that entered in layer ``k`` is proved by the canonically
    least rule all of whose premises entered strictly earlier.
    """
    b = bound(sys, budget)
    if j not in b.judgments:
        return None
    return _build(sys, b.levels, {}, j, 0)


def prove_approx(sys: System, j: Term, n: int,
                 budget: int = DEFAULT_BUDGET) -> Optional[WfProof]:
    """A level-``n`` approximated proof, or None.

    Level 0 places no restriction and delegates to :func:`prove_wf`.
    For ``n > 0`` the root must be concluded by a regular rule from
    premises that themselves carry level-``n-1`` proofs, so co rules
    can only appear at depth ``n`` or deeper.  Succeeds exactly when
    ``j`` survives ``n`` rounds of the descending phase, which the drop
    layers of ``analyse(sys, budget)`` tell.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if n == 0:
        return prove_wf(sys, j, budget)
    a = analyse(sys, budget)
    if j not in a.phase1.judgments or a.levels.get(j, n + 1) <= n:
        return None
    return _build(sys, a.phase1.levels, a.levels, j, n)


def prove_regular(sys: System, j: Term,
                  budget: int = DEFAULT_BUDGET) -> Optional[RegularProof]:
    """A regular (possibly cyclic) proof, or None.

    Succeeds exactly when ``j`` is in the bounded fixed point
    (:func:`generated`, held to ``budget``); every judgment reachable
    from the root is mapped to the canonically least regular rule whose
    premises stay inside the bounded fixed point.
    """
    g = generated(sys, budget)
    if j not in g.judgments:
        return None
    choice: dict[Term, int] = {}

    def premises(cur: Term) -> tuple[Term, ...]:
        rule, choice[cur] = _least(sys, cur, g.judgments.__contains__)
        return rule.premises

    _reach(j, premises)
    return RegularProof(j, choice)


def tree_size(proof: WfProof) -> int:
    """The number of nodes of ``proof`` written out as a tree, where a
    shared subproof counts once for each place it occurs: the number of
    lines of its text.  One pass over the distinct nodes."""
    size: dict[WfProof, int] = {}
    for node in _postorder(proof, lambda node: node.children):
        size[node] = 1 + sum([size[c] for c in node.children])
    return size[proof]


# ---------------------------------------------------------------------------
# validation

WF_EXTENDED = "wf-extended"
APPROX = "approx"
REGULAR_GENERATED = "regular-generated"


def _resolve(sys: System, ref: RuleRef) -> Optional[Rule]:
    rules = sys.co_rules if ref.co else sys.regular_rules
    if 0 <= ref.index < len(rules):
        return rules[ref.index]
    return None


def _check_tree(sys: System, proof: WfProof, min_co_depth: Optional[int],
                out: list[Violation]) -> None:
    """Violations in pre-order, each at its path of child indices.

    Each distinct node is checked once, after its children: its own
    structural violations, whether its subtree holds any, and the least
    depth of a co-rule node in it (0 at the node itself).  The walk
    over paths then enters only the subtrees that can still report
    something, so a valid proof costs time in its distinct nodes.
    """
    limit = -1 if min_co_depth is None else min_co_depth
    # node -> (own structural reasons, any violation below, co depth)
    info: dict[WfProof, tuple[list[str], bool, float]] = {}
    for node in _postorder(proof, lambda node: node.children):
        children = node.children
        rule = _resolve(sys, node.rule)
        reasons: list[str] = []
        if rule is None:
            reasons.append("bad-rule-ref")
        else:
            if rule.conclusion != node.judgment:
                reasons.append("conclusion-mismatch")
            had = sorted((c.judgment for c in children), key=term_key)
            if tuple(had) != rule.premises:
                reasons.append("premise-mismatch")
        if node.rule.co and rule is not None:
            co_depth = 0
        else:
            co_depth = min((info[c][2] for c in children), default=math.inf) + 1
        info[node] = (reasons, bool(reasons) or any(info[c][1] for c in children),
                      co_depth)
    todo: list[tuple[WfProof, tuple[int, ...]]] = [(proof, ())]
    while todo:
        node, path = todo.pop()
        reasons, _, co_depth = info[node]
        for reason in reasons:
            out.append(Violation(path, node.judgment, reason))
        if co_depth == 0 and len(path) < limit:
            out.append(Violation(path, node.judgment, "co-rule-depth"))
        depth = len(path) + 1
        children = node.children
        for i in range(len(children) - 1, -1, -1):
            _, below, co_depth = info[children[i]]
            if below or depth + co_depth < limit:
                todo.append((children[i], path + (i,)))


def validate(sys: System, proof: Union[WfProof, RegularProof], mode: str,
             level: Optional[int] = None,
             budget: int = DEFAULT_BUDGET) -> ValidationReport:
    """Re-check a proof object; the report lists every violated node.

    Modes: ``"wf-extended"`` (finite tree, any rules), ``"approx"``
    (additionally, co rules only at depth >= ``level``), and
    ``"regular-generated"`` (choice map well-formed and every judgment
    inside the bound), which reads a :class:`WfProof` with no co-rule
    node and one node per judgment as the choice map of its rules.
    """
    out: list[Violation] = []
    if mode == WF_EXTENDED or mode == APPROX:
        if not isinstance(proof, WfProof):
            raise ValueError(f"{mode} validation expects a WfProof")
        min_co = None
        if mode == APPROX:
            if level is None or level < 0:
                raise ValueError("approx validation needs level >= 0")
            min_co = level
        _check_tree(sys, proof, min_co, out)
        label = mode if mode == WF_EXTENDED else f"approx({level})"
        return ValidationReport(label, tuple(out))
    if mode == REGULAR_GENERATED:
        if isinstance(proof, WfProof):
            nodes = list(_postorder(proof, lambda node: node.children))
            choice = {node.judgment: node.rule.index for node in nodes}
            if len(choice) == len(nodes) and not any(node.rule.co for node in nodes):
                proof = RegularProof(proof.judgment, choice)
        if not isinstance(proof, RegularProof):
            raise ValueError("regular-generated validation expects a RegularProof")
        inside = bound(sys, budget).judgments
        if proof.root not in proof.choice:
            out.append(Violation((), proof.root, "missing-choice"))
        for j in sorted(proof.choice, key=term_key):
            i = proof.choice[j]
            if not (0 <= i < len(sys.regular_rules)):
                out.append(Violation((), j, "bad-rule-ref"))
                continue
            rule = sys.regular_rules[i]
            if rule.conclusion != j:
                out.append(Violation((), j, "conclusion-mismatch"))
            for p in rule.premises:
                if p not in proof.choice:
                    out.append(Violation((), j, "missing-choice"))
                    break
            if j not in inside:
                out.append(Violation((), j, "not-in-bound"))
        return ValidationReport(REGULAR_GENERATED, tuple(out))
    raise ValueError(f"unknown validation mode: {mode!r}")


# ---------------------------------------------------------------------------
# serialization

def proof_to_dict(proof: Union[WfProof, RegularProof],
                  sys: Optional[System] = None) -> dict:
    """Schema: node = judgment string, rule id, co flag, children;
    a judgment already expanded earlier appears as a back-reference
    ``{"judgment": ..., "back": true}`` (that is how cycles stay finite).

    A :class:`WfProof` node shared in memory gets one dict, shared in
    the result wherever the node occurs, so treat the result as
    read-only.  Neither shape recurses, so proof depth is not limited
    by the interpreter stack.
    """
    if isinstance(proof, WfProof):
        return _wf_to_dict(proof)
    if sys is None:
        raise ValueError("serialising a RegularProof needs the system")
    # Depth-first, children in premise order: the first visit of a
    # judgment expands it, every later one is a back-reference.
    expanded: set[Term] = set()
    root: list[dict] = []
    todo: list[tuple[list[dict], Term]] = [(root, proof.root)]
    while todo:
        siblings, j = todo.pop()
        if j in expanded:
            siblings.append({"judgment": render_term(j), "back": True})
            continue
        expanded.add(j)
        i = proof.choice[j]
        children: list[dict] = []
        siblings.append({"judgment": render_term(j), "rule": i, "co": False,
                         "children": children})
        todo.extend((children, p) for p in reversed(sys.regular_rules[i].premises))
    return root[0]


def _wf_to_dict(proof: WfProof) -> dict:
    done: dict[int, dict] = {}
    for node in _postorder(proof, lambda node: node.children):
        done[id(node)] = {
            "judgment": render_term(node.judgment),
            "rule": node.rule.index,
            "co": node.rule.co,
            "children": [done[id(c)] for c in node.children],
        }
    return done[id(proof)]


def proof_from_dict(d: dict) -> Union[WfProof, RegularProof]:
    """Inverse of :func:`proof_to_dict`.

    A tree without back-references loads as a :class:`WfProof`; one
    with back-references loads as the :class:`RegularProof` whose choice
    map collects the expanded nodes, and interns no :class:`WfProof`.
    Each distinct judgment string is parsed once; nodes are interned, so
    equal subtrees load as one shared node.  A node dict ``==`` (in C)
    to the last one read with its judgment string takes that one's node
    unwalked, so an unshared JSON tree costs Python work in its distinct
    subproofs; the first such comparison that fails or overflows the
    stack, or the first dict met twice, turns this off for the rest of
    ``d``.
    """
    from .dsl import parse_judgment

    parsed: dict[str, Term] = {}

    def judgment(text: str) -> Term:
        t = parsed.get(text)
        if t is None:
            t = parsed[text] = parse_judgment(text)
        return t

    # Depth-first over the distinct node dicts; a node is read when the
    # None pushed above its children comes back up, so after them.  The
    # nodes are built only once no back-reference has turned up.
    refs: dict[tuple, RuleRef] = {}
    at: dict[int, int] = {}  # id of a node dict -> its index in read
    read: list[tuple[Term, RuleRef, list[int]]] = []
    last: Optional[dict] = {}  # judgment string -> last dict read
    todo: list = [d]
    while todo:
        nd = todo.pop()
        if nd is None:
            nd = todo.pop()
        elif id(nd) in at:
            # Sharing in memory: == would compare the unfolded trees.
            last = None
            continue
        elif nd.get("back"):
            break
        else:
            if last is not None:
                try:
                    twin = last.get(nd.get("judgment"))
                    if twin is not None:
                        if twin == nd:
                            at[id(nd)] = at[id(twin)]
                            continue
                        last = None
                except (TypeError, RecursionError):  # unhashable; too deep
                    last = None
            if nd.get("children"):
                todo += (nd, None)
                todo += nd["children"]
                continue
        kids = nd.get("children", ())
        ref_key = (nd["rule"], nd.get("co"))
        ref = refs.get(ref_key)
        if ref is None:
            ref = refs[ref_key] = RuleRef(ref_key[0], bool(ref_key[1]))
        at[id(nd)] = len(read)
        read.append((judgment(nd["judgment"]), ref, [at[id(c)] for c in kids]))
        if last is not None:
            last[nd["judgment"]] = nd
    else:
        built: list[WfProof] = []
        for j, ref, kids in read:
            built.append(WfProof(j, ref, tuple([built[k] for k in kids])))
        return built[-1]
    nodes = list(_postorder(
        d, lambda nd: () if nd.get("back") else nd.get("children", ()), key=id))
    # Filled in pre-order: a judgment expanded twice keeps the rule of
    # its last expansion in document order.
    choice: dict[Term, int] = {}
    for nd in reversed(nodes):
        if not nd.get("back"):
            choice[judgment(nd["judgment"])] = nd["rule"]
    return RegularProof(judgment(d["judgment"]), choice)
