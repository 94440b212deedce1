"""The three benchmark workloads: seeded inputs, one pass of user
commands, and answers computed without the engine.

A workload writes its input files into a work directory, lists the
steps of one pass (CLI invocations plus, on ``proof-ladder``, a library
verify step) and checks every step's result against closed forms or a
depth-first search.  The seed picks names, the chord and the rule
order; it never changes a size, so counts are equal across seeds.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

_ALNUM = string.ascii_lowercase + string.digits


def _names(rng: random.Random, count: int, length: int) -> list[str]:
    """``count`` distinct identifiers of one fixed length, so that the
    rule file's size does not depend on the seed."""
    out: set[str] = set()
    while len(out) < count:
        out.add(rng.choice(string.ascii_lowercase)
                + "".join(rng.choice(_ALNUM) for _ in range(length - 1)))
    picked = sorted(out)
    rng.shuffle(picked)
    return picked


@dataclass
class Step:
    """One operation of a pass.

    ``group`` is the end-to-end metric the step's time is added to.  A
    step either runs the CLI with ``argv`` or calls ``fn(outputs, lib)``,
    which returns ``(exit_code, text)``.
    """

    name: str
    group: str
    expect_exit: int
    argv: Optional[list[str]] = None
    fn: Optional[Callable[[dict, object], tuple[int, str]]] = None


@dataclass
class Outcome:
    code: Optional[int]
    out: str
    error: str = ""


@dataclass
class ProofStats:
    """Proof nodes printed or serialised in one pass, and how many
    distinct judgments they cover."""

    nodes: int = 0
    distinct: int = 0
    json_bytes: int = 0


def _json_multiset(tree: dict) -> dict[str, int]:
    """How often each judgment occurs in a serialised proof, walked
    without recursion so that deep proofs do not stop the checker."""
    counts: dict[str, int] = {}
    todo = [tree]
    while todo:
        nd = todo.pop()
        counts[nd["judgment"]] = counts.get(nd["judgment"], 0) + 1
        todo.extend(nd.get("children", ()))
    return counts


def _parse_regular_text(lines: list[str]) -> tuple[str, dict[str, tuple[int, list[str]]]]:
    """Read the text form of a regular proof: ``root: J`` then one
    ``J <- rule i: p, q`` (or ``J <- rule i   (axiom)``) line per judgment."""
    if not lines or not lines[0].startswith("root: "):
        raise ValueError("regular proof text has no root line")
    root = lines[0][len("root: "):]
    choice: dict[str, tuple[int, list[str]]] = {}
    for line in lines[1:]:
        head, _, rest = line.partition(" <- rule ")
        if rest.endswith("   (axiom)"):
            choice[head] = (int(rest[:-len("   (axiom)")]), [])
        else:
            ix, _, prem = rest.partition(": ")
            choice[head] = (int(ix), prem.split(", "))
    return root, choice


class Workload:
    """Base class: shared checks over CLI output."""

    name = ""
    rule_file = ""
    # Parts of the calibration that track this workload's steps best.
    calibration: tuple[str, ...] = ("hash",)

    def __init__(self, seed: int, size: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.stats = ProofStats()

    # -- set-up and the pass ------------------------------------------------

    def write_inputs(self) -> None:
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def check(self, step: Step, res: Outcome, outputs: dict[str, Outcome],
              lib) -> list[str]:
        """Problems with one step's result; empty when it is right."""
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    # -- helpers for subclasses ---------------------------------------------

    def _interp(self, res: Outcome, mode: str, want: set[str]) -> list[str]:
        lines = res.out.splitlines()
        head = f"{mode} ({len(want)} judgments):"
        if not lines or lines[0] != head:
            return [f"{mode}: header {lines[:1]} != {head!r}"]
        if set(lines[1:]) != want or len(lines) != len(want) + 1:
            return [f"{mode}: judgment set differs from the oracle"]
        return []

    def _regular(self, lib, root: str, choice: dict[str, int],
                 allowed: set[str]) -> list[str]:
        """A regular proof stays inside the oracle's generated set, has
        its root, and passes the library validator."""
        errs = []
        if root not in choice:
            errs.append(f"regular proof of {root} lacks its root")
        outside = set(choice) - allowed
        if outside:
            errs.append(f"regular proof leaves the generated set: {sorted(outside)[:3]}")
        proof = lib.proofs.RegularProof(
            lib.dsl.parse_judgment(root),
            {lib.dsl.parse_judgment(j): i for j, i in choice.items()})
        report = lib.proofs.validate(self.system(lib), proof,
                                     lib.proofs.REGULAR_GENERATED)
        if not report.ok:
            errs.append(f"regular proof of {root} fails validate: "
                        f"{report.violations[:3]}")
        return errs

    def _regular_text(self, lib, lines: list[str], root: str,
                      allowed: set[str]) -> list[str]:
        try:
            got_root, choice = _parse_regular_text(lines)
        except ValueError as e:
            return [str(e)]
        if got_root != root:
            return [f"regular proof root {got_root} != {root}"]
        self.stats.nodes += len(choice)
        self.stats.distinct += len(choice)
        return self._regular(lib, root, {j: c[0] for j, c in choice.items()},
                             allowed)

    def _regular_json(self, lib, tree: dict, root: str,
                      allowed: set[str]) -> tuple[list[str], int]:
        counts = _json_multiset(tree)
        nodes = sum(counts.values())
        self.stats.nodes += nodes
        self.stats.distinct += len(counts)
        proof = lib.proofs.proof_from_dict(tree)
        if not isinstance(proof, lib.proofs.RegularProof):
            # A proof without back-references loads as a tree; only a
            # single axiom can look like that.
            return [f"regular proof of {root} did not load as regular"], nodes
        if render(lib, proof.root) != root:
            return [f"regular proof root {render(lib, proof.root)} != {root}"], nodes
        return self._regular(lib, root, {
            render(lib, j): i for j, i in proof.choice.items()}, allowed), nodes

    def _negative(self, res: Outcome, judgment: str, witness: str) -> list[str]:
        want = [f"NotDerivable: {judgment}", f"witness: {witness}"]
        if res.out.splitlines() != want:
            return [f"check {judgment}: {res.out.splitlines()[:2]} != {want}"]
        return []

    _system = None

    def system(self, lib):
        """The rule file as the library reads it (for validate only)."""
        if self._system is None:
            with open(self.path(self.rule_file), encoding="utf-8") as fh:
                self._system = lib.dsl.parse_system(fh.read())
        return self._system


def render(lib, term) -> str:
    return lib.terms.render_term(term)


# ---------------------------------------------------------------------------
# visit-dense


class VisitDense(Workload):
    """A k-node ring plus one chord, grounded by ``gen visit``."""

    name = "visit-dense"
    rule_file = "visit.coax"

    def __init__(self, seed: int, size: int, workdir: Path):
        super().__init__(seed, size, workdir)
        k = size
        self.nodes = _names(self.rng, k, 5)
        # The chord always skips the same number of ring nodes, so the
        # bound and every count are the same for every seed.
        start = self.rng.randrange(k)
        span = max(2, k // 2)
        self.succ = {v: [self.nodes[(i + 1) % k]] for i, v in enumerate(self.nodes)}
        self.succ[self.nodes[start]].append(self.nodes[(start + span) % k])
        self.member_node = self.rng.choice(self.nodes)
        self.other_node = self.rng.choice(self.nodes)

    def reach(self, v: str) -> set[str]:
        """Depth-first reachability, the oracle for ``visit``."""
        seen, todo = {v}, [v]
        while todo:
            for w in self.succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    @staticmethod
    def visit(v: str, ns) -> str:
        return f"visit({v},{{{','.join(sorted(ns))}}})"

    def generated_set(self) -> set[str]:
        return {self.visit(v, self.reach(v)) for v in self.nodes}

    def rule_count(self) -> int:
        k = len(self.nodes)
        return k + sum((2 ** k) ** len(s) for s in self.succ.values())

    def write_inputs(self) -> None:
        nodes = [f"node {v}" for v in self.nodes]
        edges = [f"edge {v} {w}" for v, ws in self.succ.items() for w in ws]
        self.rng.shuffle(nodes)
        self.rng.shuffle(edges)
        Path(self.path("visit.graph")).write_text("\n".join(nodes + edges) + "\n")

    def member(self) -> str:
        return self.visit(self.member_node, self.reach(self.member_node))

    def non_member(self) -> str:
        # visit(v,{v}) needs visit(s,{}) for every successor s, which
        # only the coaxiom gives: it drops at level 2.
        return self.visit(self.other_node, {self.other_node})

    def steps(self) -> list[Step]:
        f = self.path(self.rule_file)
        return [
            Step("gen", "gen", 0, ["gen", "visit", self.path("visit.graph"), "-o", f]),
            Step("generated", "generated", 0, ["generated", f]),
            Step("check-member", "check", 0, ["check", f, self.member()]),
            Step("check-non-member", "check", 1, ["check", f, self.non_member()]),
            Step("prove-regular-json", "prove", 0,
                 ["prove", f, self.member(), "--regular", "--format", "json"]),
        ]

    def check(self, step, res, outputs, lib):
        gen = self.generated_set()
        if step.name == "gen":
            if res.out:
                return ["gen -o printed to stdout"]
            sys_ = self.system(lib)
            got = len(sys_.regular_rules) + len(sys_.co_rules)
            if got != self.rule_count():
                return [f"gen wrote {got} rules, closed form {self.rule_count()}"]
            return []
        if step.name == "generated":
            return self._interp(res, "generated", gen)
        if step.name == "check-member":
            lines = res.out.splitlines()
            if lines[:2] != [f"derivable: {self.member()}", "regular proof:"]:
                return [f"check member: {lines[:2]}"]
            return self._regular_text(lib, lines[2:], self.member(), gen)
        if step.name == "check-non-member":
            return self._negative(res, self.non_member(), "DropsAtLevel(2)")
        if step.name == "prove-regular-json":
            doc = json.loads(res.out)
            self.stats.json_bytes += len(res.out)
            if doc["judgment"] != self.member() or doc["kind"] != "regular":
                return [f"prove --regular: header {doc['judgment']} {doc['kind']}"]
            return self._regular_json(lib, doc["proof"], self.member(), gen)[0]
        return [f"unknown step {step.name}"]


# ---------------------------------------------------------------------------
# cycle-tail


class CycleTail(Workload):
    """An n-rule cycle closed by one coaxiom, plus an n-rule chain held
    up only by a coaxiom at its far end."""

    name = "cycle-tail"
    rule_file = "cycle.coax"

    def __init__(self, seed: int, size: int, workdir: Path):
        super().__init__(seed, size, workdir)
        n = size
        names = _names(self.rng, 2 * n + 1, 7)
        self.cycle = names[:n]
        self.chain = names[n:]          # chain[n] carries the coaxiom
        lines = [f"{self.cycle[i]} <- {self.cycle[(i + 1) % n]}." for i in range(n)]
        lines += [f"{self.chain[i]} <- {self.chain[i + 1]}." for i in range(n)]
        lines += [f"co {self.cycle[0]}.", f"co {self.chain[n]}."]
        self.rng.shuffle(lines)
        self.lines = lines
        self.member = self.cycle[n // 2]
        self.deep = self.cycle[0]
        spec = [f"{p}." for p in self.cycle]
        self.rng.shuffle(spec)
        self.spec = spec
        # Regular rule i of the parsed system is the i-th non-co line.
        self.regular = [ln for ln in lines if not ln.startswith("co ")]

    def write_inputs(self) -> None:
        Path(self.path(self.rule_file)).write_text("\n".join(self.lines) + "\n")
        Path(self.path("cycle.spec")).write_text("\n".join(self.spec) + "\n")

    def bound_set(self) -> set[str]:
        return set(self.cycle) | set(self.chain)

    def steps(self) -> list[Step]:
        f = self.path(self.rule_file)
        return [
            Step("generated", "generated", 0, ["generated", f]),
            Step("coind", "coind", 0, ["coind", f]),
            Step("check-member", "check", 0, ["check", f, self.member]),
            Step("check-non-member", "check", 1, ["check", f, self.chain[0]]),
            Step("bcp", "bcp", 0, ["bcp", f, self.path("cycle.spec")]),
            Step("prove-regular", "prove", 0, ["prove", f, self.member, "--regular"]),
        ]

    def probe_step(self) -> Step:
        """``check --format json`` on a member whose regular proof is n deep."""
        return Step("probe-deep-json", "probe", 0,
                    ["check", self.path(self.rule_file), self.deep, "--format", "json"])

    def _rules_engine_free(self, lines: list[str]) -> list[str]:
        """Each regular-proof line must cite the rule of the input that
        concludes that judgment from the next cycle member."""
        try:
            _, choice = _parse_regular_text(lines)
        except ValueError as e:
            return [str(e)]
        for j, (ix, prem) in choice.items():
            if not 0 <= ix < len(self.regular) or \
                    self.regular[ix] != f"{j} <- {', '.join(prem)}.":
                return [f"rule {ix} cited for {j} is not its input rule"]
        return []

    def check(self, step, res, outputs, lib):
        cyc = set(self.cycle)
        n = len(self.cycle)
        if step.name in ("generated", "coind"):
            return self._interp(res, step.name, cyc)
        if step.name == "check-member":
            lines = res.out.splitlines()
            if lines[:2] != [f"derivable: {self.member}", "regular proof:"]:
                return [f"check member: {lines[:2]}"]
            return (self._rules_engine_free(lines[2:])
                    or self._regular_text(lib, lines[2:], self.member, cyc)
                    or self._full_cycle(lines[2:]))
        if step.name == "check-non-member":
            errs = self._negative(res, self.chain[0], f"DropsAtLevel({n + 1})")
            return errs or self._bound(lib)
        if step.name == "bcp":
            want = f"accepted ({n} judgments)"
            return [] if res.out.splitlines() == [want] else [f"bcp: {res.out[:80]!r}"]
        if step.name == "prove-regular":
            lines = res.out.splitlines()
            if lines[:1] != [f"regular proof of {self.member}:"]:
                return [f"prove --regular: {lines[:1]}"]
            return (self._rules_engine_free(lines[1:])
                    or self._regular_text(lib, lines[1:], self.member, cyc)
                    or self._full_cycle(lines[1:]))
        if step.name == "probe-deep-json":
            doc = json.loads(res.out)
            return self._regular_json(lib, doc["proof"], self.deep, cyc)[0]
        return [f"unknown step {step.name}"]

    def _full_cycle(self, lines: list[str]) -> list[str]:
        # Proof-node count: a member's regular proof covers the whole cycle.
        got = len(lines) - 1
        return [] if got == len(self.cycle) else [f"regular proof has {got} nodes"]

    def _bound(self, lib) -> list[str]:
        b = lib.engine.bound(self.system(lib)).judgments
        if {render(lib, j) for j in b} != self.bound_set():
            return ["bound differs from the cycle plus the chain"]
        return []


# ---------------------------------------------------------------------------
# proof-ladder


class ProofLadder(Workload):
    """k rungs; both premises of each rung rest on the previous rung,
    and a coaxiom closes the ladder into a cycle."""

    name = "proof-ladder"
    calibration = ("hash", "json")
    rule_file = "ladder.coax"

    def __init__(self, seed: int, size: int, workdir: Path):
        super().__init__(seed, size, workdir)
        k = size
        names = _names(self.rng, 3 * k + 2, 6)
        self.x = names[:k + 1]
        self.y = [""] + names[k + 1:2 * k + 1]
        self.z = [""] + names[2 * k + 1:3 * k + 1]
        self.absent = names[3 * k + 1]
        lines = [f"{self.x[0]} <- {self.x[k]}.", f"co {self.x[0]}."]
        for i in range(1, k + 1):
            lines += [f"{self.x[i]} <- {self.y[i]}, {self.z[i]}.",
                      f"{self.y[i]} <- {self.x[i - 1]}.",
                      f"{self.z[i]} <- {self.x[i - 1]}."]
        self.rng.shuffle(lines)
        self.lines = lines
        self.top = self.x[k]
        self.level = k

    def write_inputs(self) -> None:
        Path(self.path(self.rule_file)).write_text("\n".join(self.lines) + "\n")

    def judgments(self) -> set[str]:
        return set(self.x) | set(self.y[1:]) | set(self.z[1:])

    def tree_counts(self) -> dict[str, int]:
        """How often each judgment occurs in the well-founded proof of
        the top: x_i, y_i and z_i each 2^(k-i) times, 2^(k+2)-3 in all."""
        k = len(self.x) - 1
        counts = {self.x[i]: 2 ** (k - i) for i in range(k + 1)}
        for i in range(1, k + 1):
            counts[self.y[i]] = counts[self.z[i]] = 2 ** (k - i)
        return counts

    def steps(self) -> list[Step]:
        f = self.path(self.rule_file)
        t = self.top
        return [
            Step("generated", "generated", 0, ["generated", f]),
            Step("prove-text", "prove", 0, ["prove", f, t]),
            Step("prove-json", "prove", 0, ["prove", f, t, "--format", "json"]),
            Step("prove-level-json", "prove", 0,
                 ["prove", f, t, "--level", str(self.level), "--format", "json"]),
            Step("prove-regular-json", "prove", 0,
                 ["prove", f, t, "--regular", "--format", "json"]),
            Step("check-json", "check", 0, ["check", f, t, "--format", "json"]),
            Step("check-non-member", "check", 1, ["check", f, self.absent]),
            Step("verify", "verify", 0, fn=self.verify),
        ]

    # The verify step is a library consumer of the emitted JSON: load
    # the rules, load each proof and validate it.  It is timed.
    VERIFIED = (("prove-json", "wf-extended", None),
                ("prove-level-json", "approx", "level"),
                ("prove-regular-json", "regular-generated", None),
                ("check-json", "regular-generated", None))

    def verify(self, outputs: dict[str, Outcome], lib) -> tuple[int, str]:
        with open(self.path(self.rule_file), encoding="utf-8") as fh:
            sys_ = lib.dsl.parse_system(fh.read())
        lines = []
        for name, mode, level in self.VERIFIED:
            proof = lib.proofs.proof_from_dict(json.loads(outputs[name].out)["proof"])
            report = lib.proofs.validate(sys_, proof, mode,
                                         level=self.level if level else None)
            lines.append(f"{name}: {report.mode} ok={report.ok}")
        return 0, "\n".join(lines) + "\n"

    def check(self, step, res, outputs, lib):
        k = len(self.x) - 1
        nodes = 2 ** (k + 2) - 3
        if step.name == "generated":
            return self._interp(res, "generated", self.judgments())
        if step.name == "prove-text":
            lines = res.out.splitlines()
            if lines[:1] != [f"wf proof of {self.top}:"]:
                return [f"prove: {lines[:1]}"]
            counts: dict[str, int] = {}
            for line in lines[1:]:
                j = line.strip().partition("   [rule ")[0]
                counts[j] = counts.get(j, 0) + 1
            self.stats.nodes += len(lines) - 1
            self.stats.distinct += len(counts)
            return [] if counts == self.tree_counts() else ["wf proof text counts differ"]
        if step.name in ("prove-json", "prove-level-json"):
            doc = json.loads(res.out)
            self.stats.json_bytes += len(res.out)
            kind = "wf" if step.name == "prove-json" else f"approx({self.level})"
            if doc["judgment"] != self.top or doc["kind"] != kind:
                return [f"{step.name}: header {doc['judgment']} {doc['kind']}"]
            counts = _json_multiset(doc["proof"])
            self.stats.nodes += sum(counts.values())
            self.stats.distinct += len(counts)
            if counts != self.tree_counts() or sum(counts.values()) != nodes:
                return [f"{step.name}: node counts differ from the closed form"]
            return []
        if step.name in ("prove-regular-json", "check-json"):
            doc = json.loads(res.out)
            self.stats.json_bytes += len(res.out)
            if doc["judgment"] != self.top:
                return [f"{step.name}: judgment {doc['judgment']}"]
            if step.name == "check-json" and doc.get("derivable") is not True:
                return ["check --format json: not derivable"]
            errs, got = self._regular_json(lib, doc["proof"], self.top, self.judgments())
            if got != 4 * k + 2:
                errs.append(f"{step.name}: {got} nodes, closed form {4 * k + 2}")
            return errs
        if step.name == "check-non-member":
            return self._negative(res, self.absent, "NotInBound")
        if step.name == "verify":
            want = [f"{name}: {mode if mode != 'approx' else f'approx({self.level})'} ok=True"
                    for name, mode, _ in self.VERIFIED]
            return [] if res.out.splitlines() == want else [f"verify: {res.out!r}"]
        return [f"unknown step {step.name}"]


WORKLOADS = {w.name: w for w in (VisitDense, CycleTail, ProofLadder)}

# Sizes of the gated runs, and the tiny sizes of the self-test.
SIZES = {"visit-dense": 5, "cycle-tail": 500, "proof-ladder": 12}
TINY = {"visit-dense": 3, "cycle-tail": 10, "proof-ladder": 4}
