"""Command-line frontend.

Subcommands:

* ``ind | coind | generated FILE`` — compute an interpretation of the
  rule file, optionally with the per-iteration trace;
* ``prove FILE JUDGMENT [--level N | --regular] [--max-nodes N]`` —
  build a proof object (well-founded, approximated, or regular), or a
  level witness when there is none;
* ``check FILE JUDGMENT`` — membership in the generated interpretation:
  ``prove --regular`` under its own headings and JSON keys;
* ``bcp FILE SPECFILE`` — run the bounded coinduction check on a
  candidate set of judgments;
* ``gen KIND INPUT`` — ground one of the worked generators into a rule
  file.

Each subcommand computes its result once and returns its exit status
with a ``render(format)`` function.  Its text ends with a newline, and
:func:`main` writes each result once, with one ``write``: text or DOT
as it is, a JSON value through :func:`_json_text`.  A large output is
built once and never copied again to add its newline.
``gen --output`` writes its rule file itself, in place: it opens OUT
without truncating it, writes the text, then cuts the file at its end.
The end state is that of ``open(OUT, "w")``, symlinks, hard links and
mode included.  But ext4 (``auto_da_alloc``) flushes a file that was
truncated to zero and written again, and each rewrite of OUT waited
for the flush of the one before it.  JSON and the text of a
well-founded proof are written by the package's one pre-order writer,
``terms._write``, which copies a shared subtree instead of writing it
again, as one string when its text is short.  A well-founded or approximated proof is small as a DAG but can
be exponential as a tree, so ``prove`` counts its tree first
(``proofs.tree_size``) and refuses one of more than ``--max-nodes``
nodes before writing anything.

Exit status: 0 success / derivable / accepted; 1 not derivable /
rejected; 2 usage or parse errors, and input nested too deeply; 3
exceeded budgets, ``--max-nodes`` included.  Results go to stdout, diagnostics to stderr.  Set
output is always in canonical term order, so identical inputs print
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Optional, Sequence, Union

from .checks import DropsAtLevel, NotInBound, bounded_coinduction, level_witness
from .dsl import ParseError, parse_judgment, parse_judgments, parse_system, \
    render_system
from .engine import (DEFAULT_BUDGET, BudgetExceeded, Interpretation, System,
                     _layers, coind, generated, ind, sort_judgments)
from . import gen
from .gen import (ClosureBudgetExceeded, DEFAULT_CAP, DEFAULT_CARRIES,
                  DEFAULT_CLOSURE_BUDGET, InstantiationTooLarge,
                  LIST_PREDICATES, MalformedEquations)
from .proofs import (RegularProof, RuleRef, WfProof, proof_to_dict,
                     prove_approx, prove_regular, prove_wf, tree_size)
from .terms import _paused, _write, render_term

__all__ = ["main"]


def __getattr__(name: str):
    """The ``gen_*`` and ``parse_*`` names of :mod:`.gen`, loaded when
    ``gen`` first runs.  ``_cmd_gen`` reads them as attributes of this
    module, so that replacing one here takes effect."""
    if name.startswith(("gen_", "parse_")) and name in gen.__all__:
        return getattr(gen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The default of ``prove --max-nodes``: the most nodes a proof written
# out as a tree may have.
DEFAULT_MAX_NODES = 1_000_000

# What a subcommand returns: exit status and render(format), if any.
Result = tuple[int, Optional[Callable[[str], object]]]


# ---------------------------------------------------------------------------
# rendering helpers

def _rule_id(ref: RuleRef) -> str:
    return f"co {ref.index}" if ref.co else str(ref.index)


def _wf_line(node: WfProof, depth: int) -> tuple:
    """A wf proof node as its line indented by depth, then its children."""
    return (f"{'  ' * depth}{render_term(node.judgment)}"
            f"   [rule {_rule_id(node.rule)}]",
            (("\n", c) for c in node.children), "")


def _render_regular(proof: RegularProof, sys_: System, heading: str) -> str:
    out = [heading, f"root: {render_term(proof.root)}"]
    for j in sort_judgments(proof.choice):
        rule = sys_.regular_rules[proof.choice[j]]
        premises = ", ".join(render_term(p) for p in rule.premises)
        out.append(f"{render_term(j)} <- rule {proof.choice[j]}"
                   + (f": {premises}" if premises else "   (axiom)"))
    out.append("")
    return "\n".join(out)


def _witness(w: Union[NotInBound, DropsAtLevel]) -> tuple[str, dict]:
    """The witness as text and as a JSON value.  ``prove`` reads it at
    ``--level N`` if given, else at the budget, and finds no proof only
    outside the bound or on a drop at that level or below, so no
    witness it prints says that the judgment survives."""
    if isinstance(w, NotInBound):
        return "NotInBound", {"kind": "not-in-bound"}
    return (f"DropsAtLevel({w.level})",
            {"kind": "drops-at-level", "level": w.level})


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_wf(proof: WfProof) -> str:
    """Nodes numbered in pre-order; the edge to a child follows the
    lines of the child's subtree."""
    lines = ["digraph proof {", "  rankdir=TB;"]
    # Open nodes, innermost last: (name, rule label, remaining children).
    stack: list[tuple[str, str, Iterator[WfProof]]] = []
    node: Optional[WfProof] = proof
    count = 0
    while True:
        if node is not None:
            name = f"n{count}"
            count += 1
            lines.append(f'  {name} [label="{_dot_escape(render_term(node.judgment))}"];')
            stack.append((name, _rule_id(node.rule), iter(node.children)))
        name, _, children = stack[-1]
        node = next(children, None)
        if node is None:
            stack.pop()
            if not stack:
                break
            parent, label, _ = stack[-1]
            lines.append(f'  {parent} -> {name} [label="{label}"];')
    lines.append("}\n")
    return "\n".join(lines)


def _dot_regular(proof: RegularProof, sys_: System) -> str:
    """Nodes in canonical order; edges in the pre-order of
    :func:`proof_to_dict`, an edge to a back-reference dashed."""
    ordered = [render_term(j) for j in sort_judgments(proof.choice)]
    names = {j: f"n{i}" for i, j in enumerate(ordered)}
    lines = ["digraph proof {", "  rankdir=TB;"]
    lines += [f'  {names[j]} [label="{_dot_escape(j)}"];' for j in ordered]
    todo = [(None, proof_to_dict(proof, sys_))]
    while todo:
        parent, node = todo.pop()
        if parent is not None:
            style = ", style=dashed" if node.get("back") else ""
            lines.append(f'  {names[parent["judgment"]]} -> {names[node["judgment"]]}'
                         f' [label="{parent["rule"]}"{style}];')
        todo += ((node, c) for c in reversed(node.get("children", ())))
    lines.append("}\n")
    return "\n".join(lines)


def _entries(container, indent: str):
    """(text before the item, item) for each item of a non-empty
    container whose items sit at ``indent``."""
    sep, comma = "\n" + indent, ",\n" + indent
    if isinstance(container, dict):
        for key, item in container.items():
            yield sep + encode_basestring_ascii(key) + ": ", item
            sep = comma
    else:
        for item in container:
            yield sep, item
            sep = comma


def _json_node(value, depth: int):
    if isinstance(value, (dict, list, tuple)):
        brackets = "{}" if isinstance(value, dict) else "[]"
        if not value:
            return brackets
        indent = "  " * depth
        return (brackets[0], _entries(value, indent + "  "),
                "\n" + indent + brackets[1])
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    # Written as json.dumps would write them, without its ~1.4 µs a call;
    # the bools before the ints, of which they are a subclass.
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _json_text(value, end: str = "") -> str:
    """``json.dumps(value, indent=2) + end``, byte for byte (keys must
    be str).

    Every JSON output of the CLI goes through here, with ``end`` its
    newline.  A container met again at the same depth, such as a
    subproof that :func:`proof_to_dict` shares, is copied (see
    ``terms._write``).
    """
    return _write(value, _json_node, "", end)


# ---------------------------------------------------------------------------
# subcommands

def _load_system(path: str) -> System:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def _cmd_interpret(args: argparse.Namespace) -> Result:
    sys_ = _load_system(args.file)
    fn = {"ind": ind, "coind": coind, "generated": generated}[args.mode]
    interp: Interpretation = fn(sys_, budget=args.max_iters)
    judgments = [render_term(j) for j in interp.sorted_judgments()]
    # (heading, JSON key, pass)
    if not args.trace:
        traces = []
    elif args.mode == "generated":
        traces = [("phase 1 (ascending)", "phase1", interp.phase1),
                  ("phase 2 (descending)", "phase2", interp)]
    else:
        direction = "descending" if args.mode == "coind" else "ascending"
        traces = [(f"trace ({direction})", None, interp)]

    def render(fmt: str):
        if fmt == "json":
            doc = {"interpretation": args.mode, "judgments": judgments}
            if traces:
                sets = {key: _layers(pass_, render_term,
                                     lambda _, d: list(d.values()))
                        for _, key, pass_ in traces}
                doc["trace"] = sets if args.mode == "generated" else sets[None]
            return doc
        out = []
        for heading, _, pass_ in traces:
            out.append(heading + ":")
            # Each line is joined as its set is reached, so no set is kept.
            out += _layers(pass_, render_term,
                           lambda i, d: f"({i}) {', '.join(d.values())}")
        if traces:
            out.append("")
        out.append(f"{args.mode} ({len(judgments)} judgments):")
        return "\n".join(out + judgments + [""])

    return EXIT_OK, render


def _cmd_prove(args: argparse.Namespace) -> Result:
    """``prove``, and ``check`` as ``prove --regular`` under its own
    headings and with ``derivable`` in place of ``kind``."""
    sys_ = _load_system(args.file)
    j, budget = parse_judgment(args.judgment), args.max_iters
    if args.regular:
        kind = "regular"
        proof = prove_regular(sys_, j, budget)
    elif args.level is not None:
        kind = f"approx({args.level})"
        proof = prove_approx(sys_, j, args.level, budget)
    else:
        kind = "wf"
        proof = prove_wf(sys_, j, budget)
    check, name = args.command == "check", render_term(j)
    if proof is None:
        level = budget if args.level is None else args.level
        text, doc = _witness(level_witness(sys_, j, level, budget))
        head = {"derivable": False} if check else {"proof": None, "kind": kind}
        missing = "" if check else f" has no {kind} proof"
        return EXIT_NEGATIVE, lambda fmt: (
            {"judgment": name, **head, "witness": doc} if fmt == "json"
            else f"NotDerivable: {name}{missing}\nwitness: {text}\n")

    regular = isinstance(proof, RegularProof)
    if not regular:
        size = tree_size(proof)
        if size > args.max_nodes:
            raise TreeTooLarge(
                f"the {kind} proof of {name} has {size} nodes as a tree, over "
                f"--max-nodes {args.max_nodes}; --regular gives one line per "
                f"judgment")

    def render(fmt: str):
        if fmt == "json":
            head = {"derivable": True} if check else {"kind": kind}
            return {"judgment": name, **head,
                    "proof": proof_to_dict(proof, sys_)}
        if fmt == "dot":
            return _dot_regular(proof, sys_) if regular else _dot_wf(proof)
        heading = (f"derivable: {name}\nregular proof:" if check
                   else f"{kind} proof of {name}:")
        if regular:
            return _render_regular(proof, sys_, heading)
        return _write(proof, _wf_line, heading + "\n", "\n")

    return EXIT_OK, render


def _cmd_bcp(args: argparse.Namespace) -> Result:
    sys_ = _load_system(args.file)
    with open(args.specfile, "r", encoding="utf-8") as fh:
        candidate = frozenset(parse_judgments(fh.read()))
    verdict = bounded_coinduction(sys_, candidate, budget=args.max_iters)

    def render(fmt: str):
        if fmt == "json":
            return {"accepted": verdict.accepted,
                    "candidate": [render_term(j) for j in sort_judgments(candidate)],
                    "failures": [{"judgment": render_term(j), "reason": r}
                                 for j, r in verdict.failures]}
        if verdict.accepted:
            return f"accepted ({len(candidate)} judgments)\n"
        return "".join(["rejected:\n"] + [f"  {render_term(j)}: {reason}\n"
                                          for j, reason in verdict.failures])

    return (EXIT_OK if verdict.accepted else EXIT_NEGATIVE), render


def _parse_carries(text: str) -> tuple[int, ...]:
    """Integers ``-?[0-9]+`` in ASCII, as in every other input language;
    whitespace around an item and empty items are ignored."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not all(re.fullmatch(r"-?[0-9]+", item) for item in items):
        raise ValueError(f"carries must be comma-separated integers: {text!r}")
    return tuple(map(int, items))


def _cmd_gen(args: argparse.Namespace) -> Result:
    """Writes the rule file itself: it has no other format to render."""
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    kind = args.kind
    cli = sys.modules[__name__]
    if kind == "visit":
        system = cli.gen_visit(cli.parse_graph(text), cap=args.cap)
    elif kind in ("dist", "minpath"):
        if args.target is None:
            raise ValueError(f"gen {kind} needs --target NODE")
        fn = cli.gen_dist if kind == "dist" else cli.gen_minpath
        system = fn(cli.parse_graph(text), args.target, cap=args.cap)
    elif kind == "first":
        system = cli.gen_first(cli.parse_grammar(text), cap=args.cap)
    elif kind == "list":
        if args.pred is None or args.root is None:
            raise ValueError("gen list needs --pred PREDICATE and --root VAR")
        x = parse_judgment(args.element) if args.element is not None else None
        system = cli.gen_listpred(cli.parse_equations(text), args.pred,
                                  args.root, x=x, cap=args.cap)
    elif kind == "add":
        if args.roots is None:
            raise ValueError("gen add needs --roots X Y Z")
        carries = _parse_carries(args.carries) if args.carries is not None \
            else DEFAULT_CARRIES
        system = cli.gen_add(cli.parse_equations(text), *args.roots,
                             carries=carries, cap=args.cap)
    else:  # lambda
        system = cli.gen_lambda(cli.parse_lambda(text), budget=args.budget,
                                cap=args.cap)
    rendered = render_system(system)
    if args.output:
        # No O_TRUNC: ext4's auto_da_alloc flushes a file truncated to zero.
        fd = os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(rendered)
            fh.truncate()
        return EXIT_OK, None
    return EXIT_OK, (lambda _format: rendered) if rendered else None


# ---------------------------------------------------------------------------
# argument parsing

def _count(text: str) -> int:
    """The type of every integer option (budgets, caps, the proof
    level): an integer >= 0, in ASCII digits like every other integer
    input."""
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--max-iters", type=_count, default=DEFAULT_BUDGET,
                   metavar="N", help="iteration budget for fixpoint loops")
    p.add_argument("--format", choices=formats, default="text",
                   help="output format")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line; :func:`main` builds one on its
    first call and keeps it for the rest of the process."""
    parser = argparse.ArgumentParser(
        prog="coaxiom",
        description="Inference systems with coaxioms: interpretations, "
                    "proofs, checks, and generators.")
    subs = parser.add_subparsers(dest="command", required=True)

    for mode in ("ind", "coind", "generated"):
        p = subs.add_parser(mode, help=f"compute the {mode} interpretation")
        p.add_argument("file", metavar="FILE", help="rule file")
        p.add_argument("--trace", action="store_true",
                       help="print per-iteration judgment sets")
        _add_common(p, ("text", "json"))
        p.set_defaults(fn=_cmd_interpret, mode=mode)

    p = subs.add_parser("check", help="is a judgment in the generated "
                                      "interpretation?")
    p.add_argument("file", metavar="FILE", help="rule file")
    p.add_argument("judgment", metavar="JUDGMENT", help="judgment term")
    _add_common(p, ("text", "json"))
    p.set_defaults(fn=_cmd_prove, regular=True, level=None)

    p = subs.add_parser("prove", help="build a proof object")
    p.add_argument("file", metavar="FILE", help="rule file")
    p.add_argument("judgment", metavar="JUDGMENT", help="judgment term")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--level", type=_count, metavar="N",
                       help="approximated proof at this level")
    group.add_argument("--regular", action="store_true",
                       help="regular (cyclic) proof over the generated "
                            "interpretation")
    p.add_argument("--max-nodes", type=_count, default=DEFAULT_MAX_NODES,
                   metavar="N", help="most nodes a well-founded or "
                                     "approximated proof may have as a tree")
    _add_common(p, ("text", "json", "dot"))
    p.set_defaults(fn=_cmd_prove)

    p = subs.add_parser("bcp", help="bounded coinduction check of a "
                                    "candidate judgment set")
    p.add_argument("file", metavar="FILE", help="rule file")
    p.add_argument("specfile", metavar="SPECFILE",
                   help="candidate judgments, one term per '.' statement")
    _add_common(p, ("text", "json"))
    p.set_defaults(fn=_cmd_bcp)

    p = subs.add_parser("gen", help="ground a worked generator into rules")
    p.add_argument("kind", metavar="KIND",
                   choices=("visit", "dist", "minpath", "first", "list",
                            "add", "lambda"))
    p.add_argument("input", metavar="INPUT", help="input description file")
    p.add_argument("-o", "--output", metavar="OUT",
                   help="write the rule file here instead of stdout")
    p.add_argument("--cap", type=_count, default=DEFAULT_CAP, metavar="N",
                   help="bound on the rules counted before grounding")
    p.add_argument("--target", metavar="NODE",
                   help="target node (dist, minpath)")
    p.add_argument("--pred", metavar="PRED", choices=LIST_PREDICATES,
                   help="list predicate (list)")
    p.add_argument("--root", metavar="VAR",
                   help="root equation variable (list)")
    p.add_argument("--element", metavar="TERM",
                   help="element term for the member predicate (list)")
    p.add_argument("--roots", nargs=3, metavar=("X", "Y", "Z"),
                   help="the three stream variables (add)")
    p.add_argument("--carries", metavar="C1,C2,...",
                   help=f"allowed carries (add); default "
                        f"{','.join(map(str, DEFAULT_CARRIES))}")
    p.add_argument("--budget", type=_count, default=DEFAULT_CLOSURE_BUDGET,
                   metavar="N", help="closure size budget (lambda)")
    p.set_defaults(fn=_cmd_gen, format="text")  # a rule file has one format

    return parser


class TreeTooLarge(Exception):
    """A proof to write out as a tree has more nodes than ``--max-nodes``."""


# (exception, label of its message on stderr, exit status), matched in order
_ERRORS = (
    (ParseError, "parse error", EXIT_USAGE),
    (MalformedEquations, "malformed equations", EXIT_USAGE),
    (ValueError, "error", EXIT_USAGE),
    (RecursionError, "error: input nested too deeply", EXIT_USAGE),
    (OSError, "io error", EXIT_USAGE),
    (InstantiationTooLarge, "instantiation too large", EXIT_BUDGET),
    (ClosureBudgetExceeded, "closure budget exceeded", EXIT_BUDGET),
    (TreeTooLarge, "proof too large", EXIT_BUDGET),
    (BudgetExceeded, "iteration budget exceeded", EXIT_BUDGET),
    (MemoryError, "error: out of memory", EXIT_BUDGET),
)
# Built at import: a handler short of memory must not allocate first.
_ERROR_CLASSES = tuple(cls for cls, _, _ in _ERRORS)


# The parser main builds on its first call, not at import.
_parser: Optional[argparse.ArgumentParser] = None


@_paused
def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        status, render = args.fn(args)
        if render is not None:
            result = render(args.format)
            text = result if isinstance(result, str) else _json_text(result, "\n")
            try:
                sys.stdout.write(text)
                sys.stdout.flush()  # so that a closed pipe shows here
            except BrokenPipeError:
                # The reader stopped early, which changes nothing about
                # the result.  Point stdout at devnull, as the signal
                # module's documentation does, so that the flush at
                # exit cannot fail again.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        return status
    except _ERROR_CLASSES as e:
        error = e
    # Let go of the command's frames and output before allocating; past the
    # handler, as Python 3.10 holds the traceback until the handler ends.
    error.__traceback__ = error.__context__ = error.__cause__ = None
    render = result = text = None
    label, status = next((label, status) for cls, label, status in _ERRORS
                         if isinstance(error, cls))
    message = str(error)  # empty for a bare MemoryError
    sys.stderr.write(f"{label}: {message}\n" if message else label + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
