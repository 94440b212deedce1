"""Command-line frontend.

Subcommands:

* ``ind | coind | generated FILE`` — compute an interpretation of the
  rule file, optionally with the per-iteration trace;
* ``check FILE JUDGMENT`` — membership in the generated interpretation,
  with a regular proof on success and a level witness on failure;
* ``prove FILE JUDGMENT [--level N | --regular]`` — build a proof
  object (well-founded, approximated, or regular);
* ``bcp FILE SPECFILE`` — run the bounded coinduction check on a
  candidate set of judgments;
* ``gen KIND INPUT`` — ground one of the worked generators into a rule
  file.

Exit status: 0 success / derivable / accepted; 1 not derivable /
rejected; 2 usage or parse errors; 3 exceeded budgets.  Results go to
stdout, diagnostics to stderr.  Set output is always in canonical term
order, so identical inputs print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence, Union

from .checks import (DropsAtLevel, NotInBound, SurvivesTo,
                     bounded_coinduction, level_witness)
from .dsl import ParseError, parse_judgment, parse_judgments, parse_system, \
    render_system
from .engine import (DEFAULT_BUDGET, BudgetExceeded, Interpretation, System,
                     analyse, coind, generated, ind, sort_judgments)
from .gen import (ClosureBudgetExceeded, DEFAULT_CAP, DEFAULT_CARRIES,
                  DEFAULT_CLOSURE_BUDGET, InstantiationTooLarge,
                  LIST_PREDICATES, MalformedEquations, gen_add, gen_dist,
                  gen_first, gen_lambda, gen_listpred, gen_minpath, gen_visit,
                  parse_equations, parse_grammar, parse_graph, parse_lambda)
from .proofs import (APPROX, REGULAR_GENERATED, RegularProof, RuleRef,
                     WF_EXTENDED, WfProof, proof_to_dict, prove_approx,
                     prove_regular, prove_wf)
from .terms import Term, render_term

__all__ = ["main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# rendering helpers

def _set_line(judgments: Iterable[Term]) -> str:
    return ", ".join(render_term(j) for j in sort_judgments(judgments))


def _trace_lines(trace: Sequence[frozenset], out: list[str]) -> None:
    for i, entry in enumerate(trace, start=1):
        out.append(f"({i}) {_set_line(entry)}")


def _rule_id(ref: RuleRef) -> str:
    return f"co {ref.index}" if ref.co else str(ref.index)


def _render_wf(proof: WfProof, out: list[str]) -> None:
    """The tree in pre-order, each node indented by its depth.

    The lines a subtree fills are recorded under its identity and
    depth, so a subproof shared in memory and met again at the same
    depth is copied instead of being rendered again.
    """
    spans: dict[tuple[int, int], tuple[int, int]] = {}
    # Nodes still to write, and (None, (span key, first line)) markers
    # that close the subtree opened before them.
    todo: list[tuple] = [(proof, 0)]
    while todo:
        node, depth = todo.pop()
        if node is None:
            key, start = depth
            spans[key] = start, len(out)
            continue
        key = (id(node), depth)
        span = spans.get(key)
        if span is not None:
            out += out[span[0]:span[1]]
            continue
        todo.append((None, (key, len(out))))
        out.append(f"{'  ' * depth}{render_term(node.judgment)}"
                   f"   [rule {_rule_id(node.rule)}]")
        todo += [(c, depth + 1) for c in reversed(node.children)]


def _render_regular(proof: RegularProof, sys_: System, out: list[str]) -> None:
    out.append(f"root: {render_term(proof.root)}")
    for j in sort_judgments(proof.choice):
        rule = sys_.regular_rules[proof.choice[j]]
        premises = ", ".join(render_term(p) for p in rule.premises)
        out.append(f"{render_term(j)} <- rule {proof.choice[j]}"
                   + (f": {premises}" if premises else "   (axiom)"))


def _witness_str(w: Union[NotInBound, DropsAtLevel, SurvivesTo]) -> str:
    if isinstance(w, NotInBound):
        return "NotInBound"
    if isinstance(w, DropsAtLevel):
        return f"DropsAtLevel({w.level})"
    suffix = ", at fixpoint" if w.at_fixpoint else ""
    return f"SurvivesTo({w.level}{suffix})"


def _witness_dict(w: Union[NotInBound, DropsAtLevel, SurvivesTo]) -> dict:
    if isinstance(w, NotInBound):
        return {"kind": "not-in-bound"}
    if isinstance(w, DropsAtLevel):
        return {"kind": "drops-at-level", "level": w.level}
    return {"kind": "survives-to", "level": w.level,
            "at_fixpoint": w.at_fixpoint}


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
    lines.append("}")
    return "\n".join(lines)


def _dot_regular(proof: RegularProof, sys_: System) -> str:
    """Nodes in canonical order; edges depth-first from the root, an
    edge to a judgment already expanded dashed."""
    ordered = sort_judgments(proof.choice)
    names = {j: f"n{i}" for i, j in enumerate(ordered)}
    lines = ["digraph proof {", "  rankdir=TB;"]
    for j in ordered:
        lines.append(f'  {names[j]} [label="{_dot_escape(render_term(j))}"];')
    expanded = {proof.root}
    ix = proof.choice[proof.root]
    # Expanded judgments, innermost last: (judgment, rule, remaining premises).
    stack = [(proof.root, ix, iter(sys_.regular_rules[ix].premises))]
    while stack:
        j, ix, premises = stack[-1]
        p = next(premises, None)
        if p is None:
            stack.pop()
        elif p in expanded:
            lines.append(f'  {names[j]} -> {names[p]} [label="{ix}", style=dashed];')
        else:
            lines.append(f'  {names[j]} -> {names[p]} [label="{ix}"];')
            expanded.add(p)
            ip = proof.choice[p]
            stack.append((p, ip, iter(sys_.regular_rules[ip].premises)))
    lines.append("}")
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


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte (keys must be str).

    Every JSON output of the CLI goes through here.  The writer keeps
    its own stack, so nesting depth is not limited by the interpreter
    stack.  Text goes to one list of pieces, and the pieces each
    container fills are recorded under its identity and depth: a
    container met again at the same depth, such as a subproof that
    :func:`proof_to_dict` shares, is copied as a slice of the list
    instead of being written again.
    """
    out: list[str] = []
    spans: dict[tuple[int, int], tuple[int, int]] = {}
    # Open containers: (span key, first piece, entries, closing piece).
    stack: list[tuple] = []
    while True:
        if isinstance(value, (dict, list, tuple)):
            key = (id(value), len(stack))
            span = spans.get(key)
            brackets = "{}" if isinstance(value, dict) else "[]"
            if span is not None:  # a repeat: copy its pieces
                out += out[span[0]:span[1]]
            elif not value:
                out.append(brackets)
            else:
                indent = "  " * len(stack)
                stack.append((key, len(out), _entries(value, indent + "  "),
                              "\n" + indent + brackets[1]))
                out.append(brackets[0])
        elif isinstance(value, str):
            out.append(encode_basestring_ascii(value))
        else:
            out.append(json.dumps(value))
        # Find the next item to write, closing every container that
        # has none left.
        while stack:
            key, start, entries, close = stack[-1]
            entry = next(entries, None)
            if entry is not None:
                break
            stack.pop()
            out.append(close)
            spans[key] = (start, len(out))
        else:
            return "".join(out)
        prefix, value = entry
        out.append(prefix)


# ---------------------------------------------------------------------------
# subcommands

def _load_system(path: str) -> System:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def _cmd_interpret(args: argparse.Namespace) -> int:
    sys_ = _load_system(args.file)
    fn = {"ind": ind, "coind": coind, "generated": generated}[args.mode]
    interp: Interpretation = fn(sys_, budget=args.max_iters)
    if args.format == "json":
        payload = {
            "interpretation": args.mode,
            "judgments": [render_term(j) for j in interp.sorted_judgments()],
        }
        if args.trace:
            if args.mode == "generated":
                payload["trace"] = {
                    "phase1": [[render_term(j) for j in sort_judgments(s)]
                               for s in interp.phase1.trace],
                    "phase2": [[render_term(j) for j in sort_judgments(s)]
                               for s in interp.trace],
                }
            else:
                payload["trace"] = [[render_term(j) for j in sort_judgments(s)]
                                    for s in interp.trace]
        print(_json_text(payload))
        return EXIT_OK
    out: list[str] = []
    if args.trace:
        if args.mode == "generated":
            out.append("phase 1 (ascending):")
            _trace_lines(interp.phase1.trace, out)
            out.append("phase 2 (descending):")
            _trace_lines(interp.trace, out)
        else:
            direction = "descending" if args.mode == "coind" else "ascending"
            out.append(f"trace ({direction}):")
            _trace_lines(interp.trace, out)
        out.append("")
    out.append(f"{args.mode} ({len(interp.judgments)} judgments):")
    out.extend(render_term(j) for j in interp.sorted_judgments())
    print("\n".join(out))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    sys_ = _load_system(args.file)
    j = parse_judgment(args.judgment)
    interp = generated(sys_, budget=args.max_iters)
    if j in interp:
        proof = prove_regular(sys_, j, interp=interp)
        if args.format == "json":
            print(_json_text({
                "judgment": render_term(j),
                "derivable": True,
                "proof": proof_to_dict(proof, sys_),
            }))
        else:
            lines = [f"derivable: {render_term(j)}", "regular proof:"]
            _render_regular(proof, sys_, lines)
            print("\n".join(lines))
        return EXIT_OK
    witness = level_witness(sys_, j, args.max_iters, interp=interp)
    if args.format == "json":
        print(_json_text({
            "judgment": render_term(j),
            "derivable": False,
            "witness": _witness_dict(witness),
        }))
    else:
        print(f"NotDerivable: {render_term(j)}")
        print(f"witness: {_witness_str(witness)}")
    return EXIT_NEGATIVE


def _cmd_prove(args: argparse.Namespace) -> int:
    sys_ = _load_system(args.file)
    j = parse_judgment(args.judgment)
    # A regular proof needs the bounded fixed point itself, so its
    # descent is held to the budget; the other proofs only read levels.
    phases = generated if args.regular else analyse
    interp = phases(sys_, budget=args.max_iters)
    if args.regular:
        kind = "regular"
        proof = prove_regular(sys_, j, interp=interp)
    elif args.level is not None:
        kind = f"approx({args.level})"
        proof = prove_approx(sys_, j, args.level, interp=interp)
    else:
        kind = "wf"
        proof = prove_wf(sys_, j, interp=interp)
    if proof is None:
        witness = level_witness(sys_, j, args.max_iters, interp=interp)
        if args.format == "json":
            print(_json_text({
                "judgment": render_term(j),
                "proof": None,
                "kind": kind,
                "witness": _witness_dict(witness),
            }))
        else:
            print(f"NotDerivable: {render_term(j)} has no {kind} proof")
            print(f"witness: {_witness_str(witness)}")
        return EXIT_NEGATIVE
    if args.format == "json":
        print(_json_text({
            "judgment": render_term(j),
            "kind": kind,
            "proof": proof_to_dict(proof, sys_),
        }))
    elif args.format == "dot":
        if isinstance(proof, RegularProof):
            print(_dot_regular(proof, sys_))
        else:
            print(_dot_wf(proof))
    else:
        lines = [f"{kind} proof of {render_term(j)}:"]
        if isinstance(proof, RegularProof):
            _render_regular(proof, sys_, lines)
        else:
            _render_wf(proof, lines)
        print("\n".join(lines))
    return EXIT_OK


def _cmd_bcp(args: argparse.Namespace) -> int:
    sys_ = _load_system(args.file)
    with open(args.specfile, "r", encoding="utf-8") as fh:
        candidate = frozenset(parse_judgments(fh.read()))
    verdict = bounded_coinduction(sys_, candidate, budget=args.max_iters)
    if args.format == "json":
        print(_json_text({
            "accepted": verdict.accepted,
            "candidate": [render_term(j) for j in sort_judgments(candidate)],
            "failures": [{"judgment": render_term(j), "reason": r}
                         for j, r in verdict.failures],
        }))
    elif verdict.accepted:
        print(f"accepted ({len(candidate)} judgments)")
    else:
        print("rejected:")
        for j, reason in verdict.failures:
            print(f"  {render_term(j)}: {reason}")
    return EXIT_OK if verdict.accepted else EXIT_NEGATIVE


def _parse_carries(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"carries must be comma-separated integers: {text!r}")


def _cmd_gen(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    kind = args.kind
    if kind == "visit":
        system = gen_visit(parse_graph(text), cap=args.cap)
    elif kind in ("dist", "minpath"):
        if not args.target:
            raise ValueError(f"gen {kind} needs --target NODE")
        fn = gen_dist if kind == "dist" else gen_minpath
        system = fn(parse_graph(text), args.target, cap=args.cap)
    elif kind == "first":
        system = gen_first(parse_grammar(text), cap=args.cap)
    elif kind == "list":
        if not args.pred or not args.root:
            raise ValueError("gen list needs --pred PREDICATE and --root VAR")
        x = parse_judgment(args.element) if args.element else None
        system = gen_listpred(parse_equations(text), args.pred, args.root,
                              x=x, cap=args.cap)
    elif kind == "add":
        if not args.roots:
            raise ValueError("gen add needs --roots X Y Z")
        carries = _parse_carries(args.carries) if args.carries \
            else DEFAULT_CARRIES
        system = gen_add(parse_equations(text), *args.roots,
                         carries=carries, cap=args.cap)
    else:  # lambda
        system = gen_lambda(parse_lambda(text), budget=args.budget,
                            cap=args.cap)
    rendered = render_system(system)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--max-iters", type=int, default=DEFAULT_BUDGET,
                   metavar="N", help="iteration budget for fixpoint loops")
    p.add_argument("--format", choices=formats, default="text",
                   help="output format")


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(fn=_cmd_check)

    p = subs.add_parser("prove", help="build a proof object")
    p.add_argument("file", metavar="FILE", help="rule file")
    p.add_argument("judgment", metavar="JUDGMENT", help="judgment term")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--level", type=int, metavar="N",
                       help="approximated proof at this level")
    group.add_argument("--regular", action="store_true",
                       help="regular (cyclic) proof over the generated "
                            "interpretation")
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
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, metavar="N",
                   help="maximum number of grounded rules")
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
    p.add_argument("--budget", type=int, default=DEFAULT_CLOSURE_BUDGET,
                   metavar="N", help="closure size budget (lambda)")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedEquations as e:
        print(f"malformed equations: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InstantiationTooLarge as e:
        print(f"instantiation too large: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ClosureBudgetExceeded as e:
        print(f"closure budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except BudgetExceeded as e:
        print(f"iteration budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
