"""Recorded CLI invocations: argv -> exit status, stdout and stderr.

``tests/data/cli_golden.json`` holds the input files and, for each
argv, what ``coaxiom.cli.main`` answered; ``test_cli`` replays them.
After an intended change of output, rewrite the file with::

    PYTHONPATH=src python tests/cli_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
GOLDEN = DATA / "cli_golden.json"


def ladder(k: int) -> str:
    """x_i rests on y_i and z_i, which both rest on x_(i-1); a coaxiom
    closes the ladder.  The wf proof of x_k has 2^(k+2) - 3 nodes but
    only 3k + 1 distinct subproofs."""
    lines = [f"x0 <- x{k}.", "co x0."]
    for i in range(1, k + 1):
        lines += [f"x{i} <- y{i}, z{i}.", f"y{i} <- x{i - 1}.",
                  f"z{i} <- x{i - 1}."]
    return "\n".join(lines) + "\n"


def ring(n: int) -> str:
    """A directed ring of n nodes, v0 -> v1 -> ... -> v(n-1) -> v0."""
    return "".join(f"node v{i}\n" for i in range(n)) + "".join(
        f"edge v{i} v{(i + 1) % n}\n" for i in range(n))


# Input files, written into the working directory of the replay.
FILES = {
    "cycle.coax": (DATA / "cycle.coax").read_text(),
    "ladder3.coax": ladder(3),
    "accept.spec": "visit(a,{a,b}). visit(b,{a,b}). visit(c,{c}).\n",
    "reject.spec": "visit(a,{a}). visit(c,{c}). visit(a,{a,b,c}).\n",
    "bad.coax": "p <- .",
    "ring.graph": "node a  node b  node c\nedge a b\nedge b c\nedge c a\n",
    "toll.graph": (DEMO_DATA / "toll.graph").read_text(),
    "greeting.grammar": (DEMO_DATA / "greeting.grammar").read_text(),
    "lists.eqs": "l = 1 : 2 : l;\nf = 3 : 0 : 3 : k;\nk = nil;\n"
                 "t1 = tree(0, l1);\nl1 = t2 : t1 : l1;\n"
                 "t2 = tree(0, l2);\nl2 = tree(1, l1) : l2;\n",
    "streams.eqs": "z = 0 : z;\nn = 9 : n;\no = 1 : 8 : o;\n",
    "delta.lam": "(\\x. x x) (\\y. y y)\n",
    "two.lam": "(\\x. x (\\y. y)) (\\z. z)\n",
    "church.lam": "(\\f. \\x. f (f x)) (\\f. \\x. f (f x)) (\\y. y)\n",
    "ring70.graph": ring(70),
}

# (file, member, non-member)
SUBJECTS = [("cycle.coax", "visit(a,{a,b})", "visit(a,{a})"),
            ("ladder3.coax", "x3", "w")]


def cases() -> list[list[str]]:
    out = []
    for f, _, _ in SUBJECTS:
        for mode in ("ind", "coind", "generated"):
            for trace in ([], ["--trace"]):
                for fmt in ("text", "json"):
                    out.append([mode, f, *trace, "--format", fmt])
    for f, member, other in SUBJECTS:
        for j in (member, other):
            for fmt in ("text", "json"):
                out.append(["check", f, j, "--format", fmt])
    for j in ("visit(a,{a,b})", "visit(a,{a,b,c})"):
        for flags in ([], ["--level", "1"], ["--regular"]):
            for fmt in ("text", "json", "dot"):
                out.append(["prove", "cycle.coax", j, *flags, "--format", fmt])
    for flags in ([], ["--level", "3"], ["--regular"]):
        out.append(["prove", "ladder3.coax", "x3", *flags])
    out += [["prove", "cycle.coax", "visit(a,{a})", "--level", "2"],
            ["bcp", "cycle.coax", "accept.spec"],
            ["bcp", "cycle.coax", "accept.spec", "--format", "json"],
            ["bcp", "cycle.coax", "reject.spec"],
            ["bcp", "cycle.coax", "reject.spec", "--format", "json"],
            ["generated", "bad.coax"],
            ["check", "missing.coax", "p"],
            ["generated", "cycle.coax", "--max-iters", "1"]]
    # generators: one run per kind and list predicate, then refusals
    out += [["gen", "visit", "ring.graph"],
            ["gen", "dist", "toll.graph", "--target", "e"],
            ["gen", "minpath", "toll.graph", "--target", "e"],
            ["gen", "dist", "toll.graph", "--target", "a"],
            ["gen", "first", "greeting.grammar"]]
    for root in ("l", "f"):
        out += [["gen", "list", "lists.eqs", "--pred", "member", "--root", root,
                 "--element", "2"],
                ["gen", "list", "lists.eqs", "--pred", "member", "--root", root,
                 "--element", "3"]]
        for pred in ("allPos", "elems", "maxElem"):
            out.append(["gen", "list", "lists.eqs", "--pred", pred, "--root", root])
    out += [["gen", "list", "lists.eqs", "--pred", "path0", "--root", "t1"],
            ["gen", "add", "streams.eqs", "--roots", "z", "z", "n"],
            ["gen", "add", "streams.eqs", "--roots", "o", "o", "n",
             "--carries=0,1"],
            ["gen", "lambda", "delta.lam"],
            ["gen", "visit", "ring.graph", "--cap", "26"],
            ["gen", "dist", "toll.graph", "--target", "e", "--cap", "2"],
            ["gen", "dist", "toll.graph", "--target", "e", "--cap", "20"],
            ["gen", "minpath", "toll.graph", "--target", "e", "--cap", "200"],
            ["gen", "first", "greeting.grammar", "--cap", "10"],
            ["gen", "list", "lists.eqs", "--pred", "elems", "--root", "l",
             "--cap", "9"]]
    # Each list predicate's count, and N - 1 / N pairs at the exact N
    # of path0 (24) and add (8).
    for pred in (["member", "--element", "1"], ["allPos"], ["maxElem"]):
        out.append(["gen", "list", "lists.eqs", "--pred", *pred, "--root", "l",
                    "--cap", "2"])
    for cap in ("23", "24"):
        out.append(["gen", "list", "lists.eqs", "--pred", "path0", "--root", "t1",
                    "--cap", cap])
    for cap in ("7", "8"):
        out.append(["gen", "add", "streams.eqs", "--roots", "z", "z", "n",
                    "--cap", cap])
    out += [["gen", "lambda", "delta.lam", "--cap", "2"],
            # a count past 2**63: 70 * (2**70 + 1) rules
            ["gen", "visit", "ring70.graph"],
            ["gen", "visit", "toll.graph"],
            ["gen", "dist", "ring.graph", "--target", "a"],
            ["gen", "minpath", "toll.graph", "--target", "z"],
            ["gen", "list", "lists.eqs", "--pred", "allPos", "--root", "t1"]]
    # lambda: two values, their exact count N = 36 as an N - 1 / N pair,
    # a budget one node short of delta's closure, and a closure past the
    # default budget
    out += [["gen", "lambda", "two.lam"],
            ["gen", "lambda", "two.lam", "--cap", "35"],
            ["gen", "lambda", "two.lam", "--cap", "36"],
            ["gen", "lambda", "delta.lam", "--budget", "21"],
            ["gen", "lambda", "church.lam"]]
    return out


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


def invoke(argv: list[str]) -> dict:
    """Run ``main`` in the current directory; capture what it prints."""
    from coaxiom.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def record(directory: Path) -> dict:
    write_files(directory)
    here = os.getcwd()
    os.chdir(directory)
    try:
        return {"files": FILES, "runs": [invoke(argv) for argv in cases()]}
    finally:
        os.chdir(here)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = record(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['runs'])} runs to {GOLDEN}", file=sys.stderr)
