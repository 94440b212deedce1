"""End-to-end command-line behaviour, run in-process."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cli_golden

from coaxiom import (REGULAR_GENERATED, RegularProof, WfProof, coind, generated,
                     ind, parse_judgment, parse_system, proof_from_dict,
                     proof_to_dict, prove_approx, prove_regular, prove_wf,
                     render_system, render_term, sort_judgments, term_key,
                     validate)
import coaxiom.cli as cli
import coaxiom.terms
from coaxiom.cli import _dot_escape, _json_text, _rule_id, build_parser, main
from coaxiom.dsl import MAX_DEPTH
from coaxiom.gen import gen_visit, parse_graph
from corpus import as_system, corpus
from test_dsl import split_cut_reads

CYCLE_GRAPH = "node a node b node c edge a b edge b a\n"

PHASE1_LINES = [
    "(1) visit(a,{}), visit(b,{}), visit(c,{}), visit(c,{c})",
    "(2) visit(a,{}), visit(a,{a}), visit(b,{}), visit(b,{b}), "
    "visit(c,{}), visit(c,{c})",
    "(3) visit(a,{}), visit(a,{a}), visit(a,{a,b}), visit(b,{}), "
    "visit(b,{a,b}), visit(b,{b}), visit(c,{}), visit(c,{c})",
]
PHASE2_LINES = [
    "(1) visit(a,{a}), visit(a,{a,b}), visit(b,{a,b}), visit(b,{b}), "
    "visit(c,{c})",
    "(2) visit(a,{a,b}), visit(b,{a,b}), visit(c,{c})",
]


@pytest.fixture()
def cycle(tmp_path):
    graph = tmp_path / "cycle.graph"
    graph.write_text(CYCLE_GRAPH)
    coax = tmp_path / "cycle.coax"
    assert main(["gen", "visit", str(graph), "-o", str(coax)]) == 0
    return coax


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# interpretations

def test_generated_trace_reproduces_the_two_phase_listing(cycle, capsys):
    code, out, err = run(capsys, "generated", str(cycle), "--trace")
    assert code == 0 and not err
    lines = out.splitlines()
    p1 = lines.index("phase 1 (ascending):")
    p2 = lines.index("phase 2 (descending):")
    assert lines[p1 + 1:p1 + 4] == PHASE1_LINES
    assert lines[p2 + 1:p2 + 3] == PHASE2_LINES
    assert lines[-3:] == ["visit(a,{a,b})", "visit(b,{a,b})", "visit(c,{c})"]


def test_ind_and_coind_without_trace(cycle, capsys):
    code, out, _ = run(capsys, "ind", str(cycle))
    assert code == 0
    assert out.splitlines() == ["ind (1 judgments):", "visit(c,{c})"]
    # The plain gfp overshoots: the a/b pair can pretend to visit c.
    code, out, _ = run(capsys, "coind", str(cycle))
    assert code == 0 and out.splitlines()[0] == "coind (5 judgments):"
    assert "visit(a,{a,b,c})" in out


def test_trace_json_is_schema_stable(cycle, capsys):
    code, out, _ = run(capsys, "generated", str(cycle), "--trace",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["interpretation"] == "generated"
    assert [len(s) for s in doc["trace"]["phase1"]] == [4, 6, 8]
    assert [len(s) for s in doc["trace"]["phase2"]] == [5, 3]
    for s in doc["judgments"]:
        assert render_term(parse_judgment(s)) == s


def _whole_set_trace(text: str, mode: str, fmt: str) -> str:
    """What ``MODE FILE --trace`` prints, by its definition: each set of
    ``interp.trace`` sorted by ``term_key`` and rendered."""
    interp = {"ind": ind, "coind": coind, "generated": generated}[mode](
        parse_system(text))
    if mode == "generated":
        passes = [("phase 1 (ascending)", "phase1", interp.phase1),
                  ("phase 2 (descending)", "phase2", interp)]
    else:
        direction = "descending" if mode == "coind" else "ascending"
        passes = [(f"trace ({direction})", None, interp)]
    traces = [(heading, key, [[render_term(j) for j in sorted(s, key=term_key)]
                              for s in pass_.trace])
              for heading, key, pass_ in passes]
    judgments = [render_term(j) for j in sorted(interp.judgments, key=term_key)]
    if fmt == "json":
        trace = ({key: sets for _, key, sets in traces} if mode == "generated"
                 else traces[0][2])
        return json.dumps({"interpretation": mode, "judgments": judgments,
                           "trace": trace}, indent=2) + "\n"
    lines = []
    for heading, _, sets in traces:
        lines.append(heading + ":")
        lines += [f"({i}) {', '.join(s)}" for i, s in enumerate(sets, start=1)]
    return "\n".join(lines + ["", f"{mode} ({len(judgments)} judgments):",
                              *judgments, ""])


def test_the_trace_equals_its_whole_set_definition(tmp_path, capsys):
    texts = [render_system(as_system(triples)) for _, triples in corpus()]
    # A chain that a coaxiom closes, and a chain that fans out in its
    # last layer.
    texts.append("".join(f"c{i} <- c{i + 1}.\n" for i in range(300)) + "co c300.\n")
    texts.append("c0.\n" + "".join(f"c{i} <- c{i - 1}.\n" for i in range(1, 50))
                 + "".join(f"f{j} <- c49.\n" for j in range(3000)))
    path = tmp_path / "rules.coax"
    for n, text in enumerate(texts):
        path.write_text(text)
        for mode in ("ind", "coind", "generated"):
            for fmt in ("text", "json"):
                code, out, err = run(capsys, mode, str(path), "--trace",
                                     "--format", fmt)
                assert (code, err) == (0, "")
                assert out == _whole_set_trace(text, mode, fmt), (n, mode, fmt)


# ---------------------------------------------------------------------------
# check

def test_check_member_prints_a_regular_proof(cycle, capsys):
    code, out, _ = run(capsys, "check", str(cycle), "visit(a,{a,b})")
    assert code == 0
    assert out.splitlines()[0] == "derivable: visit(a,{a,b})"
    assert any(line.startswith("visit(a,{a,b}) <- rule ")
               for line in out.splitlines())


def test_check_rejects_with_witness(cycle, capsys):
    code, out, _ = run(capsys, "check", str(cycle), "visit(a,{a,b,c})")
    assert code == 1
    assert out.splitlines()[0] == "NotDerivable: visit(a,{a,b,c})"
    assert "NotInBound" in out


def test_check_json_round_trips_the_proof(cycle, capsys):
    code, out, _ = run(capsys, "check", str(cycle), "visit(b,{a,b})",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["derivable"] is True
    assert doc["proof"]["judgment"] == "visit(b,{a,b})"


def test_a_regular_proof_without_a_cycle_validates_from_its_json(tmp_path, capsys):
    # No back-reference: the proof loads as a finite tree, which is read
    # as the choice map of its nodes' rules.
    f = tmp_path / "acyc.coax"
    f.write_text("p <- q.\nq.\n")
    code, out, _ = run(capsys, "check", str(f), "p", "--format", "json")
    assert code == 0 and '"back"' not in out
    proof = proof_from_dict(json.loads(out)["proof"])
    assert isinstance(proof, WfProof)
    sys_ = parse_system(f.read_text())
    assert validate(sys_, proof, REGULAR_GENERATED).ok
    assert validate(sys_, proof, REGULAR_GENERATED) == \
        validate(sys_, prove_regular(sys_, parse_judgment("p")), REGULAR_GENERATED)


# ---------------------------------------------------------------------------
# prove

def test_prove_wf_renders_a_tree(cycle, capsys):
    code, out, _ = run(capsys, "prove", str(cycle), "visit(c,{c})")
    assert code == 0
    assert out.startswith("wf proof of visit(c,{c}):")


def test_prove_level_failure_reports_witness(cycle, capsys):
    code, out, _ = run(capsys, "prove", str(cycle), "visit(a,{a})",
                       "--level", "2")
    assert code == 1
    assert "NotDerivable" in out and "DropsAtLevel(2)" in out


def test_prove_level_reads_its_witness_at_that_level(tmp_path, capsys):
    # a drops at level 4.  --max-iters bounds phase 1 only, so two
    # rounds of it do not hide the drop from a level-5 proof.
    chain = tmp_path / "chain.coax"
    chain.write_text("a <- b. b <- c. c <- d. co d. co c. co b. co a.\n")
    argv = ("prove", str(chain), "a", "--level", "5", "--max-iters", "2")
    assert run(capsys, *argv) == (
        1, "NotDerivable: a has no approx(5) proof\nwitness: DropsAtLevel(4)\n", "")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"judgment": "a", "proof": None, "kind": "approx(5)",
                               "witness": {"kind": "drops-at-level", "level": 4}}


def test_prove_regular_dot_has_a_labelled_back_edge(cycle, capsys):
    code, out, _ = run(capsys, "prove", str(cycle), "visit(a,{a,b})",
                       "--regular", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph proof {")
    assert 'style=dashed' in out
    assert '[label="visit(a,{a,b})"]' in out


@pytest.mark.parametrize("argv, expect", [
    (["generated"], 0),
    (["check", "visit(a,{a,b})"], 0),
    (["check", "visit(a,{a})"], 1),
    (["check", "visit(a,{a,b,c})", "--format", "json"], 1),
    (["prove", "visit(c,{c})"], 0),
    (["prove", "visit(a,{a,b,c})"], 1),
    (["prove", "visit(a,{a,b})", "--level", "3"], 0),
    (["prove", "visit(a,{a})", "--level", "2"], 1),
    (["prove", "visit(a,{a,b})", "--regular"], 0),
    (["prove", "visit(a,{a})", "--regular"], 1),
])
def test_no_command_runs_a_phase_twice(cycle, capsys, monkeypatch, argv, expect):
    # _ascend and _descend are the engine's one pass per phase.
    import coaxiom.engine as engine

    calls = []
    for name in ("_ascend", "_descend"):
        monkeypatch.setattr(engine, name, lambda *a, _fn=getattr(engine, name), _n=name:
                            calls.append(_n) or _fn(*a))
    code, _, _ = run(capsys, argv[0], str(cycle), *argv[1:])
    assert code == expect
    # A well-founded proof that exists reads phase 1 only.
    wf_only = argv == ["prove", "visit(c,{c})"]
    assert calls == (["_ascend"] if wf_only else ["_ascend", "_descend"])


def test_prove_level_and_regular_conflict(cycle):
    with pytest.raises(SystemExit) as exc:
        main(["prove", str(cycle), "visit(c,{c})", "--level", "1",
              "--regular"])
    assert exc.value.code == 2


def _unshared_dict(proof, sys_) -> dict:
    """proof_to_dict as a plain recursive tree walk: a fresh dict for
    every occurrence of a subproof."""
    if not isinstance(proof, RegularProof):
        return {"judgment": render_term(proof.judgment),
                "rule": proof.rule.index, "co": proof.rule.co,
                "children": [_unshared_dict(c, sys_) for c in proof.children]}
    expanded = set()

    def node(j):
        if j in expanded:
            return {"judgment": render_term(j), "back": True}
        expanded.add(j)
        i = proof.choice[j]
        return {"judgment": render_term(j), "rule": i, "co": False,
                "children": [node(p) for p in sys_.regular_rules[i].premises]}

    return node(proof.root)


def test_shared_subproofs_print_as_the_full_tree(tmp_path, capsys):
    text = cli_golden.ladder(8)
    f = tmp_path / "ladder.coax"
    f.write_text(text)
    sys_, top = parse_system(text), parse_judgment("x8")
    cases = [([], "wf", prove_wf(sys_, top)),
             (["--level", "8"], "approx(8)", prove_approx(sys_, top, 8)),
             (["--regular"], "regular", prove_regular(sys_, top))]
    for flags, kind, proof in cases:
        code, out, _ = run(capsys, "prove", str(f), "x8", *flags,
                           "--format", "json")
        want = {"judgment": "x8", "kind": kind,
                "proof": _unshared_dict(proof, sys_)}
        assert code == 0
        assert out == json.dumps(want, indent=2) + "\n"
    assert out.count('"judgment"') == (4 * 8 + 2) + 1  # nodes, and the header
    wf_nodes = json.dumps(proof_to_dict(cases[0][2]), indent=2).count('"judgment"')
    assert wf_nodes == 2 ** (8 + 2) - 3


def test_a_loaded_wf_proof_shares_its_equal_subtrees(tmp_path, capsys):
    # The k = 12 ladder's JSON proof is a tree of 2^14 - 3 node dicts
    # holding 3k + 1 distinct subproofs.
    f = tmp_path / "ladder.coax"
    f.write_text(cli_golden.ladder(12))
    code, out, _ = run(capsys, "prove", str(f), "x12", "--format", "json")
    assert code == 0
    proof = proof_from_dict(json.loads(out)["proof"])
    assert proof is prove_wf(parse_system(cli_golden.ladder(12)), parse_judgment("x12"))
    seen, todo = set(), [proof]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo += node.children
    assert len(seen) == 3 * 12 + 1


def test_a_600_deep_regular_proof_prints_as_json(tmp_path, capsys):
    n = 600
    text = "".join(f"c{i} <- c{(i + 1) % n}.\n" for i in range(n)) + "co c0.\n"
    f = tmp_path / "cycle.coax"
    f.write_text(text)
    for argv in (["check", str(f), "c0"], ["prove", str(f), "c0", "--regular"]):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        # The document nests 1200 deep, past what json.loads accepts.
        assert out.count('"judgment"') == n + 2  # n + 1 nodes, and the header
        assert out.count('"back": true') == 1
    sys_ = parse_system(text)
    proof = prove_regular(sys_, parse_judgment("c0"))
    assert proof_from_dict(proof_to_dict(proof, sys_)) == proof


def _text_tree(proof, out, depth=0):
    """The text renderer as a plain recursive tree walk."""
    out.append(f"{'  ' * depth}{render_term(proof.judgment)}"
               f"   [rule {_rule_id(proof.rule)}]")
    for child in proof.children:
        _text_tree(child, out, depth + 1)


def _dot_tree(proof):
    """The DOT renderer of a wf proof as a plain recursive tree walk."""
    lines = ["digraph proof {", "  rankdir=TB;"]
    count = [0]

    def walk(p):
        name = f"n{count[0]}"
        count[0] += 1
        lines.append(f'  {name} [label="{_dot_escape(render_term(p.judgment))}"];')
        for child in p.children:
            lines.append(f'  {name} -> {walk(child)} [label="{_rule_id(p.rule)}"];')
        return name

    walk(proof)
    return "\n".join(lines + ["}"])


def _dot_cycle(proof, sys_):
    """The DOT renderer of a regular proof as a recursive walk."""
    ordered = sort_judgments(proof.choice)
    names = {j: f"n{i}" for i, j in enumerate(ordered)}
    lines = ["digraph proof {", "  rankdir=TB;"]
    lines += [f'  {names[j]} [label="{_dot_escape(render_term(j))}"];' for j in ordered]
    expanded = set()

    def walk(j):
        if j in expanded:
            return
        expanded.add(j)
        ix = proof.choice[j]
        for p in sys_.regular_rules[ix].premises:
            style = ", style=dashed" if p in expanded else ""
            lines.append(f'  {names[j]} -> {names[p]} [label="{ix}"{style}];')
            walk(p)

    walk(proof.root)
    return "\n".join(lines + ["}"])


@pytest.mark.parametrize("top", ["x6", "y3", "x0"])
def test_text_and_dot_proofs_match_the_recursive_tree_walks(tmp_path, capsys, top):
    text = cli_golden.ladder(6)
    f = tmp_path / "ladder.coax"
    f.write_text(text)
    sys_, j = parse_system(text), parse_judgment(top)
    cases = [([], "wf", prove_wf(sys_, j)),
             (["--level", "3"], "approx(3)", prove_approx(sys_, j, 3))]
    for flags, kind, proof in cases:
        want = [f"{kind} proof of {top}:"]
        _text_tree(proof, want)
        assert run(capsys, "prove", str(f), top, *flags) == (0, "\n".join(want) + "\n", "")
        assert run(capsys, "prove", str(f), top, *flags, "--format", "dot") == \
            (0, _dot_tree(proof) + "\n", "")
    want = _dot_cycle(prove_regular(sys_, j), sys_) + "\n"
    assert run(capsys, "prove", str(f), top, "--regular", "--format", "dot") == (0, want, "")


def _nested(depth: int) -> str:
    return "p(" + "f(" * depth + "a" + ")" * depth + ")"


CYCLE_3000 = "".join(f"c{i} <- c{(i + 1) % 3000}.\n" for i in range(3000)) + "co c0.\n"


def _lines(n):
    return lambda out: len(out.splitlines()) == n


# (rule file, arguments after it, exit status, check of stdout or stderr).
# Deep terms and deep proofs: none of them may die in a RecursionError,
# which the CLI would report with a traceback and exit status 1.
DEEP_CASES = {
    "1200-deep term": (_nested(1200) + ".\n", ["generated"], 0,
                       lambda out: out.splitlines()[1:] == [_nested(1200)]),
    "100000-deep term": (
        _nested(100_000) + ".\n", ["generated"], 2,
        lambda err: err == f"parse error: 1:{2 * MAX_DEPTH + 2}: expected terms "
                           f"nested at most {MAX_DEPTH} deep, found (\n"),
    # A well-founded proof 3000 rules deep.
    "3000-cycle wf": (CYCLE_3000, ["prove", "c1"], 0, _lines(3001)),
    # Levels 2 and 1, then a well-founded proof of c2: 3001 nodes.
    "3000-cycle level 2": (CYCLE_3000, ["prove", "c0", "--level", "2", "--format", "json"],
                           0, lambda out: out.count('"judgment"') == 3002),
    # 3000 nodes and 3000 edges, one of them back to the root.
    "3000-cycle regular dot": (CYCLE_3000, ["prove", "c0", "--regular", "--format", "dot"],
                               0, lambda out: _lines(6003)(out) and out.count("dashed") == 1),
}


@pytest.mark.parametrize("case", DEEP_CASES)
def test_deep_terms_and_proofs_exit_with_their_status(tmp_path, capsys, case):
    text, argv, code, check = DEEP_CASES[case]
    f = tmp_path / "deep.coax"
    f.write_text(text)
    # Into a file: the level-2 JSON is 126 MB of indentation.
    printed = tmp_path / "out.txt"
    with open(printed, "w") as fh, contextlib.redirect_stdout(fh):
        got = main([argv[0], str(f), *argv[1:]])
    err = capsys.readouterr().err
    assert got == code
    assert check(printed.read_text() if code == 0 else err)
    assert (err == "") == (code == 0)


def test_gen_lambda_reads_deep_parentheses(tmp_path, capsys):
    plain, wrapped = tmp_path / "plain.lam", tmp_path / "wrapped.lam"
    plain.write_text("\\x. x\n")
    wrapped.write_text("(" * 1500 + "\\x. x" + ")" * 1500 + "\n")
    code, want, _ = run(capsys, "gen", "lambda", str(plain))
    assert code == 0 and want
    assert run(capsys, "gen", "lambda", str(wrapped)) == (0, want, "")


def test_gen_lambda_on_deep_binders(tmp_path, capsys):
    # 1500 binders: the eval judgment then nests 1502 terms deep, below
    # MAX_DEPTH, and no lambda walk recurses.
    n = 1500
    assert n + 2 < MAX_DEPTH
    f, rules = tmp_path / "deep.lam", tmp_path / "deep.coax"
    f.write_text("\\x. " * n + "x\n")
    assert run(capsys, "gen", "lambda", str(f), "-o", str(rules))[0] == 0
    value = "".join(f"lam(x{i}," for i in range(n)) + f"var(x{n - 1})" + ")" * n
    code, out, err = run(capsys, "generated", str(rules))
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"eval({value},{value})"]


@pytest.mark.parametrize("shape", ["binders", "spine"])
@pytest.mark.parametrize("n", [MAX_DEPTH - 3, MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH])
def test_gen_lambda_stops_at_max_depth(tmp_path, capsys, shape, n):
    # n binders over x, or \x. applied to a spine of n x's: either way
    # the eval judgment nests n + 2 deep, and gen lambda writes only
    # rule files that generated can read back.
    f, rules = tmp_path / "deep.lam", tmp_path / "deep.coax"
    f.write_text("\\x. " * n + "x\n" if shape == "binders" else "\\x." + " x" * n + "\n")
    code, out, err = run(capsys, "gen", "lambda", str(f), "-o", str(rules))
    if n + 2 > MAX_DEPTH:
        assert (code, out) == (2, "")
        assert err == f"error: eval judgment nested {n + 2} deep, past {MAX_DEPTH}\n"
        assert not rules.exists()
    else:
        assert (code, out, err) == (0, "", "")
        code, out, err = run(capsys, "generated", str(rules))
        assert (code, err) == (0, "") and len(out.splitlines()) == 2


def test_recursion_error_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Safety net for a walk that still recurses: no traceback, exit 2.
    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("coaxiom.cli.gen_lambda", deep)
    f = tmp_path / "id.lam"
    f.write_text("\\x. x\n")
    assert run(capsys, "gen", "lambda", str(f)) == (
        2, "", "error: input nested too deeply: maximum recursion depth exceeded\n")


def test_memory_error_is_a_budget_error(tmp_path, capsys, monkeypatch):
    # Last line of defence for an output too large to build: no
    # traceback, exit 3, and a line that does not end in an empty message.
    def huge(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("coaxiom.cli.gen_lambda", huge)
    f = tmp_path / "id.lam"
    f.write_text("\\x. x\n")
    assert run(capsys, "gen", "lambda", str(f)) == (3, "", "error: out of memory\n")


def test_memory_error_lets_go_of_what_the_command_built(tmp_path, monkeypatch):
    # Memory may still be exhausted when main handles the error, so the
    # line is written only once the failed command's frames are gone.
    # They are reachable from the traceback, and from the context of a
    # second MemoryError raised while they unwound.
    class Built:
        pass

    watched = []

    def huge(*args, **kwargs):
        built = Built()
        watched.append(weakref.ref(built))
        try:
            raise MemoryError
        except MemoryError:
            raise MemoryError

    gone_at_write = []

    class Stderr(io.StringIO):
        def write(self, text):
            gone_at_write.append(watched[0]() is None)
            return super().write(text)

    monkeypatch.setattr("coaxiom.cli.gen_lambda", huge)
    err = Stderr()
    monkeypatch.setattr(sys, "stderr", err)
    f = tmp_path / "id.lam"
    f.write_text("\\x. x\n")
    assert main(["gen", "lambda", str(f)]) == 3
    assert err.getvalue() == "error: out of memory\n"
    assert gone_at_write == [True]


def test_memory_error_lets_go_of_the_output(tmp_path, monkeypatch):
    # The same when writing the result runs out of memory: main's render
    # closure and its text must not keep the output alive.
    class Rendered(str):
        pass

    outputs = [Rendered("p.\n")]
    watched = weakref.ref(outputs[0])

    class Stdout(io.StringIO):
        def write(self, text):
            raise MemoryError

    gone_at_write = []

    class Stderr(io.StringIO):
        def write(self, text):
            gone_at_write.append(watched() is None)
            return super().write(text)

    monkeypatch.setattr("coaxiom.cli.gen_lambda", lambda *a, **k: None)
    monkeypatch.setattr("coaxiom.cli.render_system", lambda system: outputs.pop())
    monkeypatch.setattr(sys, "stdout", Stdout())
    err = Stderr()
    monkeypatch.setattr(sys, "stderr", err)
    f = tmp_path / "id.lam"
    f.write_text("\\x. x\n")
    assert main(["gen", "lambda", str(f)]) == 3
    assert err.getvalue() == "error: out of memory\n"
    assert gone_at_write == [True]


def test_gen_dist_on_a_long_path_graph_reaches_the_cap(tmp_path, capsys):
    # 1100 nodes in a row: the simple paths are enumerated with an
    # explicit stack, so the generator gets as far as counting its rules.
    n = 1100
    graph = tmp_path / "path.graph"
    graph.write_text("".join(f"node v{i}\n" for i in range(n))
                     + "".join(f"edge v{i} v{i + 1} 1\n" for i in range(n - 1)))
    code, out, err = run(capsys, "gen", "dist", str(graph), "--target", f"v{n - 1}")
    assert (code, out) == (3, "")
    assert err == ("instantiation too large: instantiation needs 1211099 rules, "
                   "cap is 1000000\n")


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text())
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12)


@given(json_values, st.lists(json_values, min_size=1, max_size=4))
def test_json_writer_matches_json_dumps(doc, shared):
    assert _json_text(doc) == json.dumps(doc, indent=2)
    # The same objects again, at the same depth and at other depths.
    reused = [doc, shared, shared, {"k": [shared, doc]}, [[doc]], {"": {}}]
    assert _json_text(reused) == json.dumps(reused, indent=2)


@pytest.mark.parametrize("bound", [0, 300, coaxiom.terms._JOIN_CHARS, 10 ** 12])
def test_json_of_shared_subproofs_matches_json_dumps(monkeypatch, bound):
    sys_ = parse_system(cli_golden.ladder(6))
    proof = proof_to_dict(prove_wf(sys_, parse_judgment("x6")), sys_)
    # The subproofs shared at one depth run from under 300 characters
    # to over it; the document holds them at other depths as well.
    shared, todo = [], [proof]
    while todo:
        node = todo.pop()
        children = node["children"]
        if len(children) == 1:
            shared.append(len(json.dumps(children[0], indent=2)))
        todo += children
    assert min(shared) <= 300 < max(shared)
    lower = proof["children"][0]["children"][0]
    doc = {"proof": proof, "again": [proof, lower, {"k": [lower, proof]}],
           "last": [[lower], proof]}
    monkeypatch.setattr(coaxiom.terms, "_JOIN_CHARS", bound)
    assert _json_text(doc) == json.dumps(doc, indent=2)
    assert _json_text(doc, "\n") == json.dumps(doc, indent=2) + "\n"


class _Int(int):
    def __repr__(self) -> str:
        return "not JSON"


@pytest.mark.parametrize("value", [
    True, False, None, 0, -1, -(10 ** 20), 10 ** 299, -(10 ** 299), 1.5,
    float("nan"), float("inf"), float("-inf"), _Int(7), _Int(-3)])
def test_json_scalars_match_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)
    doc = {"v": [value, {"w": value}]}
    assert _json_text(doc) == json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# bcp

def test_bcp_accepts_a_consistent_candidate(cycle, tmp_path, capsys):
    spec = tmp_path / "cand.coax"
    spec.write_text("visit(a,{a,b}). visit(b,{a,b}). visit(c,{c}).\n")
    code, out, _ = run(capsys, "bcp", str(cycle), str(spec))
    assert code == 0 and out.strip() == "accepted (3 judgments)"


def test_bcp_rejects_with_reasons(cycle, tmp_path, capsys):
    spec = tmp_path / "cand.coax"
    spec.write_text("visit(a,{a,b,c}).\n")
    code, out, _ = run(capsys, "bcp", str(cycle), str(spec))
    assert code == 1
    assert out.splitlines()[0] == "rejected:"
    assert "visit(a,{a,b,c})" in out


# ---------------------------------------------------------------------------
# gen

def test_gen_output_round_trips(cycle, tmp_path, capsys):
    rendered = cycle.read_text()
    graph = parse_graph(CYCLE_GRAPH)
    assert parse_system(rendered) == gen_visit(graph)


def test_gen_to_stdout(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("node z\n")
    code, out, _ = run(capsys, "gen", "visit", str(graph))
    assert code == 0
    assert "visit(z,{z})." in out


def _gen_out_target(tmp_path, shape, size):
    """A file of size bytes to write over, and the path to give -o."""
    target = tmp_path / "old.coax"
    target.write_bytes(b"x" * size)
    if shape == "symlink":
        (tmp_path / "link.coax").symlink_to(target)
        return target, tmp_path / "link.coax"
    if shape == "hard-link":
        os.link(target, tmp_path / "twin.coax")
        target.chmod(0o640)
    return target, target


@pytest.mark.parametrize("shape", ["longer", "symlink", "hard-link"])
def test_gen_output_writes_over_out_in_place(tmp_path, capsys, shape):
    graph = tmp_path / "cycle.graph"
    graph.write_text(CYCLE_GRAPH)
    code, expected, _ = run(capsys, "gen", "visit", str(graph))
    assert code == 0
    target, out = _gen_out_target(tmp_path, shape, 2 * len(expected))
    before = target.stat()
    assert run(capsys, "gen", "visit", str(graph), "-o", str(out)) == (0, "", "")
    after = target.stat()
    assert target.read_bytes() == expected.encode()
    assert (after.st_ino, after.st_nlink, after.st_mode) == \
        (before.st_ino, before.st_nlink, before.st_mode)
    assert out.is_symlink() == (shape == "symlink")


def test_gen_output_opens_out_once_without_truncating(tmp_path, capsys,
                                                      monkeypatch):
    graph = tmp_path / "cycle.graph"
    graph.write_text(CYCLE_GRAPH)
    out = tmp_path / "cycle.coax"
    out.write_text("x" * 4096)
    flags = []
    real_open = os.open

    def spy(path, flag, *rest, **kw):
        if os.fspath(path) == str(out):
            flags.append(flag)
        return real_open(path, flag, *rest, **kw)

    monkeypatch.setattr(os, "open", spy)
    assert main(["gen", "visit", str(graph), "-o", str(out)]) == 0
    assert len(flags) == 1
    assert flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC


def test_gen_output_creates_out_with_the_umask_mode(tmp_path, capsys):
    graph = tmp_path / "cycle.graph"
    graph.write_text(CYCLE_GRAPH)
    out = tmp_path / "new.coax"
    old = os.umask(0o027)
    try:
        assert main(["gen", "visit", str(graph), "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("case", ["directory", "missing-parent"])
def test_gen_output_io_errors(tmp_path, capsys, case):
    graph = tmp_path / "cycle.graph"
    graph.write_text(CYCLE_GRAPH)
    if case == "directory":
        out, reason = tmp_path, "[Errno 21] Is a directory"
    else:
        out, reason = tmp_path / "no" / "out.coax", \
            "[Errno 2] No such file or directory"
    assert run(capsys, "gen", "visit", str(graph), "-o", str(out)) == \
        (2, "", f"io error: {reason}: {str(out)!r}\n")


def test_gen_output_over_the_cap_leaves_out_as_it_was(tmp_path, capsys):
    graph = tmp_path / "cycle.graph"
    graph.write_text(CYCLE_GRAPH)
    out = tmp_path / "cycle.coax"
    out.write_bytes(b"old bytes\n")
    assert run(capsys, "gen", "visit", str(graph), "--cap", "0",
               "-o", str(out)) == \
        (3, "", "instantiation too large: instantiation needs 20 rules, "
                "cap is 0\n")
    assert out.read_bytes() == b"old bytes\n"


def test_gen_dist_requires_target(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("node a node b edge a b 1\n")
    code, _, err = run(capsys, "gen", "dist", str(graph))
    assert code == 2 and "--target" in err
    code, out, _ = run(capsys, "gen", "dist", str(graph), "--target", "b")
    assert code == 0 and "dist(b,b,0)." in out


def test_gen_list_flags(tmp_path, capsys):
    eqs = tmp_path / "l.eqs"
    eqs.write_text("l = 1 : l;\n")
    code, out, _ = run(capsys, "gen", "list", str(eqs),
                       "--pred", "member", "--root", "l", "--element", "1")
    assert code == 0 and "member(1,l,true)." in out
    code, _, err = run(capsys, "gen", "list", str(eqs), "--root", "l")
    assert code == 2 and "--pred" in err


def test_gen_add_carries_flag(tmp_path, capsys):
    eqs = tmp_path / "s.eqs"
    eqs.write_text("z = 0 : z;\n")
    code, out, _ = run(capsys, "gen", "add", str(eqs),
                       "--roots", "z", "z", "z", "--carries", "0,1")
    assert code == 0
    assert "co add(z,z,z,0)." in out
    assert "co add(z,z,z,-1)." not in out


def test_gen_list_parses_an_empty_element(tmp_path, capsys):
    # An empty --element is a term to parse, not a missing element.
    lists = tmp_path / "l.eqs"
    lists.write_text("l = 1 : l;\n")
    flags = ("gen", "list", str(lists), "--root", "l")
    assert run(capsys, *flags, "--pred", "allPos", "--element", "1") == (
        2, "", "error: allPos does not take an element argument\n")
    for pred in ("allPos", "member"):
        code, out, err = run(capsys, *flags, "--pred", pred, "--element", "")
        assert (code, out) == (2, "") and err.startswith("parse error: "), err


def test_gen_passes_an_empty_target_or_root_to_the_generator(tmp_path, capsys):
    # An empty value is given, so the generator names it; only an
    # omitted option is missing.
    graph = tmp_path / "toll.graph"
    graph.write_text(cli_golden.FILES["toll.graph"])
    lists = tmp_path / "l.eqs"
    lists.write_text("l = 1 : l;\n")
    for kind in ("dist", "minpath"):
        assert run(capsys, "gen", kind, str(graph), "--target", "") == (
            2, "", "error: target '' is not a node\n")
        assert run(capsys, "gen", kind, str(graph)) == (
            2, "", f"error: gen {kind} needs --target NODE\n")
    assert run(capsys, "gen", "list", str(lists), "--pred", "allPos", "--root", "") == (
        2, "", "malformed equations: unbound root variable: \n")
    assert run(capsys, "gen", "list", str(lists), "--pred", "allPos") == (
        2, "", "error: gen list needs --pred PREDICATE and --root VAR\n")


def test_gen_list_path0_reaches_a_nil_child_list(tmp_path, capsys):
    eqs = tmp_path / "t.eqs"
    eqs.write_text("t = tree(0, m); m = nil;\n")
    assert run(capsys, "gen", "list", str(eqs), "--pred", "path0", "--root", "t") == (
        0, "path0(t) <- is_in(t,m), path0(t).\nco path0(t).\n", "")


def test_gen_list_path0_rejects_a_number_in_a_child_list(tmp_path, capsys):
    eqs = tmp_path / "t.eqs"
    eqs.write_text("t = tree(0, l); l = 1 : l;\n")
    assert run(capsys, "gen", "list", str(eqs), "--pred", "path0", "--root", "t") == (
        2, "", "malformed equations: path0 needs tree elements, "
               "got Num(value=1) in l\n")


def test_gen_add_names_a_bad_root(tmp_path, capsys):
    eqs = tmp_path / "s.eqs"
    eqs.write_text("z = 0 : z; t = tree(0, m); m = nil;\n")
    assert run(capsys, "gen", "add", str(eqs), "--roots", "z", "z", "q") == (
        2, "", "malformed equations: unbound root variable: q\n")
    assert run(capsys, "gen", "add", str(eqs), "--roots", "z", "z", "t") == (
        2, "", "malformed equations: t is a tree, not a digit stream\n")
    assert run(capsys, "gen", "add", str(eqs)) == (
        2, "", "error: gen add needs --roots X Y Z\n")


# --carries TEXT -> exit status and the carries grounded (one coaxiom each)
CARRIES = {
    "0,1": (0, {0, 1}),
    "-1,0,1,2": (0, {-1, 0, 1, 2}),
    " 1 , ,2,": (0, {1, 2}),
    ",": (0, set()),
    "": (0, set()),  # given but empty: no carries, not the default ones
    "\u0663,0": (2, None),  # Arabic-Indic three
    "\u00b2": (2, None),  # superscript two
    "+1,1_0": (2, None),
    "1.5": (2, None),
    "0x1": (2, None),
    "1 2": (2, None),
    "--1": (2, None),
}


@pytest.mark.parametrize("text", CARRIES)
def test_gen_add_reads_carries_as_ascii_integers(tmp_path, capsys, text):
    eqs = tmp_path / "s.eqs"
    eqs.write_text("z = 0 : z;\n")
    code, out, err = run(capsys, "gen", "add", str(eqs), "--roots", "z", "z", "z",
                         f"--carries={text}")
    want, carries = CARRIES[text]
    assert code == want
    if code:
        assert (out, err) == ("", f"error: carries must be comma-separated "
                                  f"integers: {text!r}\n")
    else:
        prefix = "co add(z,z,z,"
        assert {int(line[len(prefix):-2]) for line in out.splitlines()
                if line.startswith(prefix)} == carries


# ---------------------------------------------------------------------------
# failure modes

def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "ind", "no-such-file.coax")
    assert code == 2 and not out and "no-such-file" in err


def test_parse_error_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.coax"
    bad.write_text("p <- .")
    code, _, err = run(capsys, "ind", str(bad))
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_non_ascii_digit_is_a_parse_error(tmp_path, capsys, digit):
    bad = tmp_path / "bad.coax"
    bad.write_text(f"p.\nq(1) <- p({digit}).\n", encoding="utf-8")
    code, out, err = run(capsys, "generated", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: 2:11: expected statement or term")
    good = tmp_path / "good.coax"
    good.write_text("p.\n")
    code, out, err = run(capsys, "check", str(good), f"p({digit})")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: 1:3: ")


@pytest.mark.parametrize("kind", ["visit", "dist", "minpath"])
def test_inf_is_not_a_node_name(tmp_path, capsys, kind):
    # A rule file would read the node back as the infinity term.
    graph = tmp_path / "g.graph"
    graph.write_text("node a\nnode inf\nedge a inf 1\n")
    code, out, err = run(capsys, "gen", kind, str(graph), "--target", "a")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: 2:6: ")


def test_cap_exhaustion_exits_three(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text(CYCLE_GRAPH)
    code, _, err = run(capsys, "gen", "visit", str(graph), "--cap", "3")
    assert code == 3 and "too large" in err


def test_iteration_budget_exits_three(cycle, capsys):
    code, _, err = run(capsys, "generated", str(cycle), "--max-iters", "1")
    assert code == 3 and "budget" in err


# option -> (command with an input that runs to the end, what a zero
# budget or cap prints)
COUNT_OPTIONS = {
    "--max-iters": (("generated", "cycle.coax"),
                    "iteration budget exceeded: no fixed point within 0 iterations"),
    "--cap": (("gen", "visit", "cycle.graph"),
              "instantiation too large: instantiation needs 20 rules, cap is 0"),
    "--budget": (("gen", "lambda", "id.lam"),
                 "closure budget exceeded: evaluation closure exceeds 0 expressions"),
    "--max-nodes": (("prove", "cycle.coax", "visit(a,{a})"),
                    "proof too large: the wf proof of visit(a,{a}) has 2 nodes as a "
                    "tree, over --max-nodes 0; --regular gives one line per judgment"),
}


def _count_option_argv(tmp_path, option, value):
    (tmp_path / "cycle.graph").write_text(CYCLE_GRAPH)
    (tmp_path / "id.lam").write_text("\\x. x\n")
    assert main(["gen", "visit", str(tmp_path / "cycle.graph"),
                 "-o", str(tmp_path / "cycle.coax")]) == 0
    command = (("prove", "cycle.coax", "visit(a,{a})") if option == "--level"
               else COUNT_OPTIONS[option][0])
    # The input file is the one word of the command that names a file.
    return [str(tmp_path / word) if (tmp_path / word).is_file() else word
            for word in command] + [option, value]


@pytest.mark.parametrize("value", ["-1", "-3", "\u0663", " +1_0"])  # Arabic-Indic three
@pytest.mark.parametrize("option", [*COUNT_OPTIONS, "--level"])
def test_integer_option_that_is_not_a_count_is_a_usage_error(tmp_path, capsys,
                                                            option, value):
    # Status 3 means a budget ran out; a negative one is a usage error,
    # and so is a negative proof level.
    argv = _count_option_argv(tmp_path, option, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ")
    assert err.endswith(f"error: argument {option}: expected an integer >= 0, "
                        f"got {value!r}\n")


@pytest.mark.parametrize("option", COUNT_OPTIONS)
def test_zero_budget_or_cap_runs_out_at_once(tmp_path, capsys, option):
    argv = _count_option_argv(tmp_path, option, "0")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(COUNT_OPTIONS[option][1]) and err.count("\n") == 1


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_judgments_print_in_canonical_order(cycle, capsys):
    _, out, _ = run(capsys, "generated", str(cycle))
    body = out.splitlines()[1:]
    parsed = [parse_judgment(s) for s in body]
    assert parsed == sort_judgments(parsed)


# ---------------------------------------------------------------------------
# one parser for the process

def _printed(parse, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_follows_columns_on_every_call(capsys, monkeypatch):
    tops = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        tops.append(_printed(main, ["--help"], capsys))
        assert tops[-1] == build_parser().format_help()
        assert _printed(main, ["prove", "--help"], capsys) == \
            _printed(build_parser().parse_args, ["prove", "--help"], capsys)
    assert tops[0] != tops[1]


def test_a_usage_error_leaves_the_next_call_intact(cycle, capsys):
    for argv in (["prove", str(cycle)], ["prove", str(cycle), "p", "--level", "1", "--regular"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "ind", str(cycle))
    assert (code, out, err) == (0, "ind (1 judgments):\nvisit(c,{c})\n", "")


def test_options_of_one_call_do_not_reach_the_next(cycle, capsys):
    code, out, _ = run(capsys, "prove", str(cycle), "visit(c,{c})", "--level", "2")
    assert code == 0 and out.startswith("approx(2) proof of visit(c,{c}):")
    code, out, _ = run(capsys, "prove", str(cycle), "visit(c,{c})")
    assert code == 0 and out.startswith("wf proof of visit(c,{c}):")


def test_build_parser_gives_a_new_parser_each_time():
    assert build_parser() is not build_parser()


def test_main_builds_its_parser_once(cycle, capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["ind", str(cycle)], ["coind", str(cycle)], ["generated", str(cycle)],
                 ["check", str(cycle), "visit(c,{c})"], ["prove", str(cycle), "visit(c,{c})"]):
        assert main(argv) == 0
    assert len(built) == 1


# ---------------------------------------------------------------------------
# recorded runs (rewrite with ``PYTHONPATH=src python tests/cli_golden.py``)

GOLDEN = json.loads(cli_golden.GOLDEN.read_text())


def test_recorded_runs_cover_the_listed_cases():
    assert [r["argv"] for r in GOLDEN["runs"]] == cli_golden.cases()
    assert GOLDEN["files"] == cli_golden.FILES


@pytest.mark.parametrize("recorded", GOLDEN["runs"],
                         ids=[" ".join(r["argv"]) for r in GOLDEN["runs"]])
def test_cli_output_matches_the_recorded_run(tmp_path, monkeypatch, recorded):
    cli_golden.write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli_golden.invoke(recorded["argv"]) == recorded


def test_every_recorded_gen_output_is_read_by_the_split_cut():
    # A text the split cut refuses is read token by token, about 10x
    # slower on visit-dense's 115 KB rule file.
    runs = [r for r in GOLDEN["runs"] if r["argv"][0] == "gen" and r["code"] == 0]
    assert sorted({r["argv"][1] for r in runs}) == \
        ["add", "dist", "first", "lambda", "list", "minpath", "visit"]
    for recorded in runs:
        assert split_cut_reads(recorded["stdout"]), recorded["argv"]


class _Writes(io.StringIO):
    """A stdout that keeps each text handed to ``write``."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return super().write(text)


def test_each_recorded_run_writes_its_stdout_with_one_write(tmp_path, monkeypatch):
    cli_golden.write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    for recorded in GOLDEN["runs"]:
        out = _Writes()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main(recorded["argv"])
        assert len(out.texts) <= 1, recorded["argv"]
        assert all(text.endswith("\n") for text in out.texts), recorded["argv"]
        assert "".join(out.texts) == recorded["stdout"]


def _peak(fn) -> int:
    """The most memory allocated while ``fn()`` runs, over what was
    allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_large_json_proof_is_not_copied_on_its_way_out(tmp_path):
    # About 10.4 MiB of JSON.  The finished text, newline included, is
    # handed to the StringIO in one write; a second write made getvalue
    # join a copy.  Up to CPython 3.11 a StringIO keeps the text of a
    # single write and gives it back; from 3.12 it copies it, and what
    # that costs is measured apart and allowed for.
    f = tmp_path / "ladder.coax"
    f.write_text(cli_golden.ladder(12))
    out = io.StringIO()

    def prove():
        with contextlib.redirect_stdout(out):
            assert main(["prove", str(f), "x12", "--format", "json"]) == 0
        out.getvalue()

    peak = _peak(prove)
    text = out.getvalue()
    assert len(text) > 10 * 2 ** 20

    def keep():
        kept = io.StringIO()
        kept.write(text)
        kept.getvalue()

    assert peak < 1.3 * len(text) + _peak(keep)


def test_the_ladder_json_is_written_in_little_more_than_its_own_size():
    # The 12-rung ladder's wf proof is 10.4 MiB of JSON.  Its repeated
    # subproofs are copied as single strings up to the join bound, so
    # the pieces joined at the end are few, and the bounded joins are
    # all the writer holds besides the text.
    sys_ = parse_system(cli_golden.ladder(12))
    doc = {"judgment": "x12", "kind": "wf",
           "proof": proof_to_dict(prove_wf(sys_, parse_judgment("x12")), sys_)}
    texts = []
    peak = _peak(lambda: texts.append(_json_text(doc, "\n")))
    assert len(texts[0]) > 10 * 2 ** 20
    assert peak <= 1.10 * len(texts[0])


# ---------------------------------------------------------------------------
# proofs too large to write out as a tree

@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_a_tree_over_max_nodes_is_refused_before_it_is_written(tmp_path, capsys, fmt):
    # The 24-rung ladder's wf proof has 73 distinct nodes and 2^26 - 3
    # as a tree.
    f = tmp_path / "ladder.coax"
    f.write_text(cli_golden.ladder(24))
    assert run(capsys, "prove", str(f), "x24", "--format", fmt) == (
        3, "", "proof too large: the wf proof of x24 has 67108861 nodes as a "
               "tree, over --max-nodes 1000000; --regular gives one line per "
               "judgment\n")


@pytest.mark.parametrize("flags, kind", [([], "wf"), (["--level", "2"], "approx(2)")])
def test_max_nodes_is_the_most_nodes_a_printed_tree_has(tmp_path, capsys, flags, kind):
    # ladder(3)'s proof of x3 is a tree of 2^5 - 3 nodes.
    f = tmp_path / "ladder.coax"
    f.write_text(cli_golden.ladder(3))
    code, out, err = run(capsys, "prove", str(f), "x3", *flags, "--max-nodes", "29")
    assert (code, err) == (0, "") and len(out.splitlines()) == 1 + 29
    for fmt in ("text", "json", "dot"):
        code, out, err = run(capsys, "prove", str(f), "x3", *flags, "--max-nodes", "28",
                             "--format", fmt)
        assert (code, out) == (3, "")
        assert err == (f"proof too large: the {kind} proof of x3 has 29 nodes as a tree, "
                       f"over --max-nodes 28; --regular gives one line per judgment\n")


def test_regular_proofs_and_witnesses_are_not_counted(tmp_path, capsys):
    f = tmp_path / "ladder.coax"
    f.write_text(cli_golden.ladder(24))
    code, out, err = run(capsys, "prove", str(f), "x24", "--regular", "--max-nodes", "0")
    assert (code, err) == (0, "") and len(out.splitlines()) == 2 + 73
    code, out, err = run(capsys, "prove", str(f), "w", "--max-nodes", "0")
    assert (code, out, err) == (1, "NotDerivable: w has no wf proof\nwitness: NotInBound\n", "")
    assert run(capsys, "check", str(f), "x24", "--format", "json")[0] == 0


# ---------------------------------------------------------------------------
# a reader that stops early

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("command, lines", [
    (["generated", "many.coax"], 1),
    (["gen", "visit", "ring.graph"], 1),
    (["generated", "few.coax"], 0),
], ids=["generated", "gen", "unread"])
def test_a_reader_closing_the_pipe_early_changes_nothing(tmp_path, command, lines):
    """The first two outputs are several times a pipe's buffer, so the
    command is still writing when the reader closes the pipe; the last
    one is written after the pipe is closed, at the final flush."""
    (tmp_path / "many.coax").write_text("".join(f"p({i}).\n" for i in range(20000)))
    (tmp_path / "few.coax").write_text("p.\nq <- p.\n")
    ring = [f"v{i}" for i in range(6)]
    (tmp_path / "ring.graph").write_text(
        "".join(f"node {v}\n" for v in ring)
        + "".join(f"edge {v} {w}\n" for v, w in zip(ring, ring[1:] + ring[:1]))
        + "edge v0 v3\n")
    # Buffered stdout, as usual, so that the final flush can meet the
    # closed pipe too.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    with subprocess.Popen([sys.executable, "-m", "coaxiom.cli", *command], cwd=tmp_path,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert stderr == b""
