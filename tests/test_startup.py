"""What a command loads: the generators only when ``gen`` runs them."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coaxiom.cli as cli
import coaxiom.gen as gen

ROOT = Path(__file__).resolve().parent.parent

# The submodule of coaxiom.gen that defines each of its public names.
DEFINED_IN = {
    "common": ("DEFAULT_CAP", "DEFAULT_CLOSURE_BUDGET", "DEFAULT_CARRIES",
               "LIST_PREDICATES", "GenError", "InstantiationTooLarge",
               "ClosureBudgetExceeded", "MalformedEquations", "guard_cap"),
    "graphs": ("gen_visit", "gen_dist", "gen_minpath", "simple_paths_to"),
    "grammars": ("gen_first", "encode_string", "nullable_nonterminals"),
    "inputs": ("Edge", "Graph", "Grammar", "NilBind", "ConsBind", "TreeBind",
               "EquationSystem", "Var", "Lam", "App", "LambdaTerm",
               "parse_graph", "parse_grammar", "parse_equations",
               "parse_lambda", "render_lambda"),
    "lists": ("gen_listpred", "gen_add"),
    "lambdas": ("gen_lambda", "encode_lambda", "value_closure"),
}
NAMES = [(module, name) for module, names in DEFINED_IN.items() for name in names]
GENERATORS = ["coaxiom.gen." + m for m in ("graphs", "grammars", "inputs", "lambdas", "lists")]

PROBE = """
import contextlib, io, json, sys
watched = set(json.loads(sys.argv[1]))
before = set(sys.modules)
import coaxiom.cli
seen = {"import": sorted(watched & (set(sys.modules) - before))}
for step, argv in (("generated", ["generated", "tests/data/cycle.coax"]),
                   ("gen", ["gen", "visit", "demos/data/cycle.graph"])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert coaxiom.cli.main(argv) == 0
    seen[step] = sorted(watched & (set(sys.modules) - before))
print(json.dumps(seen))
"""


def test_only_gen_loads_the_generators():
    watched = GENERATORS + ["dataclasses"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(watched)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import"] == []
    assert seen["generated"] == []
    # gen visit loads the graph generator and the input parsers, and no
    # other generator.
    assert {"coaxiom.gen.graphs", "coaxiom.gen.inputs"} <= set(seen["gen"])
    assert not {"coaxiom.gen.grammars", "coaxiom.gen.lambdas",
                "coaxiom.gen.lists"} & set(seen["gen"])
    # Its input types are records too, not dataclasses.
    assert "dataclasses" not in seen["gen"]


def test_gen_exports_the_same_names():
    assert sorted(gen.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_gen_name_is_the_object_its_submodule_holds(module, name):
    expected = getattr(importlib.import_module(f"coaxiom.gen.{module}"), name)
    imported: dict = {}
    exec(f"from coaxiom.gen import {name}", imported)
    assert imported[name] is expected
    assert getattr(gen, name) is expected
    starred: dict = {}
    exec("from coaxiom.gen import *", starred)
    assert starred[name] is expected
    assert name in dir(gen)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no attribute 'gen_nothing'"):
        gen.gen_nothing  # noqa: B018
    with pytest.raises(AttributeError, match="no attribute 'gen_nothing'"):
        cli.gen_nothing  # noqa: B018
    # Not a generator or an input parser.
    with pytest.raises(AttributeError):
        cli.Graph  # noqa: B018


def test_the_cli_gives_the_generators_of_gen():
    assert cli.gen_visit is gen.gen_visit
    assert cli.parse_graph is gen.parse_graph
    assert cli.gen_lambda is gen.gen_lambda


def test_gen_calls_the_generators_the_cli_module_holds(tmp_path, capsys, monkeypatch):
    calls: list[str] = []
    for name in ("parse_graph", "gen_visit"):
        def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    graph = tmp_path / "cycle.graph"
    graph.write_text("node a node b edge a b edge b a\n")
    assert cli.main(["gen", "visit", str(graph)]) == 0
    assert capsys.readouterr().out.startswith("visit(")
    assert calls == ["parse_graph", "gen_visit"]
