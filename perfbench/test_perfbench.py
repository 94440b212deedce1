"""Self-test of the benchmark at tiny sizes (k = 3, n = 10, 4 rungs).

Run from the root of the repository::

    python3 -m pytest perfbench -q

It checks the oracles against the engine, that a wrong output is
caught, the metric names against ``BENCHMARK.json``, and the nesting of
the recorded spans.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, seed, tmp_path):
    lib, wl, _ = run.set_up(name, seed, TINY[name], tmp_path)
    return lib, wl, wl.steps()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_every_output_matches_the_oracles(name, seed, tmp_path):
    lib, wl, steps = tiny(name, seed, tmp_path)
    tally = run.Tally()
    run.checked_pass(wl, lib, steps, tally)
    assert tally.errors == []
    assert tally.attempted == len(steps)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_seed_changes_names_but_no_size(name, tmp_path):
    texts = []
    for seed in (1, 2):
        d = tmp_path / str(seed)
        d.mkdir()
        lib, wl, steps = tiny(name, seed, d)
        outputs = run.run_pass(lib, wl, steps).outputs
        # Line counts, not bytes: rule numbers in proofs vary in width.
        texts.append([outputs[s.name].out.count("\n") for s in steps])
    a, b = ({p.name: p.read_text() for p in (tmp_path / s).iterdir()} for s in "12")
    assert a != b
    assert {k: len(v) for k, v in a.items()} == {k: len(v) for k, v in b.items()}
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_wrong_output_or_exit_status_is_caught(name, tmp_path):
    lib, wl, steps = tiny(name, 1, tmp_path)
    outputs = run.run_pass(lib, wl, steps).outputs
    for step in steps:
        res = outputs[step.name]
        wrong_exit = replace(res, code=3)
        assert run.problems(wl, lib, step, wrong_exit, outputs), step.name
        lines = res.out.splitlines()
        cut = replace(res, out="\n".join(lines[:-1]) + "\n")
        assert run.problems(wl, lib, step, cut, outputs), step.name


def test_cycle_tail_closed_forms_match_the_engine(tmp_path):
    n = TINY["cycle-tail"]
    lib, wl, _ = tiny("cycle-tail", 3, tmp_path)
    sys_ = wl.system(lib)
    b = lib.engine.bound(sys_)
    g = lib.engine.generated(sys_)
    names = lambda js: {lib.terms.render_term(j) for j in js}  # noqa: E731
    assert names(b.judgments) == wl.bound_set() and len(b.judgments) == 2 * n + 1
    assert names(g.judgments) == set(wl.cycle)
    assert names(lib.engine.coind(sys_).judgments) == set(wl.cycle)
    # Trace entries of one generated() call, in closed form.
    phase1 = n * (n + 1) // 2 + n + (n + 1) * (n + 2) // 2
    phase2 = n * (n + 1) + n * (n + 1) // 2
    assert sum(map(len, g.phase1.trace)) == phase1
    assert sum(map(len, g.trace)) == phase2
    assert len(g.phase1.trace) == len(g.trace) == n + 1


def test_visit_oracle_is_reachability(tmp_path):
    lib, wl, _ = tiny("visit-dense", 4, tmp_path)
    k = TINY["visit-dense"]
    assert len(wl.nodes) == k
    assert sum(len(s) for s in wl.succ.values()) == k + 1
    assert all(wl.reach(v) == set(wl.nodes) for v in wl.nodes)


def test_traced_pass_spans_nest(tmp_path):
    for name in sorted(WORKLOADS):
        d = tmp_path / name
        d.mkdir()
        lib, wl, steps = tiny(name, 1, d)
        with tracing.Tracer(lib) as tracer:
            run.run_pass(lib, wl, steps, tracer)
        spans = tracer.take()
        assert tracing.check_nesting(spans) == []
        by_id = dict(enumerate(spans))
        roots = [s for s in spans if s[3] < 0]
        assert len(roots) == len(steps)
        for i, s in by_id.items():
            if s[0] == "engine.generated":
                kids = {c[0] for c in spans if c[3] == i}
                assert kids == {"engine.bound", "engine.kernel"}, name
            if s[0].startswith("engine."):
                assert s[3] >= 0, name
        # After the block every wrapper is gone again.
        assert not hasattr(lib.engine.bound, "__wrapped__")
        assert not hasattr(lib.cli.generated, "__wrapped__")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_the_benchmark_file(trace, section, capsys):
    argv = ["--workload", "cycle-tail", "--seed", "5", "--seconds", "0",
            "--size", str(TINY["cycle-tail"]), "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    doc = json.loads(out[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    # The deep-JSON probe is too shallow to fail at this size.
    assert any(line.startswith("probe deep-json check (n=10): ok") for line in out)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "proof-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
