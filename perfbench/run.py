"""End-to-end benchmark of the coaxiom CLI, with a traced run per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload visit-dense --seed 1 --seconds 30 --trace 0

It drives ``coaxiom.cli.main`` in-process, one command after another:
a closed loop with one client, one process and one thread.  A pass is
the workload's fixed sequence of commands (see ``workloads.py``); the
run repeats passes for ``--seconds`` seconds after one untimed pass
whose every output is checked against answers computed without the
engine.  Later passes must reproduce those outputs byte for byte.

``--trace 0`` reports the end-to-end metrics: medians over the passes,
set-up time as the median of several fresh imports, and peak memory of
a fresh process that runs one pass.  Times are scaled to a reference
host speed (see ``calibrate``); raw wall times are printed above the
result.  ``--trace 1`` alternates untraced
and traced passes, reports per-layer self times and counts, and writes
the spans to ``.perfbench/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import types
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS, Outcome, Step  # noqa: E402

# Fresh imports per run for set-up time; the median is reported.
SETUPS = 7
# Seconds each calibration part takes at the reference speed: a 2-vCPU
# x86-64 host running CPython 3.11 while its neighbours are idle.
CAL_REF = {"hash": 0.0105, "json": 0.0085}
CAL_REPEAT = 3
MODULES = ("cli", "dsl", "engine", "proofs", "checks", "terms")
END_TO_END_GROUPS = ("generated", "check", "prove")


def load_lib() -> types.SimpleNamespace:
    """Import ``coaxiom`` afresh from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "coaxiom" or m.startswith("coaxiom.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"coaxiom.{m}") for m in MODULES})


def set_up(name: str, seed: int, size: int, workdir: Path):
    """Import plus input generation; returns (lib, workload, seconds)."""
    t0 = perf_counter()
    lib = load_lib()
    wl = WORKLOADS[name](seed, size, workdir)
    wl.write_inputs()
    return lib, wl, perf_counter() - t0


def invoke(lib, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a traceback is a failed operation, not a crash
        return Outcome(None, out.getvalue(), f"{type(e).__name__}: {e}")
    return Outcome(code, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class _Node:
    name: str
    args: tuple = ()


def _hash_work() -> int:
    nodes = [_Node(f"n{i % 50}", (_Node(f"a{i % 7}"),)) for i in range(1000)]
    index: dict = {}
    for i, nd in enumerate(nodes):
        index.setdefault(nd, []).append(i)
    sets = [frozenset(nodes[i:i + 40]) for i in range(0, 800, 20)]
    hits = sum(1 for a in sets for b in sets if a <= b | a)
    text = ",".join(f"{nd.name}({len(nd.args)})" for nd in nodes)
    return len(index) + hits + len(text)


def _tree(depth: int) -> dict:
    kids = [_tree(depth - 1), _tree(depth - 1)] if depth else []
    return {"judgment": f"n{depth}(abc,{{d,e}})", "rule": depth, "co": False,
            "children": kids}


_TREE = _tree(8)


def _json_work() -> int:
    return len(json.loads(json.dumps(_TREE, indent=2))["children"])


CAL_WORK = {"hash": _hash_work, "json": _json_work}


def calibrate(parts: tuple[str, ...]) -> float:
    """Speed of the host now relative to the reference speed: the wall
    time of fixed work that does not touch coaxiom (hashing, sets and
    strings; a JSON round trip of a 511-node tree) over its ``CAL_REF``.

    A shared 2-vCPU x86-64 host ran the same code up to 1.9x slower for
    stretches of seconds to minutes, depending on its neighbours.  Each
    timed step is bracketed by a calibration (each part best of
    ``CAL_REPEAT``, without garbage collection) and divided by the mean
    of the two brackets.  Over 140-200 s of passes, medians
    of 20 s windows spread by 3-6% (quartiles over median) scaled and by
    13-31% raw.  Each workload names the parts that track it best
    (``Workload.calibration``): hashing alone for the engine- and
    parse-heavy ones; proof-ladder's output-heavy steps needed the JSON
    part too (spread 3% instead of 6%).
    """
    total = 0.0
    gc.disable()
    try:
        for part in parts:
            work = CAL_WORK[part]
            best = float("inf")
            for _ in range(CAL_REPEAT):
                t0 = perf_counter()
                if work() <= 0:
                    raise AssertionError("calibration did no work")
                best = min(best, perf_counter() - t0)
            total += best / CAL_REF[part] / len(parts)
    finally:
        gc.enable()
    return total


def run_step(lib, step: Step, outputs: dict, tracer=None) -> Outcome:
    if step.argv is not None:
        return invoke(lib, step.argv)
    span = tracer.open("bench.verify") if tracer else None
    try:
        code, text = step.fn(outputs, lib)
        return Outcome(code, text)
    except Exception as e:
        return Outcome(None, "", f"{type(e).__name__}: {e}")
    finally:
        if tracer:
            tracer.close(span)


@dataclass
class Pass:
    raw: dict[str, float]       # wall seconds per step
    scale: dict[str, float]     # 1 / the step's calibration
    outputs: dict[str, Outcome]

    def seconds(self, names) -> float:
        """Scaled seconds of the named steps."""
        return sum(self.raw[n] * self.scale[n] for n in names)


def run_pass(lib, wl, steps: list[Step], tracer=None) -> Pass:
    gc.collect()
    p = Pass({}, {}, {})
    before = calibrate(wl.calibration)
    for step in steps:
        t0 = perf_counter()
        p.outputs[step.name] = run_step(lib, step, p.outputs, tracer)
        p.raw[step.name] = perf_counter() - t0
        after = calibrate(wl.calibration)
        p.scale[step.name] = 2 / (before + after)
        before = after
    return p


def problems(wl, lib, step: Step, res: Outcome, outputs: dict) -> list[str]:
    if res.code is None:
        return [f"{step.name}: raised {res.error}"]
    if res.code != step.expect_exit:
        return [f"{step.name}: exit {res.code}, expected {step.expect_exit}: "
                f"{res.error.strip()[:200]}"]
    try:
        return wl.check(step, res, outputs, lib)
    except Exception as e:  # unreadable output is a wrong output
        return [f"{step.name}: output does not parse: {type(e).__name__}: {e}"]


def fingerprint(wl, step: Step, res: Outcome) -> tuple:
    digest = hashlib.blake2b(res.out.encode()).hexdigest()
    if step.group == "gen":
        digest += hashlib.blake2b(Path(wl.path(wl.rule_file)).read_bytes()).hexdigest()
    return res.code, digest


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errs: list[str]) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs)


def checked_pass(wl, lib, steps, tally: Tally) -> dict:
    """The untimed first pass: every output against the oracles.
    Returns the fingerprints later passes must reproduce."""
    outputs = run_pass(lib, wl, steps).outputs
    prints = {}
    for step in steps:
        res = outputs[step.name]
        tally.add(problems(wl, lib, step, res, outputs))
        prints[step.name] = fingerprint(wl, step, res)
    return prints


def compare(wl, steps, outputs, prints, tally: Tally) -> None:
    for step in steps:
        res = outputs[step.name]
        if res.code is None:
            tally.add([f"{step.name}: raised {res.error}"])
        elif fingerprint(wl, step, res) != prints[step.name]:
            tally.add([f"{step.name}: output differs from the checked pass"])
        else:
            tally.add([])


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "coaxiom").rglob("*.py")))


def peak_rss_mib(name: str, seed: int, size: int, tally: Tally) -> float:
    """Peak resident memory of a fresh process that sets up and runs one pass."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--size", str(size), "--rss-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tally.add([f"rss probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        return 0.0
    tally.add([])
    return int(lines[-1]) / 1024.0


def rss_probe(name: str, seed: int, size: int, workdir: Path) -> int:
    lib, wl, _ = set_up(name, seed, size, workdir)
    steps = wl.steps()
    outputs = run_pass(lib, wl, steps).outputs
    bad = [s.name for s in steps if outputs[s.name].code != s.expect_exit]
    if bad:
        print(f"rss probe: wrong exit status from {bad}", file=sys.stderr)
        return 1
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, size: int, seconds: float, workdir: Path,
               tally: Tally):
    rss = peak_rss_mib(name, seed, size, tally)
    setups = []
    parts = WORKLOADS[name].calibration
    before = calibrate(parts)
    for _ in range(SETUPS):
        lib, wl, dt = set_up(name, seed, size, workdir)
        after = calibrate(parts)
        setups.append(dt * 2 / (before + after))
        before = after
    steps = wl.steps()
    prints = checked_pass(wl, lib, steps, tally)
    passes = []
    start = perf_counter()
    while perf_counter() - start < seconds or not passes:
        p = run_pass(lib, wl, steps)
        compare(wl, steps, p.outputs, prints, tally)
        passes.append(p)
    names = [s.name for s in steps]
    print(f"{name}: {len(passes)} timed passes; wall s per pass "
          + " ".join(f"{sum(p.raw.values()):.3f}" for p in passes)
          + "; scaled " + " ".join(f"{p.seconds(names):.3f}" for p in passes))
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "pipeline_s": metric(median([p.seconds(names) for p in passes]), "s"),
        **{f"{g}_s": metric(median([p.seconds([s.name for s in steps if s.group == g])
                                    for p in passes]), "s")
           for g in END_TO_END_GROUPS},
        "peak_rss_mib": metric(rss, "MiB"),
    }
    return lib, wl, metrics


def fireable(lib, wl) -> float:
    """Share of the rule file's rules that can ever fire: those whose
    premises all lie in the bound."""
    sys_ = wl.system(lib)
    b = lib.engine.bound(sys_).judgments
    rules = sys_.regular_rules + sys_.co_rules
    return sum(1 for r in rules if set(r.premises) <= b) / len(rules)


LAYER_TIMES = {
    "cli.self_s": ("cli.main",),
    "dsl.parse_s": ("dsl.parse", "dsl.parse_judgment"),
    "dsl.self_s": ("dsl.parse", "dsl.parse_judgment", "dsl.render"),
    "engine.bound_s": ("engine.bound",),
    "engine.kernel_s": ("engine.kernel",),
    "engine.self_s": ("engine.bound", "engine.kernel", "engine.generated",
                      "engine.coind"),
    "checks.level_witness_s": ("checks.level_witness",),
    "checks.self_s": ("checks.level_witness", "checks.bcp"),
    "proofs.prove_regular_s": ("proofs.prove_regular",),
    "proofs.self_s": ("proofs.prove_wf", "proofs.prove_approx",
                      "proofs.prove_regular", "proofs.to_dict",
                      "proofs.from_dict", "proofs.validate"),
}


def traced(name: str, seed: int, size: int, seconds: float, workdir: Path,
           tally: Tally):
    lib, wl, _ = set_up(name, seed, size, workdir)
    steps = wl.steps()
    prints = checked_pass(wl, lib, steps, tally)
    ratio = fireable(lib, wl)
    plain, with_spans, records, self_s = [], [], [], []
    counts = out_bytes = None
    tracer = tracing.Tracer(lib)
    start = perf_counter()
    names = [s.name for s in steps]
    while perf_counter() - start < seconds or not with_spans:
        p = run_pass(lib, wl, steps)
        compare(wl, steps, p.outputs, prints, tally)
        plain.append(p.seconds(names))
        with tracer:
            p = run_pass(lib, wl, steps, tracer)
        compare(wl, steps, p.outputs, prints, tally)
        spans = tracer.take()
        nesting = tracing.check_nesting(spans)
        if nesting:
            tally.add(nesting)
        with_spans.append(p.seconds(names))
        self_s.append(tracing.self_times(spans, [p.scale[n] for n in names]))
        records += tracing.to_records(spans, len(with_spans))
        if counts is None:
            counts = tracing.layer_counts(spans)
            out_bytes = sum(len(p.outputs[s.name].out) for s in steps if s.argv)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{name}-seed{seed}.json").write_text(json.dumps(records))

    names = sorted({n for st in self_s for n in st})
    print(f"{name}: {len(with_spans)} traced passes; median scaled self time per span:")
    for n in names:
        print(f"  {n:24s} {median([st.get(n, 0.0) for st in self_s]):10.4f} s")

    stats = wl.stats
    metrics = {k: metric(median([sum(st.get(n, 0.0) for n in ns) for st in self_s]), "s")
               for k, ns in LAYER_TIMES.items()}
    # Passes alternate, so pairing them cancels slow drift of the host.
    metrics["trace.overhead_s"] = metric(
        median([t - u for t, u in zip(with_spans, plain)]), "s")
    units = {"dsl.rule_bytes": "bytes", "dsl.render_bytes": "bytes"}
    for k, v in counts.items():
        metrics[k] = metric(v, units.get(k, "count"))
    metrics.update({
        "gen.fireable_ratio": metric(ratio, "ratio"),
        "proofs.nodes": metric(stats.nodes, "count"),
        "proofs.json_bytes": metric(stats.json_bytes, "bytes"),
        "proofs.sharing_ratio": metric(stats.distinct / stats.nodes, "ratio"),
        "cli.output_bytes": metric(out_bytes, "bytes"),
        "src.lines": metric(src_lines(), "count"),
    })
    return lib, wl, metrics


def deep_probe(wl, lib) -> None:
    """Untimed ``check --format json`` on cycle-tail's deepest member.

    Reported on its own line, outside the result: it fails until proof
    serialisation stops recursing once per proof level.
    """
    step = wl.probe_step()
    res = run_step(lib, step, {})
    errs = problems(wl, lib, step, res, {})
    verdict = "ok" if not errs else "FAILED: " + "; ".join(errs)[:300]
    print(f"probe deep-json check (n={len(wl.cycle)}): {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller sizes are for the self-test and the scaling sweep only.
    ap.add_argument("--size", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    size = args.size or SIZES[args.workload]

    if not (SRC / "coaxiom" / "__init__.py").is_file():
        print(f"perfbench: no coaxiom package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{os.getpid()}-", dir=OUT_DIR))
    try:
        if args.rss_probe:
            return rss_probe(args.workload, args.seed, size, workdir)
        tally = Tally()
        run = traced if args.trace else end_to_end
        lib, wl, metrics = run(args.workload, args.seed, size, args.seconds,
                               workdir, tally)
        if args.workload == "cycle-tail":
            deep_probe(wl, lib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"src/coaxiom: {src_lines()} lines")
    for err in tally.errors[:20]:
        print(f"perfbench: WRONG: {err}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
