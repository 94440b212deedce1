"""One-off scaling sweep; not a gated workload.

Usage, from the root of the repository::

    python3 perfbench/sweep.py [--out .perfbench/sweep.json]

Runs one checked, traced pass of ``cycle-tail`` at n = 250, 500, 1000,
2000 and of ``visit-dense`` at k = 5, 6, 7, recording engine, parse and
gen self times (raw wall seconds) with their counts, plus the best of
three ``generated()`` calls on the pure n-rule cycle and on the visit
system, scaled to the reference speed as in ``run.py``.  It then compares the figures with the baselines ROADMAP
item 1 quotes and says which it reproduced.  Timings depend on the
machine; counts do not.  Peak memory is about 0.5 GiB at n = 2000.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

CYCLE_SIZES = (250, 500, 1000, 2000)
VISIT_SIZES = (5, 6, 7)
SEED = 1


def traced_pass(name: str, size: int, workdir: Path) -> dict:
    lib, wl, _ = run.set_up(name, SEED, size, workdir)
    steps = wl.steps()
    with tracing.Tracer(lib) as tracer:
        p = run.run_pass(lib, wl, steps, tracer)
    spans = tracer.take()
    errors = [e for s in steps for e in run.problems(wl, lib, s, p.outputs[s.name], p.outputs)]
    row = {"size": size, "pipeline_wall_s": sum(p.raw.values()), "errors": errors,
           "self_wall_s": tracing.self_times(spans), **tracing.layer_counts(spans)}
    return row, lib, wl


def best_of_3(fn, *args) -> float:
    """Seconds of the fastest of three calls, each scaled to the
    reference speed like the benchmark's steps."""
    best = float("inf")
    for _ in range(3):
        before = run.calibrate(("hash",))
        t0 = perf_counter()
        fn(*args)
        dt = perf_counter() - t0
        best = min(best, dt * 2 / (before + run.calibrate(("hash",))))
    return best


def pure_cycle(lib, n: int):
    """An n-rule cycle closed by one coaxiom: ROADMAP item 1's family."""
    sym, Rule = lib.terms.sym, lib.engine.Rule
    rules = [Rule(sym(f"c{i}"), (sym(f"c{(i + 1) % n}"),)) for i in range(n)]
    return lib.engine.System(rules + [Rule(sym("c0"), co=True)])


def within(measured: float, quoted: float, factor: float = 1.5) -> bool:
    return quoted / factor <= measured <= quoted * factor


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one-off scaling sweep")
    ap.add_argument("--out", default=str(run.OUT_DIR / "sweep.json"))
    args = ap.parse_args(argv)
    run.OUT_DIR.mkdir(exist_ok=True)

    cycle, visit = [], []
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for n in CYCLE_SIZES:
            d = Path(tmp) / f"cycle{n}"
            d.mkdir()
            row, lib, wl = traced_pass("cycle-tail", n, d)
            row["pure_cycle_generated_s"] = best_of_3(lib.engine.generated,
                                                      pure_cycle(lib, n))
            probe = wl.probe_step()
            res = run.run_step(lib, probe, {})
            row["deep_json_probe"] = "; ".join(
                run.problems(wl, lib, probe, res, {}))[:200] or "ok"
            cycle.append(row)
            print(f"cycle-tail n={n}: pass {row['pipeline_wall_s']:.2f} s, "
                  f"generated() on the pure cycle {row['pure_cycle_generated_s']:.3f} s, "
                  f"probe {row['deep_json_probe'][:60]}", flush=True)
        for k in VISIT_SIZES:
            d = Path(tmp) / f"visit{k}"
            d.mkdir()
            row, lib, wl = traced_pass("visit-dense", k, d)
            sys_ = wl.system(lib)
            row["regular_rules"] = len(sys_.regular_rules)
            row["co_rules"] = len(sys_.co_rules)
            row["generated_s"] = best_of_3(lib.engine.generated, sys_)
            row["bound_judgments"] = len(lib.engine.bound(sys_).judgments)
            row["parse_s_per_call"] = row["self_wall_s"]["dsl.parse"] / row["dsl.parse_calls"]
            visit.append(row)
            print(f"visit-dense k={k}: pass {row['pipeline_wall_s']:.2f} s, "
                  f"{row['regular_rules']} regular rules", flush=True)

    c = {r["size"]: r for r in cycle}
    v7 = visit[-1]
    t = {n: c[n]["pure_cycle_generated_s"] for n in CYCLE_SIZES}
    # Growth exponent of generated() from n=250 to n=2000: 2 is quadratic.
    slope = math.log(t[2000] / t[250]) / math.log(2000 / 250)
    baselines = [
        ("cycle generated() at n=1000", "0.29 s", t[1000], within(t[1000], 0.29)),
        ("cycle generated() at n=2000", "2.0 s", t[2000], within(t[2000], 2.0)),
        ("cycle generated() grows quadratically (exponent from n=250 to 2000)",
         "2.8 (0.29 s to 2.0 s)", slope, slope >= 1.7),
        ("visit k=7 rules", "17152", v7["regular_rules"], v7["regular_rules"] == 17152),
        ("visit k=7 bound", "71 judgments", v7["bound_judgments"],
         v7["bound_judgments"] == 71),
        ("visit k=7 gen (ground)", "1.1 s", v7["self_wall_s"]["gen.ground"],
         within(v7["self_wall_s"]["gen.ground"], 1.1)),
        ("visit k=7 render", "1.0 s", v7["self_wall_s"]["dsl.render"],
         within(v7["self_wall_s"]["dsl.render"], 1.0)),
        ("visit k=7 rendered size", "1.3 MiB", v7["dsl.render_bytes"] / 2 ** 20,
         within(v7["dsl.render_bytes"] / 2 ** 20, 1.3, 1.1)),
        ("visit k=7 parse, one call", "6.0 s", v7["parse_s_per_call"],
         within(v7["parse_s_per_call"], 6.0)),
        ("visit k=7 generated()", "0.34 s", v7["generated_s"],
         within(v7["generated_s"], 0.34)),
        ("parse profile: lexer 37%, term_key and hashing 35%", "profile", None, None),
    ]
    report = {
        "machine": {"python": platform.python_version(), "cpu": platform.processor()
                    or platform.machine(), "system": platform.system()},
        "src_lines": run.src_lines(),
        "cycle_tail": cycle,
        "visit_dense": visit,
        "baselines": [{"what": w, "roadmap": q, "measured": m,
                       "reproduced": ok} for w, q, m, ok in baselines],
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"src/coaxiom: {report['src_lines']} lines")
    for b in report["baselines"]:
        verdict = {True: "reproduced", False: "NOT reproduced",
                   None: "not measured (needs a profiler)"}[b["reproduced"]]
        m = b["measured"]
        print(f"  {b['what']}: roadmap {b['roadmap']}, measured "
              f"{m if m is None else round(m, 4)} -> {verdict}")
    errors = [e for r in cycle + visit for e in r["errors"]]
    for e in errors:
        print(f"sweep: WRONG: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
