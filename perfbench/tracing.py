"""Spans around the calls into each layer of ``coaxiom``.

Each wrapper is installed under the name its callers use (for example
``coaxiom.cli.generated`` and ``coaxiom.engine.bound``, so that the
calls ``generated`` makes inside the engine are caught too).  A span is
``[name, start, end, parent, attrs]``; spans stay in memory and are
written out when the run ends.  A span's self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module, attribute, span name).  ``terms`` has no entry point of its
# own: its cost shows inside dsl.parse, gen.ground and cli.main.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_system", "dsl.parse"),
    ("cli", "parse_judgment", "dsl.parse_judgment"),
    ("cli", "parse_judgments", "dsl.parse_judgment"),
    ("cli", "render_system", "dsl.render"),
    ("cli", "parse_graph", "gen.parse_input"),
    ("cli", "gen_visit", "gen.ground"),
    ("cli", "generated", "engine.generated"),
    ("cli", "coind", "engine.coind"),
    ("cli", "prove_wf", "proofs.prove_wf"),
    ("cli", "prove_approx", "proofs.prove_approx"),
    ("cli", "prove_regular", "proofs.prove_regular"),
    ("cli", "proof_to_dict", "proofs.to_dict"),
    ("cli", "level_witness", "checks.level_witness"),
    ("cli", "bounded_coinduction", "checks.bcp"),
    ("engine", "bound", "engine.bound"),
    ("engine", "kernel", "engine.kernel"),
    ("proofs", "bound", "engine.bound"),
    ("proofs", "generated", "engine.generated"),
    ("proofs", "proof_from_dict", "proofs.from_dict"),
    ("proofs", "validate", "proofs.validate"),
    ("checks", "bound", "engine.bound"),
)


def _trace_attrs(args, result) -> dict:
    trace = result.trace
    return {"layers": len(trace), "entries": sum(map(len, trace)),
            "size": len(result.judgments)}


ATTRS = {
    "cli.main": lambda args, result: {"command": args[0][0]},
    "dsl.parse": lambda args, result: {"bytes": len(args[0])},
    "dsl.render": lambda args, result: {"bytes": len(result)},
    "gen.ground": lambda args, result: {
        "rules": len(result.regular_rules) + len(result.co_rules)},
    "engine.bound": _trace_attrs,
    "engine.kernel": _trace_attrs,
    "engine.coind": _trace_attrs,
    "engine.generated": lambda args, result: {"size": len(result.judgments)},
}


class Tracer:
    """Installs the wrappers on a loaded ``coaxiom`` and records spans."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if attrs is not None:
                self.spans[i][4] = attrs(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for mod, attr, name in WRAPPED:
            module = getattr(self.lib, mod)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> list[list]:
        """The spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list], scale=None) -> dict[str, float]:
    """Summed self time per span name.  ``scale[k]``, if given, multiplies
    the times of every span under the k-th root span."""
    child = [0.0] * len(spans)
    root: list[int] = []
    roots = 0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            root.append(root[parent])
        else:
            root.append(roots)
            roots += 1
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        factor = scale[root[i]] if scale else 1.0
        out[name] = out.get(name, 0.0) + ((end - start) - child[i]) * factor
    return out


def _sum(spans, name, key):
    return sum(s[4][key] for s in spans if s[0] == name and s[4])


def _count(spans, name):
    return sum(1 for s in spans if s[0] == name)


def layer_counts(spans: list[list]) -> dict[str, float]:
    """Work counts of one pass, read off its spans."""
    bound_sizes = [s[4]["size"] for s in spans if s[0] == "engine.bound" and s[4]]
    gen_sizes = [s[4]["size"] for s in spans if s[0] == "engine.generated" and s[4]]
    return {
        "dsl.rule_bytes": _sum(spans, "dsl.parse", "bytes"),
        "dsl.parse_calls": _count(spans, "dsl.parse"),
        "dsl.render_bytes": _sum(spans, "dsl.render", "bytes"),
        "gen.rules": _sum(spans, "gen.ground", "rules"),
        "engine.phase1_layers": _sum(spans, "engine.bound", "layers"),
        "engine.phase2_layers": _sum(spans, "engine.kernel", "layers"),
        "engine.trace_entries": sum(_sum(spans, n, "entries") for n in (
            "engine.bound", "engine.kernel", "engine.coind")),
        "engine.bound_calls": _count(spans, "engine.bound"),
        "engine.generated_calls": _count(spans, "engine.generated"),
        "engine.bound_size": max(bound_sizes, default=0),
        "engine.generated_size": max(gen_sizes, default=0),
        "cli.commands": _count(spans, "cli.main"),
        "trace.spans": len(spans),
    }


def check_nesting(spans: list[list]) -> list[str]:
    """Every span lies inside its parent, and every layer span sits under
    a CLI command or the benchmark's own verify step."""
    errs = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            errs.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]):
                errs.append(f"span {i} {name} is not inside its parent {p[0]}")
        elif name not in ("cli.main", "bench.verify"):
            errs.append(f"span {i} {name} has no parent")
    return errs


def to_records(spans: list[list], pass_no: int) -> list[dict]:
    """Spans as JSON records; spans of one pass share ``pass``."""
    return [{"pass": pass_no, "id": i, "parent": parent, "name": name,
             "start": start, "end": end, **(attrs or {})}
            for i, (name, start, end, parent, attrs) in enumerate(spans)]
