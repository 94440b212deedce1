"""A seeded fuzz of the command line, run in-process.

Each run takes one command line of the golden replay (``cli_golden``)
and runs it on the replay's input files, with the files it names either
left as they are or mutated a few characters at a time.  Whatever the
input, ``main`` must answer with an exit status that README gives, and
with exactly the stderr that status promises.  Every proof a ``prove``
or ``check`` run prints as JSON must reload through ``proof_from_dict``
and pass ``validate`` against the rules of the file it was proved from.
Every ``.coax`` input must read the same through ``parse_system`` as
token by token: the same rules in order, or the same error.  So must
every ``.coax`` and ``.spec`` input through ``parse_judgments``.  The
rule file a ``gen`` run prints must read back to the same text through
``parse_system`` and ``render_system``.
"""

from __future__ import annotations

import collections
import json
import random

import cli_golden

from coaxiom import (APPROX, REGULAR_GENERATED, WF_EXTENDED, ValidationReport,
                     parse_judgments, parse_system, proof_from_dict, render_system,
                     validate)
from coaxiom.cli import _ERRORS
from test_dsl import (read_judgments_token_by_token, read_token_by_token, reading,
                      split_cut_reads)

RUNS = 500
SEED = 20180417
LABELS = tuple(f"{label}: " for _, label, _ in _ERRORS)
# Characters a mutation may insert, besides those of the file itself.
NOISE = "(){},.;:<-\\ \n0123456789abxyz"


def mutate(text: str, rng: random.Random) -> str:
    """Apply one to three character-level edits: delete, insert,
    replace, or repeat a short span."""
    pool = text + NOISE
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(pool) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(pool) + text[i + 1:]
        else:
            text = text[:i] + text[i:i + rng.randint(1, 8)] + text[i:]
    return text


def verdict(run: dict) -> str | None:
    """What is wrong with one run's status and stderr, if anything."""
    code, err = run["code"], run["stderr"]
    if code in (0, 1):
        return None if err == "" else "stderr is not empty"
    if code in (2, 3):
        if err.count("\n") == 1 and err.endswith("\n") and err.startswith(LABELS):
            return None
        return "stderr is not one labelled line"
    return f"status {code!r} is not 0-3"


def revalidate(run: dict, argv: list[str], rules: str) -> ValidationReport:
    """The JSON proof a status-0 ``prove`` or ``check`` run of ``argv``
    printed, reloaded and validated against ``rules`` in the mode the
    command line asked for."""
    proof = proof_from_dict(json.loads(run["stdout"])["proof"])
    sys_ = parse_system(rules)
    if argv[0] == "check" or "--regular" in argv:
        return validate(sys_, proof, REGULAR_GENERATED)
    if "--level" in argv:
        level = int(argv[argv.index("--level") + 1])
        return validate(sys_, proof, APPROX, level=level)
    return validate(sys_, proof, WF_EXTENDED)


def test_no_input_breaks_the_command_line(tmp_path, monkeypatch):
    rng = random.Random(SEED)
    cases = cli_golden.cases()
    statuses: collections.Counter = collections.Counter()
    modes = set()
    failures = []
    split_taken = judgment_texts = rule_files = 0
    for n in range(RUNS):
        argv = rng.choice(cases)
        inputs = {name: mutate(text, rng) if rng.random() < 0.8 else text
                  for name, text in cli_golden.FILES.items() if name in argv}
        # Each run reads new files in a directory of its own: on some
        # file systems overwriting a file costs a thousand times more
        # than writing a new one.
        run_dir = tmp_path / str(n)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        for name, text in inputs.items():
            (run_dir / name).write_text(text)
            if name.endswith(".coax"):
                split_taken += split_cut_reads(text)
                if reading(parse_system, text) != reading(read_token_by_token, text):
                    failures.append((name, text, "parse_system and token by token differ"))
            if name.endswith((".coax", ".spec")):
                judgment_texts += 1
                if (reading(parse_judgments, text)
                        != reading(read_judgments_token_by_token, text)):
                    failures.append((name, text, "parse_judgments and token by token differ"))
        try:
            run = cli_golden.invoke(argv)
            problem = verdict(run)
            if (not problem and run["code"] == 0 and argv[0] in ("prove", "check")
                    and argv[-2:] == ["--format", "json"]):
                report = revalidate(run, argv, (run_dir / argv[1]).read_text())
                modes.add(report.mode.split("(")[0])
                if not report.ok:
                    problem = f"reloaded proof: {report.violations[:3]}"
            if not problem and run["code"] == 0 and argv[0] == "gen" and run["stdout"]:
                rule_files += 1
                if render_system(parse_system(run["stdout"])) != run["stdout"]:
                    problem = "the rule file gen printed does not read back"
        except SystemExit as e:  # argparse refusing the command line
            run, problem = {"code": e.code, "stderr": ""}, None
        except Exception as e:  # any other escape is what the fuzz looks for
            run, problem = {"code": None, "stderr": ""}, f"raised {e!r}"
        statuses[run["code"]] += 1
        if problem:
            failures.append((argv, inputs, run["code"], run["stderr"], problem))
    assert failures == []
    # The split cut read some of the rule files.
    assert split_taken > 0
    # 300 texts at this seed; 37 rule files printed by gen.
    assert judgment_texts >= 250
    assert rule_files >= 30
    # The runs reach every status, not only the parse errors.
    assert set(statuses) == {0, 1, 2, 3}
    # 9 proofs: wf-extended 3, approx 1, regular-generated 5
    assert modes == {WF_EXTENDED, APPROX, REGULAR_GENERATED}
