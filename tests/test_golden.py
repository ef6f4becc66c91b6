"""Byte-for-byte golden comparisons on the whole corpus.

Each of the 5 corpus programs and 10 mutants is verified by the CLI in a
fresh process, run from the corpus directory so that `"source"` is the
relative file name, and its stdout is compared with `tests/golden/<name>.json`.
Regenerate all files (from the repository root) with:

    cd src/retrace/corpus && for f in *.rt mutants/*.rt; do PYTHONPATH=../.. python -m retrace.cli --json "$f" > "../../../tests/golden/$(basename "$f" .rt).json"; done

The oracle's reports are pinned too: `tests/golden/oracle_reports.jsonl` has
one line per file and seed, `check_triple_random(program, entry, 300, seed)`
as JSON, files by name, seeds 1 then 7.  It fixes the oracle's random draws,
their order and the violations found.  Regenerate it with:

    PYTHONPATH=src python tests/test_golden.py

Source positions are pinned by `tests/golden/parse_spans.jsonl`: for each
corpus file and for three generated straight lines of emits, the class and
`Span` of every command (pre-order) and the span of every procedure.  Spans
do not take part in AST equality, so nothing else catches a moved position.
The same command regenerates it.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

import json

from retrace import solver
from retrace.cli import main
from retrace.corpus import CORPUS, MUTANTS
from retrace.interp import check_triple_random
from retrace.lang import If, Seq, While, load_file, parse

GOLDEN = Path(__file__).parent / "golden"
CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "retrace" / "corpus"
FILES = {**CORPUS, **{name: rel for name, (_, rel) in MUTANTS.items()}}
ORACLE_GOLDEN = GOLDEN / "oracle_reports.jsonl"
ORACLE_RUNS = 300
ORACLE_SEEDS = (1, 7)
PARSE_GOLDEN = GOLDEN / "parse_spans.jsonl"
EMITS_SIZES = (1000, 1200, 1400)


def cli_json(rel: str) -> str:
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CORPUS_DIR.parent.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "retrace.cli", "--json", rel],
        cwd=CORPUS_DIR, env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout


def test_json_reports_match_golden():
    mismatched: list[str] = []
    first_diff = ""
    for name, rel in sorted(FILES.items()):
        want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        got = cli_json(rel)
        if got == want:
            continue
        mismatched.append(name)
        if not first_diff:
            first_diff = "".join(difflib.unified_diff(
                want.splitlines(keepends=True), got.splitlines(keepends=True),
                f"golden/{name}.json", f"retrace --json {rel}",
            ))
    assert not mismatched, f"reports differ for {mismatched}:\n{first_diff}"


def test_one_process_gives_the_goldens_in_either_order(monkeypatch, capsys):
    # the solvers of one process share their answers, and what one file's
    # verification leaves in the table must change no other file's report,
    # nor must what a verification on a budget of one step leaves there
    monkeypatch.setattr(solver, "_ANSWERS", {})
    monkeypatch.chdir(CORPUS_DIR)
    with monkeypatch.context() as m:
        m.setattr(solver, "_STEP_BUDGET", 1)
        main(["--json", *FILES.values()])
    capsys.readouterr()
    names = list(FILES)  # registry order
    for name in names + names[::-1]:
        main(["--json", FILES[name]])
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8"), name


def oracle_lines() -> list[tuple[str, int, str]]:
    """(file name, seed, report line) for every file and oracle seed."""
    out = []
    for name, rel in sorted(FILES.items()):
        p = load_file(str(CORPUS_DIR / rel))
        for seed in ORACLE_SEEDS:
            report = check_triple_random(p, p.entry, ORACLE_RUNS, seed)
            out.append((name, seed, json.dumps(report.to_dict()) + "\n"))
    return out


def test_oracle_reports_match_golden():
    want = ORACLE_GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    got = oracle_lines()
    assert len(want) == len(got)
    mismatched = [f"{name} seed {seed}" for (name, seed, line), w in zip(got, want) if line != w]
    assert not mismatched, f"oracle reports differ for {mismatched}"


def emits_source(n: int, period: tuple[str, ...] = ("b", "d", "a")) -> str:
    """About `n` emits repeating `period` under the contract `(period)*`,
    laid out one statement per line as the benchmark's `emits-N` programs."""
    lines = ["events a, b, c, d;", "", "proc main()", f"  _(trace ({' '.join(period)})*)", "{"]
    lines += [f"  _(emit {e})" for e in period * (n // len(period))]
    return "\n".join(lines + ["}"]) + "\n"


def _spans(c, out: list[str]) -> list[str]:
    """`Class line:col` of `c` and of every command inside it, in pre-order."""
    sp = getattr(c, "span", None)
    out.append(type(c).__name__ + ("" if sp is None else f" {sp.line}:{sp.col}"))
    children = c.stmts if isinstance(c, Seq) else (c.then, c.orelse) if isinstance(c, If) else (
        (c.body,) if isinstance(c, While) else ())
    for s in children:
        _spans(s, out)
    return out


def parse_span_lines() -> list[str]:
    sources = [(name, (CORPUS_DIR / rel).read_text(encoding="utf-8")) for name, rel in sorted(FILES.items())]
    sources += [(f"emits-{n}", emits_source(n)) for n in EMITS_SIZES]
    out = []
    for name, src in sources:
        procs = {
            q.name: {"span": f"{q.span.line}:{q.span.col}", "commands": _spans(q.body, []) if q.body else None}
            for q in parse(src, name).procedures.values()
        }
        out.append(json.dumps({"source": name, "procedures": procs}) + "\n")
    return out


def test_parse_spans_match_golden():
    want = PARSE_GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    got = parse_span_lines()
    assert len(want) == len(got)
    mismatched = [json.loads(line)["source"] for line, w in zip(got, want) if line != w]
    assert not mismatched, f"command spans differ for {mismatched}"


if __name__ == "__main__":
    ORACLE_GOLDEN.write_text("".join(line for _, _, line in oracle_lines()), encoding="utf-8")
    PARSE_GOLDEN.write_text("".join(parse_span_lines()), encoding="utf-8")
