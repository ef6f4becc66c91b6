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
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

import json

from retrace.corpus import CORPUS, MUTANTS
from retrace.interp import check_triple_random
from retrace.lang import load_file

GOLDEN = Path(__file__).parent / "golden"
CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "retrace" / "corpus"
FILES = {**CORPUS, **{name: rel for name, (_, rel) in MUTANTS.items()}}
ORACLE_GOLDEN = GOLDEN / "oracle_reports.jsonl"
ORACLE_RUNS = 300
ORACLE_SEEDS = (1, 7)


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


if __name__ == "__main__":
    ORACLE_GOLDEN.write_text("".join(line for _, _, line in oracle_lines()), encoding="utf-8")
