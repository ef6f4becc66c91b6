"""Byte-for-byte golden comparison of `retrace --json` on the whole corpus.

Each of the 5 corpus programs and 10 mutants is verified by the CLI in a
fresh process, run from the corpus directory so that `"source"` is the
relative file name, and its stdout is compared with `tests/golden/<name>.json`.
Regenerate all files (from the repository root) with:

    cd src/retrace/corpus && for f in *.rt mutants/*.rt; do PYTHONPATH=../.. python -m retrace.cli --json "$f" > "../../../tests/golden/$(basename "$f" .rt).json"; done
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

from retrace.corpus import CORPUS, MUTANTS

GOLDEN = Path(__file__).parent / "golden"
CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "retrace" / "corpus"
FILES = {**CORPUS, **{name: rel for name, (_, rel) in MUTANTS.items()}}


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
