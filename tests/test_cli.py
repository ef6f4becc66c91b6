import json
import os
import subprocess
import sys
from pathlib import Path

from retrace.cli import main
from retrace.corpus import path
from retrace.verifier import Verifier


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verified_program_exits_zero(capsys):
    code, out, err = run_cli(capsys, str(path("even_odd")))
    assert code == 0
    assert "even_odd: verified" in out


def test_failing_program_exits_one_with_witness(capsys):
    code, out, err = run_cli(capsys, str(path("even_odd_swapped")))
    assert code == 1
    assert "failed" in out
    assert "witness ⟨odd⟩" in out


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.rt"
    bad.write_text("events a;\nproc p( { }\n")
    code, out, err = run_cli(capsys, str(bad))
    assert code == 2
    assert "error" in err


def test_non_decimal_digit_is_a_source_error(tmp_path, capsys):
    bad = tmp_path / "bad.rt"
    bad.write_text("events a;\nint x = ²;\n", encoding="utf-8")
    code, out, err = run_cli(capsys, str(bad))
    assert code == 2
    assert f"{bad}: error: 2:9: unexpected character '²'" in err
    assert "internal error" not in err


def test_missing_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "/nonexistent/prog.rt")
    assert code == 2


def test_non_utf8_file_exits_two_without_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.rt"
    bad.write_bytes(b"events a;\xff\n")
    code, out, err = run_cli(capsys, str(bad))
    assert code == 2
    assert err.startswith(f"{bad}: error: ")
    assert "Traceback" not in err
    assert "internal error" not in err


def test_resolve_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.rt"
    bad.write_text("events a;\nproc p() { q(); }\n")
    code, out, err = run_cli(capsys, str(bad))
    assert code == 2
    assert "q" in err


def test_internal_error_exits_two(monkeypatch, capsys):
    def crash(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(Verifier, "verify_program", crash)
    code, out, err = run_cli(capsys, str(path("even_odd")))
    assert code == 2
    assert "internal error: RuntimeError: boom" in err
    assert out == ""


def test_usage_error_exits_two(capsys):
    assert main([]) == 2


def test_oracle_mode_summary(capsys):
    code, out, err = run_cli(
        capsys, "--oracle", "50", "--seed", "7", str(path("casino"))
    )
    assert code == 0
    assert "0 violations / 50 runs" in out


def test_oracle_only_mode(capsys):
    code, out, err = run_cli(
        capsys, "--mode", "oracle", "--oracle", "25", str(path("even_odd"))
    )
    assert code == 0
    assert "oracle even_odd" in out
    assert "obligations" not in out


def test_oracle_stack_overflow_is_not_an_internal_error(tmp_path, capsys):
    src = tmp_path / "rec.rt"
    src.write_text(
        "events a;\nproc p() _(ensures false) "
        "{ bool b = true; if (b) { if (b) { if (b) { p(); } } } }\n"
    )
    code, out, err = run_cli(capsys, "--oracle", "3", str(src))
    assert code == 0
    assert "0 violations / 3 runs (completed: 0, fuel-exhausted: 3)" in out
    assert "internal error" not in err


def test_oracle_detects_mutant(capsys):
    code, out, err = run_cli(
        capsys, "--mode", "oracle", "--oracle", "60", str(path("even_odd_swapped"))
    )
    assert code == 1
    assert "violations" in out


def test_json_report_shape(capsys):
    code, out, err = run_cli(capsys, "--json", str(path("while_star")))
    doc = json.loads(out)
    assert doc["exit"] == 0 == code
    assert doc["files"][0]["verified"] is True
    assert doc["files"][0]["procedures"][0]["name"] == "churn"


def test_json_reports_are_byte_identical(capsys):
    args = ["--json", "--oracle", "30", "--seed", "3", str(path("casino"))]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_dump_vcs_lists_passing_obligations(capsys):
    code, out, err = run_cli(capsys, "--dump-vcs", str(path("even_odd")))
    assert code == 0
    assert "(even odd)* even odd ⊑ (even odd)*" in out
    assert "... ok" in out


def test_multiple_files(capsys):
    code, out, err = run_cli(capsys, str(path("even_odd")), str(path("while_star")))
    assert code == 0
    assert "even_odd: verified" in out and "churn: verified" in out
    code, out, err = run_cli(
        capsys, str(path("even_odd")), str(path("while_star_paired"))
    )
    assert code == 1


def test_external_solver_flag(tmp_path, capsys):
    stub = tmp_path / "s.py"
    stub.write_text(
        "import sys\n"
        "text = sys.stdin.read()\n"
        "print('unsat' if '(assert false)' in text else 'sat')\n"
    )
    src = tmp_path / "t.rt"
    src.write_text("events a;\nproc p() _(trace a) { _(emit a) }\n")
    code, out, err = run_cli(
        capsys, "--solver", f"{sys.executable} {stub}", str(src)
    )
    assert code == 0
    assert "p: verified" in out


def test_crashing_external_solver_is_conservative(tmp_path, capsys):
    src = tmp_path / "t.rt"
    src.write_text("events a;\nproc p() _(trace a) { _(emit a) }\n")
    code, out, err = run_cli(capsys, "--solver", "/nonexistent/solver", str(src))
    assert code == 1
    assert "cannot decide guard" in out


def test_console_entry_point():
    # the package is importable from a plain checkout too, as it is in-process
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "retrace.cli", str(path("even_odd"))],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "verified" in proc.stdout
