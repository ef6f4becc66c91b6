"""Command-line front end: verify source files, fuzz contracts with the
concrete oracle, and emit text or JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Optional

from .interp import NoSatisfyingState, check_triple_random
from .lang import SourceError, load_file
from .solver import make_solver
from .verifier import Verifier

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2

ORACLE_RUNS = 200  # oracle runs of --mode oracle|both without --oracle


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="retrace",
        description="Verify event-trace contracts of small imperative programs.",
    )
    ap.add_argument("files", nargs="+", help="program source files")
    ap.add_argument(
        "--mode",
        choices=("verify", "oracle", "both"),
        default=None,
        help="what to run (default: verify; --oracle implies both; oracle and "
        f"both without --oracle make {ORACLE_RUNS} runs)",
    )
    ap.add_argument(
        "--oracle",
        "--oracle-runs",
        dest="oracle_runs",
        type=int,
        metavar="N",
        default=None,
        help="run the randomized contract oracle with N runs",
    )
    ap.add_argument("--seed", type=int, default=0, help="oracle base seed (default 0)")
    ap.add_argument("--fuel", type=int, default=256, help="per-run step budget (default 256)")
    ap.add_argument(
        "--solver",
        default="internal",
        help="'internal' or an external SMT-LIB solver command line",
    )
    ap.add_argument("--entry", default=None, help="entry procedure for the oracle")
    ap.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    ap.add_argument("--dump-vcs", action="store_true", help="list every proof obligation")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command line; exit 1 means only that an obligation failed or
    the oracle found a violation, and any other failure exits 2."""
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return _run(args)
    except Exception as exc:  # a crash must not read as a failed obligation
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _run(args: argparse.Namespace) -> int:
    if args.oracle_runs is not None and args.oracle_runs < 1:
        print("error: --oracle requires at least one run", file=sys.stderr)
        return EXIT_ERROR
    if args.fuel < 1:
        print("error: --fuel must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    mode = args.mode or ("both" if args.oracle_runs is not None else "verify")
    runs = args.oracle_runs if args.oracle_runs is not None else ORACLE_RUNS

    files_out: list[dict] = []
    lines: list[str] = []
    failed = False
    for path in args.files:
        try:
            program = load_file(path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        except (SourceError, UnicodeDecodeError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        entry = args.entry or program.entry
        file_doc: dict = {"source": path}
        lines.append(path)
        if mode in ("verify", "both"):
            try:
                solver = make_solver(args.solver)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_ERROR
            report = Verifier(program, solver).verify_program()
            file_doc.update(report.to_dict())
            if not report.verified:
                failed = True
            for proc in report.procedures:
                n = len(proc.obligations)
                lines.append(f"  {proc.name}: {proc.status} ({n} obligations)")
                for w in proc.warnings:
                    lines.append(f"    warning: {w}")
                for ob in proc.obligations:
                    if args.dump_vcs or not ob.holds:
                        lines.append("    " + ob.describe())
        if mode in ("oracle", "both"):
            if entry is None:
                print(f"{path}: error: no executable procedure to use as entry", file=sys.stderr)
                return EXIT_ERROR
            try:
                oracle = check_triple_random(
                    program, entry, runs=runs, seed=args.seed, fuel=args.fuel
                )
            except (NoSatisfyingState, ValueError) as exc:
                print(f"{path}: error: {exc}", file=sys.stderr)
                return EXIT_ERROR
            file_doc["oracle"] = oracle.to_dict()
            if not oracle.ok:
                failed = True
            lines.append(
                f"  oracle {entry}: {len(oracle.violations)} violations / {oracle.runs} runs"
                f" (completed: {oracle.completed}, fuel-exhausted: {oracle.fuel_exhausted})"
            )
            for v in oracle.violations[:10]:
                lines.append(
                    f"    run {v.run}: {v.reason}: trace ⟨{', '.join(v.trace)}⟩ {v.detail}"
                )
        files_out.append(file_doc)

    code = EXIT_FAILED if failed else EXIT_OK
    if args.json:
        doc = {"files": files_out, "exit": code}
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
