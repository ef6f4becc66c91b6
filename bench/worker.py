"""One benchmark pass in a fresh process.

A pass is a closed loop: one caller verifies one input at a time, from
source text through `lang.load`, `Verifier(...).verify_program()`, the oracle
cross-check and `json.dumps` of the report, to a checked verdict.  Starting a
new process per pass gives every pass the empty regex intern table a CLI run
starts with.

    python3 bench/worker.py --workload corpus --seed 1 [--trace 1 --spans FILE]
    python3 bench/worker.py --workload corpus --seed 1 --setup-only

The last stdout line is a JSON object; `ready` is the CLOCK_MONOTONIC time
at which the inputs were ready, so the parent can time set-up from spawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# notes with which the verifier marks an undecided query or guard
UNDECIDED = ("solver answered unknown", "cannot decide guard")


def _plain(name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def check(inp, report, oracle, member: Callable) -> list[str]:
    """Why the outcome of `inp` is wrong, judged without the verifier: the
    expected verdict comes from the registry or the generator, and every
    failed trace inclusion's witness is replayed by derivatives."""
    from retrace.verifier import TRACE_INCLUSION

    problems = []
    if report.verified != inp.verified:
        problems.append(f"wrong verdict: verified={report.verified}")
    failed = [o for p in report.procedures for o in p.obligations if not o.holds]
    for ob in failed:
        if ob.kind != TRACE_INCLUSION:
            continue
        if ob.witness is None:
            if not (ob.note or "").startswith(UNDECIDED):
                problems.append(f"trace inclusion at {ob.span} failed without a witness")
        elif not member(ob.witness, ob.lhs_regex) or member(ob.witness, ob.rhs_regex):
            problems.append(f"invalid witness {ob.witness!r}")
    if inp.excluded is not None and [ob.witness for ob in failed] != [inp.excluded]:
        problems.append("the one failure should have the excluded word as witness")
    if inp.verified and oracle.violations:
        problems.append(f"oracle violation on a verified program: {oracle.violations[0]}")
    if inp.oracle_must_violate and len(oracle.violations) != oracle.runs:
        problems.append("oracle missed the violation of a straight-line mutant")
    return problems


def run_pass(inputs: list, seed: int, tracer=None) -> dict:
    """Verify and cross-check every input once; an exception fails its input
    only, with its type recorded, and the pass goes on."""
    from retrace.regex import member  # bound before the tracer patches it

    ops = []
    with tracer.installed() if tracer is not None else nullcontext():
        start = time.perf_counter()
        for inp in inputs:
            ops.append(operation(inp, seed, member, tracer))
        wall = time.perf_counter() - start
    return {"wall_s": wall, "ops": ops}


def operation(inp, seed: int, member: Callable, tracer=None) -> dict:
    from retrace import interp, lang, verifier
    from retrace.solver import BuiltinSolver
    from workloads import FUEL

    call = _plain if tracer is None else tracer.call
    if tracer is not None:
        tracer.input = inp.id
    t0 = time.perf_counter()
    op: dict[str, Any] = {"id": inp.id, "error": None}
    try:
        program = call("lang.load", lang.load, inp.source, inp.id)
        solver = BuiltinSolver() if tracer is None else tracer.solver()
        report = call("verifier.verify_program",
                      verifier.Verifier(program, solver).verify_program)
        oracle = call("interp.check_triple_random", interp.check_triple_random,
                      program, program.entry, inp.oracle_runs, seed, FUEL)
        doc = report.to_dict()
        doc["oracle"] = oracle.to_dict()
        op["digest"] = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        op["problems"] = check(inp, report, oracle, member)
        obligations = [o for p in report.procedures for o in p.obligations]
        op["obligations"] = len(obligations)
        op["unknown"] = sum((o.note or "").startswith(UNDECIDED) for o in obligations)
        op["runs"] = oracle.runs
        op["judged"] = oracle.runs - oracle.fuel_exhausted
        if tracer is not None:
            tracer.count("verifier.obligations", len(obligations))
            tracer.count("verifier.failed_obligations", sum(not o.holds for o in obligations))
    except Exception as exc:  # a crash in any layer fails this input, not the run
        op["error"] = type(exc).__name__
        op["problems"] = [f"{type(exc).__name__}: {str(exc)[:200]}"]
    op["s"] = time.perf_counter() - t0
    op["ok"] = not op["problems"]
    return op


def traced_pass(inputs: list, seed: int, spans_path: Optional[Path]) -> dict:
    from spans import Tracer

    tracer = Tracer()
    result = run_pass(inputs, seed, tracer)
    result["layers"] = tracer.layer_metrics()
    families = sorted({i.id.split("/")[0] for i in inputs})
    result["families"] = {f: tracer.layer_metrics(f) for f in families}
    result["paths"] = tracer.per_input("verifier.paths")
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "input"], "spans": tracer.spans}))
    return result


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None, help="write the spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import retrace

    if Path(retrace.__file__).resolve().parent != SRC / "retrace":
        print(f"error: imported retrace from {retrace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import MAKERS

    inputs = MAKERS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        result: dict = {}
    elif args.trace:
        result = traced_pass(inputs, args.seed, args.spans)
    else:
        result = run_pass(inputs, args.seed)
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
