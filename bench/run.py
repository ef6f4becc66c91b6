"""retrace benchmark: time-to-verdict per workload, and a traced per-layer run.

    python3 bench/run.py --workload verify --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 1

Each pass runs in a fresh worker process (bench/worker.py) and goes once
over the workload's inputs, one at a time.  Passes repeat until `--seconds`
would be exceeded.  With `--trace 0` the last stdout line reports the
end-to-end metrics: medians over the passes.  With `--trace 1` untraced and
traced passes alternate; the last line reports the per-layer metrics of the
traced passes, and the bookkeeping adds the tracing overhead.  Everything
else a run finds (seed, digests, failures, source size) goes to
.bench_out/<workload>-seed<seed>-trace<t>.json and to the lines before.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the seed to tune against, and the one kept back to confirm a claimed gain
DEV_SEED = 1
HELDOUT_SEED = 7919

SETUP_PROBES = 5  # extra set-up-only workers, so set-up has a stable median
HARD_LIMIT_S = 165  # a run must end well within 180 s, whatever --seconds says


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_rate", "_share")):
        return "ratio"
    return "count"


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> tuple[Optional[dict], str]:
    """Run one worker; its set-up is timed from the spawn, and a worker
    that outlives `deadline` is killed."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result, ""


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "retrace").rglob("*.py")))


def measure(workload: str, seed: int, seconds: int, trace: bool, inputs: list) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    setups: list[float] = []
    for _ in range(SETUP_PROBES):
        probe, err = spawn(workload, seed, deadline, "--setup-only")
        if probe is None:
            raise RuntimeError(err)
        setups.append(probe["setup_s"])

    plain: list[dict] = []
    traced: list[dict] = []
    crashes: list[str] = []
    t0 = time.monotonic()
    while True:
        tracing = trace and len(traced) < len(plain)
        kind = traced if tracing else plain
        extra = ["--trace", "1", "--spans",
                 str(OUT / "spans" / f"{workload}-seed{seed}-pass{len(traced)}.json")] \
            if tracing else []
        result, err = spawn(workload, seed, deadline, *extra)
        if result is None:
            crashes.append(err)
            if "timed out" in err or len(crashes) > 2:
                break
            continue
        setups.append(result["setup_s"])
        kind.append(result)
        elapsed = time.monotonic() - t0
        if plain and (traced or not trace):
            # stop before a pass like the last one would overrun --seconds
            if elapsed + result["elapsed_s"] > seconds:
                break
        if time.monotonic() > deadline:
            break
    if not plain or (trace and not traced):
        raise RuntimeError("no pass completed: " + "; ".join(crashes))
    return summarize(workload, seed, plain, traced, setups, crashes, inputs)


def summarize(workload: str, seed: int, plain: list[dict], traced: list[dict],
              setups: list[float], crashes: list[str], inputs: list) -> dict:
    passes = plain + traced
    ops = [op for p in passes for op in p["ops"]]
    # a worker that died took its whole pass with it
    attempted = len(ops) + len(crashes) * len(inputs)
    failed = sum(not op["ok"] for op in ops) + len(crashes) * len(inputs)

    digests: dict[str, set[str]] = {}
    for op in ops:
        if "digest" in op:
            digests.setdefault(op["id"], set()).add(op["digest"])
    unstable = sorted(i for i, d in digests.items() if len(d) > 1)

    obligations = sum(op.get("obligations", 0) for op in ops)
    unknown = sum(op.get("unknown", 0) for op in ops)
    runs = sum(op.get("runs", 0) for op in ops)
    judged = sum(op.get("judged", 0) for op in ops)

    # each input's median time over the untraced passes; the slowest of them
    by_input: dict[str, list[float]] = {}
    for p in plain:
        for op in p["ops"]:
            by_input.setdefault(op["id"], []).append(op["s"])
    input_s = {i: statistics.median(ts) for i, ts in by_input.items()}
    slowest = max(input_s, key=input_s.__getitem__)
    end_to_end = {
        "wall_s": statistics.median([p["wall_s"] for p in plain]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain]),
        "success_rate": 1 - failed / attempted if attempted else 0.0,
        "decided_share": 1 - unknown / obligations if obligations else 0.0,
        "oracle_judged_share": judged / runs if runs else 0.0,
    }
    layers = median_layers([p["layers"] for p in traced])
    split = {fam: layer_split(fam, traced) for fam in traced[0]["families"]} if traced else None
    overhead = None
    if traced:
        traced_wall = statistics.median([p["wall_s"] for p in traced])
        overhead = {"traced_wall_s": traced_wall, "untraced_wall_s": end_to_end["wall_s"],
                    "overhead_s": traced_wall - end_to_end["wall_s"],
                    "overhead_share": traced_wall / end_to_end["wall_s"] - 1}
    problems = Counter(pr for op in ops for pr in op["problems"])
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "bookkeeping": {
            "passes": len(plain),
            "traced_passes": len(traced),
            "error_rate": failed / attempted if attempted else 1.0,
            "unknown_obligations_per_pass": unknown / len(passes) if passes else 0,
            "errors_by_type": dict(Counter(op["error"] for op in ops if op["error"])),
            "problems": dict(problems),
            "worker_crashes": crashes,
            "tracing_overhead": overhead,
            "layer_split_by_family": split,
            "src_retrace_lines": source_lines(),
            # printed beside the metrics but not gated: on a 2-core VM this one
            # ~1 s input spread 0.32 over ten runs, above the largest bound
            "slowest_s": input_s[slowest],
            "slowest_input": slowest,
            "input_s": input_s,
            "unstable_digests": unstable,
            "digests": {i: sorted(d)[0] for i, d in sorted(digests.items())},
            # symbolic paths per input, as counted and as built; state merging
            # may lower the count without any verdict changing
            "paths_by_input": {i.id: [traced[0]["paths"].get(i.id), i.paths]
                               for i in inputs} if traced else None,
            "pass_wall_s": [p["wall_s"] for p in plain],
            "setup_samples_s": setups,
        },
    }


def median_layers(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median([m[name] for m in samples]) for name in samples[0]} \
        if samples else {}


# the layers' own times, whose shares of an input family's time show where it goes
SPLIT = {
    "solver": ("solver.busy_s",),
    "tracespec": ("tracespec.self_s",),
    "regex.included": ("regex.included_s",),
    "regex.member": ("regex.member_s",),
    "verifier": ("verifier.self_s",),
    "lang": ("lang.load_s",),
    "interp": ("interp.run_s", "interp.check_self_s"),
}


def layer_split(family: str, traced: list[dict]) -> dict[str, float]:
    """Shares of the family's traced time (its inputs' times summed) taken
    by each layer, medians over the traced passes."""
    layers = median_layers([p["families"][family] for p in traced])
    time_s = statistics.median([sum(op["s"] for op in p["ops"] if op["id"].startswith(family + "/"))
                                for p in traced])
    out = {"time_s": time_s}
    out.update({layer: sum(layers[m] for m in names) / time_s for layer, names in SPLIT.items()})
    return out


def report_line(res: dict, trace: bool) -> dict:
    values = res["per_layer"] if trace else res["end_to_end"]
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
    }


def print_summary(res: dict) -> None:
    book = res["bookkeeping"]
    print(f"== {res['workload']} (seed {res['seed']}): {book['passes']} passes"
          f" + {book['traced_passes']} traced; correct={res['correct']}"
          f" attempted={res['attempted']} failed={res['failed']}")
    for name, v in list(res["end_to_end"].items()) + list(res["per_layer"].items()):
        print(f"   {name:32s} {v:14.6g} {unit_of(name)}")
    print(f"   {'slowest_s':32s} {book['slowest_s']:14.6g} s ({book['slowest_input']})")
    print(f"   {'error_rate':32s} {book['error_rate']:14.6g} ratio")
    print(f"   {'unknown_obligations':32s} {book['unknown_obligations_per_pass']:14.6g} per pass")
    if book["tracing_overhead"]:
        o = book["tracing_overhead"]
        print(f"   tracing overhead: {o['overhead_s']:.3f} s ({o['overhead_share']:+.0%})")
    for fam, split in (book["layer_split_by_family"] or {}).items():
        shares = ", ".join(f"{k} {v:.0%}" for k, v in split.items() if k != "time_s")
        print(f"   {fam} ({split['time_s']:.2f} s traced): {shares}")
    if book["paths_by_input"]:
        paths = book["paths_by_input"]
        same = all(built is None or counted == built for counted, built in paths.values())
        print(f"   verifier.paths per input equal the paths built: {same}"
              f" ({', '.join(f'{i} {c}' for i, (c, _) in paths.items())})")
    for problem, n in book["problems"].items():
        print(f"   FAILED x{n}: {problem}")
    for crash in book["worker_crashes"]:
        print(f"   WORKER: {crash}")
    if book["unstable_digests"]:
        print(f"   reports differ between passes: {book['unstable_digests']}")


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "retrace" / "__init__.py").is_file():
        print(f"error: no retrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import MAKERS

    names = list(MAKERS) if args.workload == "all" else [args.workload]
    if any(n not in MAKERS for n in names):
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(MAKERS)}, all",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=2)  # byte-compile once, outside any timing
    compileall.compile_dir(str(HERE), quiet=2, maxlevels=0)
    OUT.mkdir(exist_ok=True)

    results = {}
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace), MAKERS[name](args.seed))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1) + "\n")
        print_summary(res)
        results[name] = report_line(res, bool(args.trace))
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
