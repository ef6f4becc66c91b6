"""Paired benchmark of a parent tree against a change tree, written as JSON.

    python3 tools/pair_bench.py --parent DIR --change DIR --out BENCH.json \
        [--claim verify:peak_rss_mb:0.5]

Each tree is a checkout with `src/` and `bench/`; give each side its own copy,
since `bench/run.py` writes `.bench_out/` into the tree it runs in.  For each
of the seeds 1 and 7919, each of 10 pairs runs `python3 bench/run.py --workload
all --seed S --seconds 55 --trace 0` once in each tree, the parent first in
even pairs and the change first in odd ones.  Per workload and end-to-end metric the output has each
side's median and quartiles, the pairs in which the change read lower and
higher, and every pair's values; it also says whether each input's report
digest is the same on both sides in every run.

`--claim WORKLOAD:METRIC:GAP` names a lower-is-better metric the change claims
to lower: it is met when, on every seed, the change reads lower in at least
nine tenths of the pairs and its median is lower than the parent's by at least
GAP and by more than the parent's interquartile range.

Fresh processes of each tree also measure:
- the 100,000-statement straight-line mutant of `bench/workloads.trace_program`:
  the tracemalloc peak of `lang.load` and what it keeps, per statement; the
  CPU time of `lang.load`, and the ru_maxrss growth of loading and verifying
  it, in a process that does nothing else;
- the peak resident memory of one untraced pass of each workload, read as
  VmHWM from /proc/self/status, which counts this process's pages only: a
  process started by vfork and exec, as `bench/run.py` starts its workers,
  reports in ru_maxrss the larger of its own peak and its parent's;
- the garbage collections, by generation, of one untraced `verify` pass;
- the solver's searches (`_Query.run`), conjunct pushes (`_Query.push`),
  witness checks (`_Query.satisfies`), conjuncts compiled (`compiled`, the
  misses of `solver._compiled`) and literal theories built (`theories`, the
  misses of `solver._theory_of`) in one untraced `verify` pass, counts that
  timing noise does not touch; `compiled` and `theories` are null on a tree
  that does not cache those per process;
- the lines of `src/retrace`, by file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# run in a fresh interpreter: PROBE <tree> mutant | peak | gc <seed> | solver <seed> | pass <workload> <seed>
PROBE = r"""
import gc, json, resource, sys, time, tracemalloc
root, what = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/src", root + "/bench"]
from retrace import lang, verifier
from retrace.solver import BuiltinSolver
from workloads import MAKERS, trace_program

out = {}
if what in ("mutant", "peak"):
    _, src, _ = trace_program(100000, ("a", "b", "c"))
    stmts = src.count("_(emit ")
if what == "mutant":
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.process_time()
    program = lang.load(src, "mutant")
    out["load_cpu_s"] = time.process_time() - start
    report = verifier.Verifier(program, BuiltinSolver()).verify_program()
    out["rss_growth_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
    out["verified"] = report.verified
elif what == "peak":
    tracemalloc.start()
    program = lang.load(src, "mutant")
    kept, peak = tracemalloc.get_traced_memory()
    out["load_peak_bytes_per_stmt"] = peak / stmts
    out["load_kept_bytes_per_stmt"] = kept / stmts
elif what == "gc":
    import worker
    seed = int(sys.argv[3])
    inputs = MAKERS["verify"](seed)
    gc.collect()
    before = gc.get_stats()
    worker.run_pass(inputs, seed)
    out["collections"] = [b["collections"] - a["collections"] for a, b in zip(before, gc.get_stats())]
elif what == "solver":
    import worker
    from retrace import solver
    seed = int(sys.argv[3])
    for name in ("run", "push", "satisfies"):
        def counted(*args, _inner=getattr(solver._Query, name), _name=name):
            out[_name] += 1
            return _inner(*args)
        out[name] = 0
        setattr(solver._Query, name, counted)
    # conjuncts compiled and literal theories built; null on a tree that does not cache them per process
    cached = {key: getattr(getattr(solver, name, None), "cache_info", None)
              for key, name in (("compiled", "_compiled"), ("theories", "_theory_of"))}
    before = {key: info and info().misses for key, info in cached.items()}
    worker.run_pass(MAKERS["verify"](seed), seed)
    out.update((key, info and info().misses - before[key]) for key, info in cached.items())
elif what == "pass":
    import worker
    seed = int(sys.argv[4])
    worker.run_pass(MAKERS[sys.argv[3]](seed), seed)
    with open("/proc/self/status") as fh:
        out["vmhwm_mb"] = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
print(json.dumps(out))
"""

PAIRS = 10  # per seed
SEEDS = (1, 7919)
SECONDS = 55  # bench/run.py's --seconds
PROBE_RUNS = 10  # per side and measurement, alternating


def probe(tree: Path, *args: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tree), *args],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_run(tree: Path, seed: int) -> tuple[dict, dict, bool]:
    """One `bench/run.py --workload all` run: metric values and report
    digests by workload, and whether every input was judged correct."""
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {wl: {m: v["value"] for m, v in res["metrics"].items()} for wl, res in last.items()}
    digests = {wl: json.loads((tree / ".bench_out" / f"{wl}-seed{seed}-trace0.json").read_text())
               ["bookkeeping"]["digests"] for wl in last}
    return metrics, digests, all(res["correct"] for res in last.values())


def spread(xs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(statistics.median(xs), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(pairs: list[tuple[float, float]]) -> dict:
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    ps, cs = spread(parent), spread(change)
    return {
        "parent": ps,
        "change": cs,
        "change_lower_in_pairs": sum(c < p for p, c in pairs),
        "change_higher_in_pairs": sum(c > p for p, c in pairs),
        "median_gap": round(ps["median"] - cs["median"], 4),  # positive: the change reads lower
        "parent_iqr": round(ps["q3"] - ps["q1"], 4),
        "pairs_parent_change": [[round(p, 4), round(c, 4)] for p, c in pairs],
    }


def source_lines(tree: Path) -> dict[str, int]:
    files = sorted((tree / "src" / "retrace").rglob("*.py"))
    return {str(f.relative_to(tree / "src" / "retrace")): len(f.read_text(encoding="utf-8").splitlines())
            for f in files}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC:GAP, a metric the change lowers")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    end_to_end: dict = {}
    digests_equal = True
    differing: set[str] = set()
    all_correct = {"parent": True, "change": True}
    for seed in SEEDS:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(PAIRS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                metrics, digests, correct = bench_run(sides[side], seed)
                runs[side].append({"metrics": metrics, "digests": digests})
                all_correct[side] &= correct
                print(f"seed {seed} pair {i + 1} {side}: "
                      + ", ".join(f"{wl} {m['wall_s']:.3f} s {m['peak_rss_mb']:.3f} MB" for wl, m in metrics.items()),
                      file=sys.stderr, flush=True)
        for p, c in zip(runs["parent"], runs["change"]):
            for wl, by_input in p["digests"].items():
                for inp, digest in by_input.items():
                    if c["digests"][wl].get(inp) != digest:
                        digests_equal = False
                        differing.add(inp)
        for wl in runs["parent"][0]["metrics"]:
            end_to_end.setdefault(wl, {})[f"seed{seed}"] = {
                metric: compare([(p["metrics"][wl][metric], c["metrics"][wl][metric])
                                 for p, c in zip(runs["parent"], runs["change"])])
                for metric in runs["parent"][0]["metrics"][wl]}

    mutant: dict = {side: {"runs": []} for side in sides}
    own_peak: dict = {wl: {side: [] for side in sides} for wl in end_to_end}
    for i in range(PROBE_RUNS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            mutant[side]["runs"].append(probe(sides[side], "mutant"))
            for wl in own_peak:
                own_peak[wl][side].append(probe(sides[side], "pass", wl, str(SEEDS[0]))["vmhwm_mb"])
    for side, tree in sides.items():
        mutant[side].update(probe(tree, "peak"))
        for key in ("load_cpu_s", "rss_growth_mb"):
            values = [r[key] for r in mutant[side]["runs"]]
            mutant[side][key] = {"min": round(min(values), 4), "median": round(statistics.median(values), 4),
                                 "max": round(max(values), 4)}
    own_peak = {wl: compare(list(zip(runs["parent"], runs["change"]))) for wl, runs in own_peak.items()}
    gc_pass = {side: {f"seed{s}": probe(tree, "gc", str(s))["collections"] for s in SEEDS}
               for side, tree in sides.items()}
    solver_pass = {side: {f"seed{s}": probe(tree, "solver", str(s)) for s in SEEDS}
                   for side, tree in sides.items()}

    lines = {side: source_lines(tree) for side, tree in sides.items()}
    by_file = {f: lines["change"].get(f, 0) - lines["parent"].get(f, 0)
               for f in sorted(set(lines["parent"]) | set(lines["change"]))}
    out = {
        "command": f"python3 bench/run.py --workload all --seed S --seconds {SECONDS} --trace 0, "
                   f"{PAIRS} pairs per seed, the parent first in even pairs",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "seeds": list(SEEDS),
        "pairs_per_seed": PAIRS,
        "every_input_correct": all_correct,
        "report_digests_equal": digests_equal,
        "differing_digests": sorted(differing),
        "end_to_end": end_to_end,
        "straight_line_100k_mutant": mutant,
        f"pass_vmhwm_mb_seed{SEEDS[0]}": own_peak,
        "gc_collections_per_verify_pass": gc_pass,
        "solver_calls_per_verify_pass": solver_pass,
        "src_retrace_lines": {"parent": sum(lines["parent"].values()), "change": sum(lines["change"].values()),
                              "net": sum(by_file.values()), "by_file": {f: n for f, n in by_file.items() if n}},
    }
    if args.claim:
        wl, metric, gap = args.claim.split(":")
        per_seed = end_to_end[wl]
        out["claim"] = {
            "workload": wl, "metric": metric, "min_gap": float(gap),
            "met": all(r[metric]["change_lower_in_pairs"] * 10 >= 9 * PAIRS
                       and r[metric]["median_gap"] >= float(gap)
                       and r[metric]["median_gap"] > r[metric]["parent_iqr"] for r in per_seed.values()),
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
