"""Tests of the benchmark's own machinery, on inputs small enough to run in
a second.  Run with `python3 -m pytest bench/tests -q`."""

from __future__ import annotations

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_pass, traced_pass  # noqa: E402
from workloads import Input  # noqa: E402

GOOD = Input("good", "events a;\nproc main() _(trace a) { _(emit a) }\n", True, 4)
# raises inside `lang`
UNPARSABLE = Input("unparsable", "events a;\nproc main( {", True, 4)
# verifies vacuously, then raises inside `interp`: no pre-state exists
NO_PRE_STATE = Input("no-pre-state", "proc main() _(requires false) { }\n", True, 4)


def small_branches(seed: int) -> list[Input]:
    ok, bad, excluded = workloads.branches_program(3, random.Random(seed))
    return [Input("ok", ok, True, 4, paths=8),
            Input("bad", bad, False, 4, excluded=excluded, paths=8)]


def small_trace(seed: int) -> list[Input]:
    ok, bad, extra = workloads.trace_program(30, ("a", "b", "c"))
    return [Input("ok", ok, True, 2),
            Input("bad", bad, False, 2, excluded=extra, oracle_must_violate=True)]


def test_exception_in_a_layer_fails_only_its_input():
    result = run_pass([UNPARSABLE, GOOD, NO_PRE_STATE], seed=1)
    ops = {op["id"]: op for op in result["ops"]}
    assert [op["id"] for op in result["ops"]] == ["unparsable", "good", "no-pre-state"]
    assert ops["good"]["ok"] and ops["good"]["error"] is None
    assert ops["unparsable"]["error"] == "ParseError"
    assert ops["no-pre-state"]["error"] == "NoSatisfyingState"
    for crashed in (ops["unparsable"], ops["no-pre-state"]):
        assert not crashed["ok"]
        assert not any("wrong verdict" in p for p in crashed["problems"])


def test_crashes_count_in_error_rate_not_as_wrong_verdicts():
    passes = [run_pass([UNPARSABLE, GOOD], seed=1) for _ in range(2)]
    for p in passes:
        p["peak_rss_mb"] = 1.0
    res = run.summarize("t", 1, passes, [], [0.1], [], [UNPARSABLE, GOOD])
    assert (res["attempted"], res["failed"]) == (4, 2)
    assert not res["correct"]
    assert res["end_to_end"]["success_rate"] == 0.5
    assert res["bookkeeping"]["errors_by_type"] == {"ParseError": 2}


def test_known_verdicts_and_witnesses_pass_the_checks():
    for inputs in (small_branches(5), small_trace(5)):
        result = run_pass(inputs, seed=5)
        assert all(op["ok"] for op in result["ops"]), result["ops"]


def test_checks_catch_a_wrong_verdict_and_a_wrong_witness():
    ok, bad = small_branches(2)
    wrong_verdict = Input("ok", ok.source, False, 4)
    wrong_word = Input("bad", bad.source, False, 4, excluded=tuple(reversed(bad.excluded)))
    ops = run_pass([wrong_verdict, wrong_word], seed=2)["ops"]
    assert any("wrong verdict" in p for p in ops[0]["problems"])
    assert any("excluded word" in p for p in ops[1]["problems"])
    assert all(op["error"] is None for op in ops)


def test_same_seed_gives_same_inputs_and_identical_report_digests():
    assert workloads.branches_inputs(3) == workloads.branches_inputs(3)
    assert workloads.trace_inputs(3) == workloads.trace_inputs(3)
    assert workloads.branches_inputs(3) != workloads.branches_inputs(4)
    first, second = (run_pass(small_branches(3), seed=3) for _ in range(2))
    assert [op["digest"] for op in first["ops"]] == [op["digest"] for op in second["ops"]]


def test_tracing_changes_no_report_and_counts_every_path():
    inputs = small_branches(4)
    plain = run_pass(inputs, seed=4)
    traced = traced_pass(inputs, seed=4, spans_path=None)
    assert [op["digest"] for op in plain["ops"]] == [op["digest"] for op in traced["ops"]]
    assert traced["paths"] == {"ok": 8, "bad": 8}
    layers = traced["layers"]
    assert layers["verifier.paths"] == 16
    assert layers["lang.loads"] == 2 and layers["interp.runs"] == 8
    assert layers["solver.queries"] >= layers["solver.memo_hits"] > 0
    assert layers["tracespec.cases"] <= layers["tracespec.pairs"]


def test_tracer_restores_the_patched_functions():
    import retrace.regex as rx
    import retrace.verifier as verifier

    before = (rx.included, rx.derive, verifier.inclusion_obligations,
              verifier.Verifier.finalize_path)
    with Tracer().installed():
        assert rx.included is not before[0]
    assert (rx.included, rx.derive, verifier.inclusion_obligations,
            verifier.Verifier.finalize_path) == before


def test_self_time_subtracts_direct_children_and_splits_by_family():
    t = Tracer()
    t.spans = [
        ["verifier.verify_program", 0.0, 10.0, -1, "a/x"],
        ["solver.query", 1.0, 3.0, 0, "a/x"],
        ["tracespec.inclusion_obligations", 4.0, 9.0, 0, "a/x"],
        ["solver.query", 4.5, 5.0, 2, "a/x"],
        ["regex.included", 5.0, 8.0, 2, "a/x"],
        ["solver.query", 10.0, 14.0, -1, "b/y"],
    ]
    layers = t.layer_metrics()
    assert layers["verifier.self_s"] == 3.0
    assert layers["tracespec.self_s"] == 1.5
    assert layers["solver.busy_s"] == 6.5
    assert layers["solver.max_query_s"] == 4.0
    assert layers["regex.included_s"] == 3.0
    only_a = t.layer_metrics("a")
    assert (only_a["solver.busy_s"], only_a["solver.queries"]) == (2.5, 2)
    assert t.layer_metrics("b")["verifier.self_s"] == 0.0


def test_metric_names_and_units_match_benchmark_json():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    p = run_pass([GOOD], seed=1)
    p["peak_rss_mb"] = 1.0
    res = run.summarize("t", 1, [p], [], [0.1], [], [GOOD])
    for kind, names in (("end_to_end", list(res["end_to_end"])),
                        ("per_layer", list(Tracer().layer_metrics()))):
        assert names == [m["name"] for m in spec[kind]]
        assert [run.unit_of(n) for n in names] == [m["unit"] for m in spec[kind]]
