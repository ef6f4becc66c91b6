"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass line (run with `pytest -s` to see them).  Timings
cover verification only, not parsing or test setup.
"""

import random
import time
from unittest.mock import patch

from retrace import regex as rx
from retrace import solver as solver_module
from retrace.corpus import load_corpus
from retrace.interp import check_triple_random
from retrace.solver import BuiltinSolver
from retrace.verifier import TRACE_INCLUSION, verify_program
from helpers import (
    brute_force_sat,
    enum_subset,
    random_formula,
    random_regex,
    random_word,
    with_domain_bounds,
)


def _report(n: int, text: str) -> None:
    print(f"\n[PASS] criterion {n}: {text}")


def _verify_timed(name: str):
    """Verify as a fresh process does: on an empty answer table, so that
    no earlier test's answers count towards the time."""
    program = load_corpus(name)
    with patch.object(solver_module, "_ANSWERS", {}):
        t0 = time.perf_counter()
        report = verify_program(program)
        return report, time.perf_counter() - t0


def _failed_inclusions(report):
    return [
        ob
        for proc in report.procedures
        for ob in proc.obligations
        if not ob.holds and ob.kind == TRACE_INCLUSION
    ]


def test_criterion_1_even_odd():
    report, dt = _verify_timed("even_odd")
    assert report.verified
    assert dt < 1.0, f"took {dt:.2f}s"
    dumped = {
        (ob.lhs, ob.rhs)
        for proc in report.procedures
        for ob in proc.obligations
        if ob.kind == TRACE_INCLUSION
    }
    assert ("(even odd)* even", "(even odd)* even") in dumped
    assert ("(even odd)* even odd", "(even odd)*") in dumped
    assert all(
        ob.holds for proc in report.procedures for ob in proc.obligations
    )
    for mutant in ("even_odd_swapped", "even_odd_weak_exit"):
        mrep, _ = _verify_timed(mutant)
        assert not mrep.verified
        failures = _failed_inclusions(mrep)
        assert failures and all(f.witness is not None for f in failures)
        for f in failures:
            assert rx.member(f.witness, f.lhs_regex)
            assert not rx.member(f.witness, f.rhs_regex)
    _report(1, f"even_odd verified in {dt*1000:.0f}ms; both loop-body "
               "inclusions in the dump; both mutants fail with witnesses")


def test_criterion_2_matcher():
    report, dt = _verify_timed("matcher")
    assert report.verified
    assert dt < 2.0, f"took {dt:.2f}s"
    mrep, _ = _verify_timed("matcher_no_abort")
    assert not mrep.verified
    failures = _failed_inclusions(mrep)
    assert any("error" in (f.witness or ()) for f in failures)
    _report(2, f"matcher verified in {dt*1000:.0f}ms; dropping abort() "
               "fails through the uncovered error event")


def test_criterion_3_casino():
    report, dt = _verify_timed("casino")
    assert report.verified
    assert dt < 2.0, f"took {dt:.2f}s"
    mrep, _ = _verify_timed("casino_remove_after_bet")
    assert not mrep.verified
    failures = _failed_inclusions(mrep)
    assert any("remove_from_pot" in (f.witness or ()) for f in failures)
    rec_report, rec_dt = _verify_timed("casino_rec")
    assert rec_report.verified
    assert rec_dt < 2.0, f"took {rec_dt:.2f}s"
    assert any(p.name == "game_placed" for p in rec_report.procedures)
    _report(3, f"casino verified in {dt*1000:.0f}ms and the recursive "
               f"variant in {rec_dt*1000:.0f}ms; pot draining after a bet "
               "is rejected")


def test_criterion_4_inclusion_vs_enumeration():
    rng = random.Random(40_000)
    alphabet = ("a", "b", "c")
    pairs = 10_000
    false_verdicts = 0
    for _ in range(pairs):
        u = random_regex(rng, rng.randint(1, 10), alphabet)
        v = random_regex(rng, rng.randint(1, 10), alphabet)
        res = rx.included(u, v)
        if res.holds:
            diff = enum_subset(u, v, 6)
            assert diff is None, (
                f"included said yes but {diff} separates {u} from {v}"
            )
        else:
            false_verdicts += 1
            assert res.witness is not None
            assert rx.member(res.witness, u), f"witness not in lhs: {u}"
            assert not rx.member(res.witness, v), f"witness in rhs: {v}"
    _report(4, f"{pairs} regex pairs, inclusion agrees with enumeration to "
               f"length 6 ({false_verdicts} false verdicts, all witnesses "
               "validated)")


def test_criterion_5_derivative_duality():
    rng = random.Random(50_000)
    alphabet = ("a", "b", "c")
    triples = 10_000
    for _ in range(triples):
        u = random_regex(rng, rng.randint(1, 12), alphabet)
        ev = rng.choice(alphabet)
        word = random_word(rng, alphabet, 8)
        assert rx.member(word, rx.derive(ev, u)) == rx.member((ev,) + word, u)
    _report(5, f"{triples} derivative/membership duality triples, zero failures")


def test_criterion_6_soundness_fuzzing():
    lines = []
    for name in ("even_odd", "matcher", "casino", "casino_rec", "while_star"):
        program = load_corpus(name)
        assert verify_program(program).verified
        oracle = check_triple_random(program, program.entry, runs=1000, seed=6)
        assert oracle.violations == [], f"{name}: {oracle.violations[:2]}"
        lines.append(f"{name} fuel={oracle.fuel_exhausted}/1000")
    _report(6, "1000 seeded runs per verified program, zero violations "
               f"({'; '.join(lines)})")


def test_criterion_7_while_star_gap():
    report, _ = _verify_timed("while_star")
    assert report.verified
    gap, _ = _verify_timed("while_star_paired")
    assert not gap.verified
    failures = _failed_inclusions(gap)
    assert failures and failures[0].rhs == "(even odd)*"
    _report(7, "local (even | odd) annotation proves (even | odd)* but "
               "cannot prove (even odd)*")


def test_criterion_8_solver_conformance(monkeypatch):
    rng = random.Random(80_000)
    monkeypatch.setattr(solver_module, "_ANSWERS", {})  # search, not earlier tests' answers
    solver = BuiltinSolver()
    formulas = 5000
    names_pool = ["x", "y", "z", "w"]
    sat_count = 0
    for _ in range(formulas):
        k = rng.randint(1, 4)
        names = names_pool[:k]
        f = with_domain_bounds(random_formula(rng, names), names)
        got = solver.satisfiable(f)
        assert got.status != "unknown", f"unknown on bounded fragment: {f}"
        want = brute_force_sat(f, names)
        assert (got.status == "sat") == want, f"disagreement on {f}"
        sat_count += got.status == "sat"
    _report(8, f"{formulas} bounded formulas (≤4 vars in [-8,8]): solver "
               f"matches exhaustive enumeration, no unknowns "
               f"({sat_count} sat)")
