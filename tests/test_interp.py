import random
from collections import Counter

import pytest

from retrace import regex as rx
from retrace.corpus import MUTANTS, load_corpus
from retrace.formula import FALSE, TRUE
from retrace.interp import NoSatisfyingState, check_triple_random, run
from retrace.lang import (
    Emit,
    Procedure,
    Program,
    Seq,
    SpecStmt,
    While,
    load,
    resolve,
)
from retrace.tracespec import TraceSpec, plain


def simple_program(body, events=("a", "b"), **proc_kw):
    p = Program(
        events=tuple(events),
        procedures={"p": Procedure("p", body=Seq(tuple(body)), **proc_kw)},
    )
    return resolve(p)


# -- basic execution ----------------------------------------------------------


def test_emit_stops_in_same_state_with_singleton_trace():
    p = load("events a;\nint x = 3;\nproc p() { _(emit a) }")
    r = run(p, "p", {"x": 3}, seed=0)
    assert r.outcome == "stopped"
    assert r.trace == ("a",)
    assert r.state["x"] == 3


def test_spec_stmt_guard_failure_aborts():
    p = simple_program([SpecStmt((), FALSE, TRUE, TraceSpec())])
    r = run(p, "p", {}, seed=0)
    assert r.outcome == "aborted"


def test_guard_failure_via_call_requires():
    p = load("events a;\nproc ext() _(requires false) ;\nproc p() { ext(); }")
    assert run(p, "p", {}, seed=0).outcome == "aborted"


def test_abort_call_cannot_complete():
    p = load("events a;\nproc p() { abort(); }")
    assert run(p, "p", {}, seed=0).outcome == "fuel"


def test_fuel_exhaustion_on_nonterminating_loop():
    p = load("events a;\nproc p() { while (true) { } }")
    assert run(p, "p", {}, seed=1, fuel=50).outcome == "fuel"


def test_straight_line_semantics():
    src = (
        "events a, b;\n"
        "int x;\n"
        "proc p() { x = 1; _(emit a) x = x + 2; _(emit b) _(emit a) }"
    )
    p = load(src)
    r = run(p, "p", {"x": 0}, seed=0)
    assert r.outcome == "stopped"
    assert r.trace == ("a", "b", "a")
    assert r.state["x"] == 3


def test_determinism():
    p = load_corpus("casino")
    a = run(p, "main", {"state": 0, "pot": 0}, seed=123, fuel=300)
    b = run(p, "main", {"state": 0, "pot": 0}, seed=123, fuel=300)
    assert a == b
    c = run(p, "main", {"state": 0, "pot": 0}, seed=124, fuel=300)
    assert (a.trace == c.trace) or a.trace != c.trace  # other seed is just a run


def test_even_odd_two_iterations():
    p = load_corpus("even_odd")
    ee_star = rx.star(rx.concat(rx.symbol("even"), rx.symbol("odd")))
    seen_two = False
    for seed in range(200):
        r = run(p, "even_odd", {}, seed=seed)
        if r.outcome != "stopped":
            continue
        assert rx.member(r.trace, ee_star)
        if len(r.trace) == 2:
            assert r.trace == ("even", "odd")
            seen_two = True
    assert seen_two


def test_bodiless_trace_sampling_respects_guards():
    src = (
        "events hot, cold;\n"
        "int t;\n"
        "proc sense() _(trace hot if 30 <= t) _(trace cold if t < 30) ;\n"
        "proc p() { sense(); }\n"
    )
    p = load(src)
    r = run(p, "p", {"t": 35}, seed=0)
    assert r.trace == ("hot",)
    r = run(p, "p", {"t": 5}, seed=0)
    assert r.trace == ("cold",)


def test_spec_stmt_modifies_respects_relation():
    src = (
        "events a;\n"
        "int x;\n"
        "proc bump() _(modifies x) _(ensures x < x') ;\n"
        "proc p() { bump(); }\n"
    )
    p = load(src)
    for seed in range(20):
        r = run(p, "p", {"x": 2}, seed=seed)
        assert r.outcome == "stopped"
        assert r.state["x"] > 2


# -- desugaring (emit vs equivalent specification statement) -------------------


def _emit_variant():
    return simple_program([Emit("a"), Emit("b")])


def _spec_variant():
    return simple_program(
        [
            SpecStmt((), TRUE, TRUE, plain(rx.symbol("a"))),
            SpecStmt((), TRUE, TRUE, plain(rx.symbol("b"))),
        ]
    )


def test_desugared_emit_same_trace_per_run():
    pe, ps = _emit_variant(), _spec_variant()
    for seed in range(30):
        assert run(pe, "p", {}, seed=seed).trace == ("a", "b")
        assert run(ps, "p", {}, seed=seed).trace == ("a", "b")


def test_desugared_emit_same_distribution_on_loop():
    emit_src = (
        "events a;\n"
        "proc p() { bool nd = nondet(); while (nd) { _(emit a) nd = nondet(); } }"
    )
    pe = load(emit_src)
    ps = load(emit_src)
    havoc, loop = ps.procedures["p"].body.stmts
    assert loop.body.stmts[0] == Emit("a")
    new_body = Seq(
        (SpecStmt((), TRUE, TRUE, plain(rx.symbol("a"))),) + loop.body.stmts[1:]
    )
    new_loop = While(
        loop.test, loop.invariant, loop.trace_inv, new_body, loop.local_trace
    )
    ps.procedures["p"].body = Seq((havoc, new_loop))
    lengths_e = Counter(len(run(pe, "p", {}, seed=s).trace) for s in range(500))
    lengths_s = Counter(len(run(ps, "p", {}, seed=s).trace) for s in range(500))
    for n in range(4):
        fe = lengths_e[n] / 500
        fs = lengths_s[n] / 500
        assert abs(fe - fs) < 0.1


# -- randomized contract checking ----------------------------------------------


def test_even_odd_oracle_clean():
    p = load_corpus("even_odd")
    rep = check_triple_random(p, "even_odd", runs=100, seed=3)
    assert rep.violations == []
    assert rep.completed == 100


def test_swapped_mutant_detected():
    p = load_corpus("even_odd_swapped")
    rep = check_triple_random(p, "even_odd", runs=100, seed=3)
    assert rep.violations
    assert all(v.reason == "trace" for v in rep.violations)
    assert any(v.trace[:1] == ("odd",) for v in rep.violations)


def test_missing_trace_contract_is_violation():
    p = load("events a;\nproc p() { _(emit a) }")
    rep = check_triple_random(p, "p", runs=10, seed=0)
    assert len(rep.violations) == 10
    assert all(v.reason == "trace" for v in rep.violations)


def test_postcondition_violation_detected():
    src = (
        "events a;\n"
        "int x;\n"
        "proc p() _(ensures x' == 1) { x = 2; }"
    )
    p = load(src)
    rep = check_triple_random(p, "p", runs=5, seed=0)
    assert len(rep.violations) == 5
    assert all(v.reason == "postcondition" for v in rep.violations)


def test_aborting_run_is_violation():
    src = (
        "events a;\n"
        "int x;\n"
        "proc ext() _(requires x == 0) ;\n"
        "proc p() { ext(); }\n"
    )
    p = load(src)
    rep = check_triple_random(p, "p", runs=50, seed=1)
    assert any(v.reason == "aborted" for v in rep.violations)


def test_no_satisfying_state():
    p = load("events a;\nproc p() _(requires false) { }")
    with pytest.raises(NoSatisfyingState):
        check_triple_random(p, "p", runs=1, seed=0)


def test_fuel_exhausted_reported_not_judged():
    p = load("events a;\nproc p() { while (true) { _(emit a) } }")
    rep = check_triple_random(p, "p", runs=5, seed=0, fuel=20)
    assert rep.fuel_exhausted == 5
    assert rep.violations == []


DEEP_RECURSION = (
    "events a;\nproc p() _(ensures false) "
    "{ bool b = true; if (b) { if (b) { if (b) { p(); } } } }"
)


def test_stack_overflow_counts_as_fuel_exhausted():
    # both runs out of Python's stack before their fuel runs out
    p = load(DEEP_RECURSION)
    rep = check_triple_random(p, "p", runs=3, seed=0)
    assert (rep.fuel_exhausted, rep.completed, rep.violations) == (3, 0, [])
    p = load("events a;\nproc p() _(ensures false) { p(); }")
    rep = check_triple_random(p, "p", runs=3, seed=0, fuel=400)
    assert (rep.fuel_exhausted, rep.completed, rep.violations) == (3, 0, [])


def test_oracle_report_roundtrip():
    p = load_corpus("while_star")
    rep = check_triple_random(p, "churn", runs=20, seed=9)
    doc = rep.to_dict()
    assert doc["runs"] == 20
    assert doc["violations"] == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_violations_replay_by_run_index(name):
    # every run draws from one stream, so a shorter check is a prefix of a
    # longer one and violation i replays as the last of a (i+1)-run check
    p = load_corpus(name)
    full = check_triple_random(p, p.entry, runs=300, seed=1)
    for k in (1, 37, 150):
        short = check_triple_random(p, p.entry, runs=k, seed=1)
        assert short.violations == [v for v in full.violations if v.run < k]
    vs = full.violations
    for v in (vs[0], vs[len(vs) // 2], vs[-1]) if vs else ():
        again = check_triple_random(p, p.entry, runs=v.run + 1, seed=1).violations[-1]
        assert (again.run, again.pre_state, again.trace, again.reason) == (
            v.run, v.pre_state, v.trace, v.reason
        )


def test_one_seeding_per_check(monkeypatch):
    seeded = []
    seed = random.Random.seed

    def counted(self, *args, **kwargs):
        seeded.append(args)
        return seed(self, *args, **kwargs)

    p = load_corpus("casino")
    monkeypatch.setattr(random.Random, "seed", counted)
    for runs in (0, 1, 25):
        seeded.clear()
        check_triple_random(p, p.entry, runs=runs, seed=5)
        assert seeded == [(5,)], runs
