import gc
import random
import sys
import weakref
from collections import Counter

import pytest
from helpers import random_program, reference_pre_state, reference_run

from retrace import regex as rx
from retrace.corpus import CORPUS, MUTANTS, load_corpus
from retrace.formula import (
    FALSE,
    TRUE,
    BoolRef,
    Cmp,
    Implies,
    Not,
    Or,
    UnboundVariable,
    Var,
    boolref,
    cmp,
    evaluate,
    tconst,
    tvar,
)
from retrace import interp
from retrace.interp import CompiledProgram, NoSatisfyingState, check_triple_random, run
from retrace.lang import (
    Assign,
    Emit,
    If,
    Procedure,
    Program,
    Seq,
    SpecStmt,
    While,
    load,
    resolve,
)
from retrace.tracespec import TraceOption, TraceSpec, plain


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
    p = CompiledProgram(load_corpus("even_odd"))
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
    p = CompiledProgram(load(src))
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
    pe, ps = CompiledProgram(_emit_variant()), CompiledProgram(_spec_variant())
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
    pe, ps = CompiledProgram(pe), CompiledProgram(ps)
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
    "{ bool b = true; _(emit a) if (b) { if (b) { if (b) { p(); } } } }"
)


def test_stack_overflow_counts_as_fuel_exhausted():
    # with fuel above the recursion limit, both programs exhaust Python's
    # stack before their fuel
    fuel = sys.getrecursionlimit() + 100
    for src in (DEEP_RECURSION, "events a;\nproc p() _(ensures false) { _(emit a) p(); }"):
        p = load(src)
        rep = check_triple_random(p, "p", runs=3, seed=0, fuel=fuel)
        assert (rep.fuel_exhausted, rep.completed, rep.violations) == (3, 0, [])
        # one event per call: a run cut by its fuel would make fuel + 1 calls,
        # more than the stack holds, so this one was cut by RecursionError
        cut = run(p, "p", {}, 0, fuel)
        assert cut.outcome == "fuel"
        assert 0 < len(cut.trace) <= sys.getrecursionlimit() < fuel


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


# -- the compiled program against the reference interpreter --------------------


def _same_run(p, code, entry, seed, fuel):
    """Run `code` and the reference from the same pre-state and the same
    generator state: equal results, and equal generator states after."""
    pre = reference_pre_state(p, entry, random.Random(seed))
    a, b = random.Random(seed), random.Random(seed)
    got = run(code, entry, pre, a, fuel)
    assert got == reference_run(p, entry, pre, b, fuel)
    assert a.getstate() == b.getstate()
    return got


@pytest.mark.parametrize("name", list(CORPUS) + list(MUTANTS))
def test_runs_match_reference_interpreter_on_corpus(name):
    p = load_corpus(name)
    code = CompiledProgram(p)
    for seed in range(8):
        _same_run(p, code, p.entry, seed, 64)


def test_runs_match_reference_interpreter_on_random_programs():
    outcomes = Counter()
    for i in range(60):
        p = load(random_program(random.Random(i)))
        code = CompiledProgram(p, "main")
        for seed in range(4):
            outcomes[_same_run(p, code, "main", seed, 40).outcome] += 1
    # every way a run ends is exercised
    assert min(outcomes[o] for o in ("stopped", "aborted", "fuel")) >= 5, outcomes


def _nested_whiles(n):
    opened = "".join(f"while (i < {k + 1}) {{\n" for k in range(n))
    return f"events a;\nproc p() {{\nint i = 0;\n{opened}i = i + 1; _(emit a)\n{'}' * n}\n}}\n"


def _nested_ifs(n):
    opened = "".join(f"if (x < {k + 1}) {{\n" for k in range(n))
    return f"events a;\nint x;\nproc p() {{\n{opened}_(emit a)\n{'} else { x = x + 1; }' * n}\n}}\n"


def _else_ifs(n):
    chain = " else ".join(f"if (x == {k}) {{ _(emit a) x = {k + 1}; }}" for k in range(n))
    return f"events a;\nint x;\nproc p() {{\n{chain}\n}}\n"


def _long_sum(n):
    names = [f"v{k}" for k in range(n)]
    decls = "".join(f"int {v};\n" for v in names)
    return f"events a;\n{decls}proc p() {{\nint s;\ns = {' + '.join(names)};\nif (s < 0) {{ _(emit a) }}\n}}\n"


def _deep_formulas(n):
    """An implication chain and a negation chain, each `n` connectives deep,
    and the chain over `x'` that relates a new value of `x`."""
    imp, nots, rel = BoolRef(Var("h")), BoolRef(Var("h")), cmp("<=", tvar("x", True), tconst(3))
    for k in range(n):
        imp = Implies(Cmp("<", tvar("x"), tconst(k)), imp)
        nots = Not(nots)
        rel = Implies(Cmp("==", tvar("x", True), tconst(k)), rel)
    return imp, nots, rel


def _deep_formula_program(n):
    p = load("events a, b;\nint x;\nbool h;\nproc p() { bool c; }")
    imp, nots, rel = _deep_formulas(n)
    trace = TraceSpec((TraceOption(rx.symbol("a"), imp), TraceOption(rx.symbol("b"), nots)))
    proc = p.procedures["p"]
    proc.body = Seq((
        If(imp, Seq((Emit("a"),)), Seq((Emit("b"),))),
        Assign("c", nots),
        SpecStmt(("x",), Or((imp, Not(imp))), rel, trace),
        While(Not(Or((nots, BoolRef(Var("c"))))), TRUE, TraceSpec(), Seq((Assign("c", TRUE),))),
    ))
    proc.requires = Or((imp, Not(imp)))
    proc.ensures = rel
    proc.trace = trace
    return p


@pytest.mark.parametrize(
    "make, n",
    [
        (_nested_whiles, 25),
        (_nested_ifs, 120),
        (_else_ifs, 150),
        (_deep_formula_program, 300),
        (_long_sum, 4000),
    ],
)
def test_deep_nesting_runs_as_reference_does(make, n):
    # deeper than CPython's limits of 20 nested loops, 100 indentation
    # levels and 200 nested parentheses in one function, and a sum longer
    # than a chain of `+` its compiler accepts
    p = make(n) if make is _deep_formula_program else load(make(n))
    code = CompiledProgram(p, "p")
    outcomes = {_same_run(p, code, "p", seed, 10_000).outcome for seed in range(6)}
    assert "stopped" in outcomes
    rep = check_triple_random(p, "p", runs=20, seed=1, fuel=10_000)
    assert rep.completed + rep.fuel_exhausted + len(rep.violations) >= 20


def test_pre_state_types_are_checked_at_entry():
    # neither variable is ever read, and a wrong type still fails, at entry,
    # with the message of the read
    p = load("events a;\nint x;\nproc p() { bool b; _(emit a) }")
    with pytest.raises(UnboundVariable) as read:
        evaluate(cmp("<", tvar("x"), tconst(0)), {"x": True})
    with pytest.raises(UnboundVariable) as entry:
        run(p, "p", {"x": True}, 0)
    assert str(entry.value) == str(read.value)
    with pytest.raises(UnboundVariable) as read:
        evaluate(boolref("b"), {"b": 1})
    with pytest.raises(UnboundVariable) as entry:
        run(p, "p", {"x": 0, "b": 1}, 0)
    assert str(entry.value) == str(read.value)
    assert run(p, "p", {"x": 0, "b": True}, 0).outcome == "stopped"


def test_a_none_pre_state_value_reads_as_unbound():
    # at entry, as a read of it would
    p = load("events a;\nint x;\nproc p() { bool b; _(emit a) }")
    with pytest.raises(UnboundVariable, match="^no value for x$"):
        run(p, "p", {"x": None}, 0)
    with pytest.raises(UnboundVariable, match="^no value for b$"):
        run(p, "p", {"x": 0, "b": None}, 0)


def test_compiled_program_is_freed_by_reference_counting():
    # casino_rec's procedures call each other, and yet neither a check nor
    # a compiled program leaves a reference cycle behind
    p = load_corpus("casino_rec")
    gc.collect()
    gc.disable()
    try:
        check_triple_random(p, p.entry, runs=50, seed=1)
        code = CompiledProgram(p, p.entry)
        run(code, p.entry, {"pot": 0}, 1)
        dead = weakref.ref(code)
        del code
        assert dead() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


_REACH = """events a, b, gone, never;
int x;
proc spec_called() _(modifies x) _(ensures x' == 1) _(trace b);
proc spec_unused() _(trace never);
proc lonely() _(trace never);
proc leaf() { x = x + 1; spec_called(); }
proc main() { _(emit a) leaf(); main_tail(); }
proc main_tail() { _(emit b) }
proc unused() { _(emit gone) spec_unused(); abort(); }
"""


def test_check_compiles_only_what_its_entry_calls(monkeypatch):
    sources = []
    real = interp.build
    monkeypatch.setattr(interp, "build", lambda lines, ns: sources.append("\n".join(lines)) or real(lines, ns))
    p = load(_REACH)
    assert set(CompiledProgram(p, "main").procedures) == {"main", "leaf", "main_tail"}
    # the unreachable body, and the bodiless `abort` and `spec_unused`, are not generated
    assert "'gone'" not in sources[-1] and sources[-1].count("def _s") == 1
    # without an entry every body is generated, and still only the called bodiless procedures
    assert set(CompiledProgram(p).procedures) == {"main", "leaf", "main_tail", "unused"}
    assert "'gone'" in sources[-1] and sources[-1].count("def _s") == 3
    # a check of the unreachable procedure compiles it and runs as the reference
    # does: `abort()` has no transition, so every run ends stuck
    code = CompiledProgram(p, "unused")
    assert set(code.procedures) == {"unused"}
    for seed in range(4):
        assert _same_run(p, code, "unused", seed, 64).trace == ("gone", "never")
    rep = check_triple_random(p, "unused", runs=5, seed=3)
    assert (rep.fuel_exhausted, rep.completed, rep.violations) == (5, 0, [])
    for seed in range(4):
        assert _same_run(p, CompiledProgram(p, "main"), "main", seed, 64).trace == ("a", "b", "b")
