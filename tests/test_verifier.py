import sys

import pytest

from retrace import regex as rx
from retrace.corpus import CORPUS, MUTANTS, load_corpus
from retrace.formula import (
    FALSE,
    TRUE,
    BoolRef,
    Var,
    conj,
    disj,
    neg,
)
from retrace.lang import (
    Abort,
    Call,
    Emit,
    If,
    Procedure,
    Program,
    Seq,
    SpecStmt,
    load,
    resolve,
)
from retrace.tracespec import spec_of
from retrace.verifier import (
    GUARD_CHECK,
    TRACE_INCLUSION,
    SymState,
    Verifier,
    verify_program,
)


def make_program(body, events=("even", "odd"), variables="bool g;\n", extra=""):
    decls = "events " + ", ".join(events) + ";\n" + variables + extra
    return load(decls + "proc p() { }"), None


# -- whole corpus --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_verifies(name):
    rep = verify_program(load_corpus(name))
    assert rep.verified, [
        ob.describe() for p in rep.procedures for ob in p.obligations if not ob.holds
    ]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_fail(name):
    rep = verify_program(load_corpus(name))
    assert not rep.verified
    failures = [
        ob for p in rep.procedures for ob in p.obligations if not ob.holds
    ]
    assert failures
    for ob in failures:
        assert ob.kind in (TRACE_INCLUSION, GUARD_CHECK, "entailment")
        if ob.kind == TRACE_INCLUSION and ob.witness is not None:
            # the reported word separates the two languages
            assert rx.member(ob.witness, ob.lhs_regex)
            assert not rx.member(ob.witness, ob.rhs_regex)


def test_even_odd_example_obligations_in_dump():
    rep = verify_program(load_corpus("even_odd"))
    pairs = {
        (ob.lhs, ob.rhs)
        for p in rep.procedures
        for ob in p.obligations
        if ob.kind == TRACE_INCLUSION and "preserved" in ob.description
    }
    assert ("(even odd)* even", "(even odd)* even") in pairs
    assert ("(even odd)* even odd", "(even odd)*") in pairs
    assert all(ob.holds for p in rep.procedures for ob in p.obligations)


def test_bodiless_procedures_are_assumed():
    rep = verify_program(load_corpus("matcher"))
    assert [p.name for p in rep.procedures] == ["lex"]


def test_swapped_mutant_witness_is_odd():
    rep = verify_program(load_corpus("even_odd_swapped"))
    witnesses = [
        ob.witness
        for p in rep.procedures
        for ob in p.obligations
        if not ob.holds and ob.witness
    ]
    assert ("odd",) in witnesses


def test_while_star_gap():
    assert verify_program(load_corpus("while_star")).verified
    rep = verify_program(load_corpus("while_star_paired"))
    assert not rep.verified
    failed = [
        ob
        for p in rep.procedures
        for ob in p.obligations
        if not ob.holds and ob.kind == TRACE_INCLUSION
    ]
    assert failed[0].lhs == "(even | odd)*"
    assert failed[0].rhs == "(even odd)*"


# -- direct execution ----------------------------------------------------------


def _setup(src):
    p = load(src)
    proc = p.procedures["p"]
    v = Verifier(p)
    store = v.fresh_store(proc)
    state = SymState(dict(store), v.ground(proc.requires, store), rx.EPSILON)
    return p, proc, v, state


def test_emit_accumulates_in_order():
    _, proc, v, st = _setup("events even, odd;\nproc p() { }")
    obs, warns = [], []
    out = v.exec(
        Seq((Emit("even"), Emit("odd"), Emit("even"))), st, proc, obs, warns
    )
    assert len(out) == 1
    assert out[0].prefix is rx.concat(
        rx.symbol("even"), rx.symbol("odd"), rx.symbol("even")
    )
    assert not obs


def test_if_forks_on_test():
    _, proc, v, st = _setup("events even, odd;\nbool g;\nproc p() { }")
    obs, warns = [], []
    cmd = If(BoolRef(Var("g")), Seq((Emit("odd"),)), Seq((Emit("even"),)))
    out = v.exec(cmd, st, proc, obs, warns)
    assert len(out) == 2
    prefixes = {s.prefix for s in out}
    assert prefixes == {rx.symbol("odd"), rx.symbol("even")}


def test_unsatisfiable_branch_pruned():
    _, proc, v, st = _setup("events even, odd;\nproc p() { }")
    out = v.exec(
        If(TRUE, Seq((Emit("even"),)), Seq((Emit("odd"),))), st, proc, [], []
    )
    assert len(out) == 1
    assert out[0].prefix is rx.symbol("even")


def test_spec_stmt_toggle_case_split():
    src = "events even, odd;\nbool b;\nproc p() { }"
    p, proc, v, st = _setup(src)
    b, bp = BoolRef(Var("b")), BoolRef(Var("b", True))
    rel = disj(conj(bp, neg(b)), conj(neg(bp), b))
    stmt = SpecStmt(
        ("b",), TRUE, rel, spec_of((rx.symbol("even"), neg(b)), (rx.symbol("odd"), b))
    )
    # from a path where b is false the successor emits even
    st.path = neg(st.store["b"])
    out = v.exec(stmt, st.fork(), proc, [], [])
    assert len(out) == 1
    assert out[0].prefix is rx.symbol("even")
    # from the opposite path it emits odd
    st.path = st.store["b"]
    out = v.exec(stmt, st.fork(), proc, [], [])
    assert len(out) == 1
    assert out[0].prefix is rx.symbol("odd")


def test_call_prunes_unmatched_contract_cases():
    src = (
        "events letter, at, dot, eof, error;\n"
        "int c;\n"
        "proc check()\n"
        "  _(trace letter if 97 <= c && c <= 122)\n"
        "  _(trace at if c == 64)\n"
        "  _(trace dot if c == 46)\n"
        "  _(trace eof if c == -1)\n"
        "  _(trace error if !(97 <= c && c <= 122) && c != 64 && c != 46 && c != -1)\n"
        ";\n"
        "proc p() _(requires 97 <= c && c <= 122) { check(); }\n"
    )
    p, proc, v, st = _setup(src)
    out = v.exec(Call("check"), st, proc, [], [])
    assert len(out) == 1
    assert out[0].prefix is rx.symbol("letter")


def test_reachable_abort_fails_guard_check():
    p = resolve(
        Program(events=("a",), procedures={"p": Procedure("p", body=Seq((Abort(),)))})
    )
    rep = verify_program(p)
    assert not rep.verified
    assert rep.procedures[0].obligations[0].kind == GUARD_CHECK


def test_unreachable_abort_is_vacuous():
    p = resolve(
        Program(
            events=("a",),
            procedures={
                "p": Procedure(
                    "p", body=Seq((If(FALSE, Seq((Abort(),)), Seq(())),))
                )
            },
        )
    )
    assert verify_program(p).verified


def test_abort_call_makes_branch_vacuous():
    src = (
        "events a;\n"
        "bool g;\n"
        "proc p() _(trace a) { if (g) { _(emit a) } else { abort(); _(emit a) _(emit a) } }"
    )
    assert verify_program(load(src)).verified


def test_missing_trace_contract_fails_with_event_witness():
    rep = verify_program(load("events a;\nproc p() { _(emit a) }"))
    assert not rep.verified
    failed = [o for o in rep.procedures[0].obligations if not o.holds]
    assert failed[0].kind == TRACE_INCLUSION
    assert failed[0].witness == ("a",)
    assert failed[0].rhs == "()"


def test_completion_covers_silent_else():
    src = (
        "events a;\nbool g;\n"
        "proc p() _(trace a if g) { if (g) { _(emit a) } else { } }"
    )
    assert verify_program(load(src)).verified


def test_completion_rejects_emitting_else():
    src = (
        "events a;\nbool g;\n"
        "proc p() _(trace a if g) { if (g) { _(emit a) } else { _(emit a) } }"
    )
    rep = verify_program(load(src))
    assert not rep.verified
    failed = [o for o in rep.procedures[0].obligations if not o.holds]
    assert failed[0].witness == ("a",)


def test_vacuous_spec_warning_at_exit():
    src = (
        "events a;\n"
        "proc p()\n"
        "{\n"
        "  int x = 0;\n"
        "  bool nd = nondet();\n"
        "  while (nd)\n"
        "    _(invariant 0 <= x)\n"
        "    _(trace a* if x < 0)\n"
        "  { nd = nondet(); }\n"
        "}\n"
    )
    rep = verify_program(load(src))
    assert rep.verified
    assert any("VacuousSpec" in w for w in rep.procedures[0].warnings)


def test_postcondition_entailment():
    src = "events a;\nint x;\nproc p() _(ensures x' == x + 1) { x = x + 1; }"
    assert verify_program(load(src)).verified
    bad = "events a;\nint x;\nproc p() _(ensures x' == x + 2) { x = x + 1; }"
    rep = verify_program(load(bad))
    assert not rep.verified
    failed = [o for o in rep.procedures[0].obligations if not o.holds]
    assert failed[0].kind == "entailment"
    assert failed[0].model is not None


def test_requires_guard_check_on_call():
    src = (
        "events a;\nint x;\n"
        "proc callee() _(requires 0 <= x) ;\n"
        "proc p() { x = -1; callee(); }\n"
    )
    rep = verify_program(load(src))
    reports = {r.name: r for r in rep.procedures}
    failed = [o for o in reports["p"].obligations if not o.holds]
    assert failed and failed[0].kind == GUARD_CHECK


def test_unsatisfiable_precondition_is_vacuous_with_warning():
    src = "events a;\nproc p() _(requires false) { _(emit a) }"
    rep = verify_program(load(src))
    assert rep.verified
    assert any("vacuous" in w for w in rep.procedures[0].warnings)


def test_report_serialization():
    rep = verify_program(load_corpus("even_odd"))
    doc = rep.to_dict()
    assert doc["verified"] is True
    assert doc["procedures"][0]["name"] == "even_odd"
    kinds = {ob["kind"] for ob in doc["procedures"][0]["obligations"]}
    assert TRACE_INCLUSION in kinds


def test_sequential_loops():
    src = (
        "events a, b;\n"
        "proc p()\n"
        "  _(trace a* b*)\n"
        "{\n"
        "  bool nd = nondet();\n"
        "  while (nd) _(trace a*) { _(emit a) nd = nondet(); }\n"
        "  while (nd) _(trace a* b*) { _(emit b) nd = nondet(); }\n"
        "}\n"
    )
    assert verify_program(load(src)).verified


def test_nested_loops():
    src = (
        "events a, b;\n"
        "proc p()\n"
        "  _(trace (a b*)*)\n"
        "{\n"
        "  bool nd = nondet();\n"
        "  while (nd) _(trace (a b*)*)\n"
        "  {\n"
        "    _(emit a)\n"
        "    bool inner = nondet();\n"
        "    while (inner) _(trace (a b*)* a b*) { _(emit b) inner = nondet(); }\n"
        "    nd = nondet();\n"
        "  }\n"
        "}\n"
    )
    assert verify_program(load(src)).verified


def test_nested_loop_wrong_inner_invariant_fails():
    src = (
        "events a, b;\n"
        "proc p()\n"
        "  _(trace (a b*)*)\n"
        "{\n"
        "  bool nd = nondet();\n"
        "  while (nd) _(trace (a b*)*)\n"
        "  {\n"
        "    _(emit a)\n"
        "    bool inner = nondet();\n"
        "    while (inner) _(trace (a b*)*) { _(emit b) inner = nondet(); }\n"
        "    nd = nondet();\n"
        "  }\n"
        "}\n"
    )
    assert not verify_program(load(src)).verified


# -- scale ---------------------------------------------------------------------


def _straight_line(word):
    body = "\n".join(f"  _(emit {e})" for e in word)
    return f"events a, b, c;\nproc p()\n  _(trace (a b c)*)\n{{\n{body}\n}}\n"


def test_long_straight_line_verifies_without_recursion():
    # the prefix, its derivatives and the inclusion search are linear in the
    # number of events, and none of them recurses once per event
    word = ("a", "b", "c") * 6667
    limit = sys.getrecursionlimit()
    assert verify_program(load(_straight_line(word))).verified
    mutant = word + ("a",)
    rep = verify_program(load(_straight_line(mutant)))
    assert sys.getrecursionlimit() == limit
    (failed,) = [ob for ob in rep.procedures[0].obligations if not ob.holds]
    assert failed.kind == TRACE_INCLUSION
    assert failed.witness == mutant
    res = rx.included(failed.lhs_regex, failed.rhs_regex)
    assert sys.getrecursionlimit() == limit
    assert res.witness == mutant
