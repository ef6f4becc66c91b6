import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceVerifier, enum_member, enum_words
from retrace import interp, verifier
from retrace import regex as rx
from retrace.corpus import CORPUS, MUTANTS, load_corpus
from retrace.corpus import path as corpus_path
from retrace.interp import check_triple_random
from retrace.formula import (
    FALSE,
    TRUE,
    BoolRef,
    Var,
    conj,
    disj,
    neg,
    substitute,
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
from retrace.solver import BuiltinSolver
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
    state = SymState(dict(store), substitute(proc.requires, store), rx.EPSILON)
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


def test_unannotated_loop_keeps_the_prefix_before_it():
    # a loop with no trace annotation reads as `_(trace local ())`: it emits
    # nothing and keeps the prefix, so the contract sees `even`
    src = (
        "events even;\n"
        "proc quiet()\n"
        "  _(trace even)\n"
        "{\n"
        "  _(emit even)\n"
        "  int i = 0;\n"
        "  while (i < 3) _(invariant i <= 3) { i = i + 1; }\n"
        "}\n"
    )
    rep = verify_program(load(src))
    assert rep.verified, [ob.describe() for ob in rep.procedures[0].obligations if not ob.holds]


def test_unannotated_loop_that_emits_fails_its_body_coverage():
    src = (
        "events even;\n"
        "proc loud()\n"
        "  _(trace even*)\n"
        "{\n"
        "  int i = 0;\n"
        "  while (i < 3) _(invariant i <= 3) { _(emit even) i = i + 1; }\n"
        "}\n"
    )
    rep = verify_program(load(src))
    failed = [ob for ob in rep.procedures[0].obligations if not ob.holds]
    assert [(ob.description, ob.lhs, ob.rhs, ob.witness) for ob in failed] == [
        ("loop body trace covered", "even", "()", ("even",))]


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


def test_straight_line_keeps_little_regex_memory():
    # each event of the prefix holds one interned node and one table entry,
    # about 130 bytes; its own first set, tuple intern key and derivative memo
    # entry would bring it to about 530
    events = ("mem0", "mem1", "mem2")  # names no other test builds nodes of
    word = events * 1667 + events[:1]
    body = "\n".join(f"  _(emit {e})" for e in word)
    src = (f"events {', '.join(events)};\nproc p()\n  _(trace ({' '.join(events)})*)\n"
           f"{{\n{body}\n}}\n")
    program = load(src)
    only_regex = [tracemalloc.Filter(True, rx.__file__)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_regex)
        rep = verify_program(program)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_regex)
    finally:
        tracemalloc.stop()
    assert not rep.verified
    held = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert held <= 300 * len(word)


def test_nothing_is_left_to_the_cycle_collector():
    # what loading, verifying, an oracle check and the reports build is freed
    # by reference counting: no solver trie node links back to its parent,
    # and no function refers to itself through a closure
    arms = "".join(f"  bool x{i} = nondet();\n  if (x{i}) {{ _(emit a) }} else {{ _(emit b) }}\n"
                   for i in range(3))
    sources = [corpus_path(name).read_text() for name in list(CORPUS) + list(MUTANTS)] + [
        f"events a, b;\nproc main()\n  _(trace (a | b) (a | b) (a | b))\n{{\n{arms}}}\n",
        "events a, b;\nproc main()\n  _(trace (a b)*)\n{\n" + "  _(emit a)\n  _(emit b)\n" * 20 + "}\n",
    ]
    gc.collect()
    gc.disable()
    try:
        for src in sources:
            program = load(src)
            rep = Verifier(program, BuiltinSolver()).verify_program()
            oracle = check_triple_random(program, program.entry, 16, 1, 256)
            rep.to_dict(), oracle.to_dict()
        del program, rep, oracle
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the benchmark tracer's hooks ----------------------------------------------


def test_tracer_hooks_are_called_and_change_no_report(monkeypatch):
    # bench/spans.py swaps these six attributes for wrappers of these shapes
    # (`/`: it passes the arguments on as `*args`); each must still be reached
    # through the attribute, with these arguments
    program = load_corpus("even_odd")

    def reports():
        rep = Verifier(program, BuiltinSolver()).verify_program()
        oracle = check_triple_random(program, program.entry, 16, 1, 256)
        return rep.to_dict(), oracle.to_dict()

    expected = reports()
    calls = dict.fromkeys(
        ("inclusion_obligations", "finalize_path", "run", "included", "member", "derive"), 0)
    inclusions, finalize, run = verifier.inclusion_obligations, Verifier.finalize_path, interp.run

    def counted_inclusions(context, left, emitted, right, solver):
        calls["inclusion_obligations"] += 1
        return inclusions(context, left, emitted, right, solver)

    def counted_finalize(self, state, proc, entry, obs, /):
        calls["finalize_path"] += 1
        return finalize(self, state, proc, entry, obs)

    def counted_run(code, entry, pre, rng, fuel, /):
        calls["run"] += 1
        return run(code, entry, pre, rng, fuel)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verifier, "inclusion_obligations", counted_inclusions)
    monkeypatch.setattr(Verifier, "finalize_path", counted_finalize)
    monkeypatch.setattr(interp, "run", counted_run)
    for name in ("included", "member", "derive"):
        monkeypatch.setattr(rx, name, counted(name, getattr(rx, name)))
    got = reports()
    monkeypatch.undo()
    assert got == expected
    assert all(calls.values()), calls
    assert calls["run"] == 16


# -- joins at if ---------------------------------------------------------------


def _ifs(n, seed):
    """`n` sequential ifs on fresh nondet() values, each arm emitting its own
    event.  Returns the source whose contract accepts all 2^n words, the
    source whose contract excludes exactly one of them, and that word."""
    rng = random.Random(seed)
    arms = [tuple(rng.sample(("a", "b", "c"), 2)) for _ in range(n)]
    excluded = tuple(rng.choice(arm) for arm in arms)
    body = "".join(
        f"  bool x{i} = nondet();\n  if (x{i}) {{ _(emit {t}) }} else {{ _(emit {e}) }}\n"
        for i, (t, e) in enumerate(arms)
    )
    anyword = [f"({t} | {e})" for t, e in arms]
    # the words that first differ from `excluded` at position i
    others = [
        "(" + " ".join([*excluded[:i], t if excluded[i] == e else e, *anyword[i + 1:]]) + ")"
        for i, (t, e) in enumerate(arms)
    ]

    def source(trace):
        return f"events a, b, c;\nproc p()\n  _(trace {trace})\n{{\n{body}}}\n"

    return source(" ".join(anyword)), source(" | ".join(others)), excluded


def _trace_inclusions(rep):
    return [ob for ob in rep.procedures[0].obligations if ob.kind == TRACE_INCLUSION]


@pytest.mark.parametrize("n", [12, 100])
def test_sequential_ifs_join_into_one_path(n):
    ok, bad, excluded = _ifs(n, n)
    rep = verify_program(load(ok))
    assert rep.verified
    assert len(_trace_inclusions(rep)) == 1
    rep = verify_program(load(bad))
    (only,) = _trace_inclusions(rep)
    assert [ob for ob in rep.procedures[0].obligations if not ob.holds] == [only]
    assert only.witness == excluded
    assert rx.member(only.witness, only.lhs_regex)
    assert not rx.member(only.witness, only.rhs_regex)


class _CountingSolver(BuiltinSolver):
    def __init__(self):
        super().__init__()
        self.queries = 0

    def satisfiable(self, f):
        self.queries += 1
        return super().satisfiable(f)


def test_sequential_ifs_make_linearly_many_queries():
    counts = {}
    for n in (10, 20):
        solver = _CountingSolver()
        assert Verifier(load(_ifs(n, n)[0]), solver).verify_program().verified
        counts[n] = solver.queries
    assert counts[20] <= 2 * counts[10], counts


def test_join_keeps_apart_branches_a_later_test_reads():
    # merging the first if would give (a | b)(a | b), which `a a | b b` rejects
    src = (
        "events a, b;\n"
        "proc p() _(trace a a | b b) {\n"
        "  bool x = nondet();\n"
        "  if (x) { _(emit a) } else { _(emit b) }\n"
        "  if (x) { _(emit a) } else { _(emit b) }\n"
        "}\n"
    )
    assert verify_program(load(src)).verified
    rep = verify_program(load(src.replace("a a | b b", "a a")))
    failed = [ob for ob in rep.procedures[0].obligations if not ob.holds]
    assert [ob.witness for ob in failed] == [("b", "b")]


def test_join_keeps_apart_branches_a_contract_guard_reads():
    src = (
        "events a, b;\nint y;\n"
        "proc p() _(trace a if 0 < y) _(trace b if !(0 < y)) {\n"
        "  if (0 < y) { _(emit a) } else { _(emit b) }\n"
        "}\n"
    )
    assert verify_program(load(src)).verified


def test_join_keeps_apart_branches_the_path_ties_to_a_live_variable():
    # in the inner if, x is dead but equal to y, which the contract reads
    src = (
        "events a, b;\nint y;\n"
        "proc p() _(trace a if 0 < y) _(trace b if !(0 < y)) {\n"
        "  int x = nondet();\n"
        "  if (x == y) { if (0 < x) { _(emit a) } else { _(emit b) } }\n"
        "  else { if (0 < y) { _(emit a) } else { _(emit b) } }\n"
        "}\n"
    )
    assert verify_program(load(src)).verified


def test_if_node_placed_twice_keeps_the_live_variables_of_both_sites():
    src = (
        "events a, b;\nbool z;\n"
        "proc p() _(trace (a | b) a if z) _(trace (a | b) b if !z) {\n"
        "  bool x = nondet();\n"
        "  if (x) { _(emit a) } else { _(emit b) }\n"
        "  x = nondet();\n"
        "  z = x;\n"
        "  if (x) { _(emit a) } else { _(emit b) }\n"
        "}\n"
    )
    p = load(src)
    assert verify_program(p).verified
    # the same node at both sites: z, live after the second only, must stay live
    proc = p.procedures["p"]
    stmts = proc.body.stmts
    first = next(s for s in stmts if isinstance(s, If))
    proc.body = Seq(tuple(first if isinstance(s, If) else s for s in stmts))
    assert verify_program(p).verified


def test_join_after_a_loop_restarted_a_branch_prefix():
    # the loop's exit state holds the invariant's whole-history case, not a
    # tail after the prefix before the if
    src = (
        "events a, b;\n"
        "proc p() _(trace b (a* | b)) {\n"
        "  _(emit b)\n"
        "  bool c = nondet();\n"
        "  if (c) {\n"
        "    bool nd = nondet();\n"
        "    while (nd) _(trace b a*) { _(emit a) nd = nondet(); }\n"
        "  } else { _(emit b) }\n"
        "}\n"
    )
    joining = _Joining(load(src))
    assert joining.verify_program().verified
    assert joining.paths == 1


_VARS = st.lists(
    st.tuples(st.sampled_from(["bool", "int"]), st.booleans()), min_size=2, max_size=3
)
_EVENTS = st.sampled_from(["a", "b"])
_REGEXES = [
    "(a | b)*", "a* b*", "a b | b a", "a a | b b", "(a a | b b)*", "a", "b", "(a b)*",
    "b* a*", "a (a | b)*", "()",
]


@st.composite
def _procedures(draw):
    """Sources of one procedure with sequential and nested ifs over 2-3 bool
    and int locals and globals, assignments, nondet(), emits, and a trace
    contract whose guards, if any, read globals."""
    decls = [(f"v{i}", ty, is_global) for i, (ty, is_global) in enumerate(draw(_VARS))]
    bools = [n for n, ty, _ in decls if ty == "bool"]
    ints = [n for n, ty, _ in decls if ty == "int"]

    def condition(names_bool, names_int):
        # few tests, so that later ifs and contract guards often repeat one
        options = list(names_bool) + [f"0 < {x}" for x in names_int]
        options += [f"{x} <= {y}" for x in names_int for y in names_int if x < y]
        return draw(st.sampled_from(options or ["true"]))

    def assign():
        name, ty, _ = draw(st.sampled_from(decls))
        if ty == "bool":
            value = draw(st.sampled_from(
                ["nondet()", "true", "false"] + bools + [f"!{b}" for b in bools]))
        else:
            value = draw(st.sampled_from(
                ["nondet()", "0", "1", "-1"] + [f"{x} + 1" for x in ints]))
        return f"{name} = {value};"

    def block(depth):
        stmts = []
        for _ in range(draw(st.integers(0 if depth else 1, 2 if depth else 4))):
            kinds = ["emit", "emit", "assign", "if"] if depth < 2 else ["emit", "assign"]
            kind = draw(st.sampled_from(kinds))
            if kind == "emit":
                stmts.append(f"_(emit {draw(_EVENTS)})")
            elif kind == "assign":
                stmts.append(assign())
            else:
                stmts.append(f"if ({condition(bools, ints)}) {{ {block(depth + 1)} }}"
                             f" else {{ {block(depth + 1)} }}")
        return " ".join(stmts)

    lines = ["events a, b;"]
    lines += [f"{ty} {n};" for n, ty, is_global in decls if is_global]
    contract = []
    global_bools = [n for n, ty, g in decls if g and ty == "bool"]
    global_ints = [n for n, ty, g in decls if g and ty == "int"]
    for _ in range(draw(st.integers(0, 2))):
        regex = draw(st.sampled_from(_REGEXES))
        if (global_bools or global_ints) and draw(st.booleans()):
            # a case split on a global, the other case often covered too
            guard = condition(global_bools, global_ints)
            contract.append(f"_(trace {regex} if {guard})")
            if draw(st.booleans()):
                contract.append(f"_(trace {draw(st.sampled_from(_REGEXES))} if !({guard}))")
        else:
            contract.append(f"_(trace {regex})")
    local_decls = " ".join(f"{ty} {n} = nondet();" for n, ty, g in decls if not g)
    lines.append(f"proc p() {' '.join(contract)} {{ {local_decls} {block(0)} }}")
    return "\n".join(lines) + "\n"


class _CountingPaths:
    paths = 0

    def finalize_path(self, state, proc, entry, obs):
        self.paths += 1
        super().finalize_path(state, proc, entry, obs)


class _Joining(_CountingPaths, Verifier):
    pass


class _Forking(_CountingPaths, ReferenceVerifier):
    pass


@given(_procedures())
@settings(max_examples=300, deadline=None)
def test_joins_agree_with_reference_verifier(src):
    p = load(src)
    joining, forking = _Joining(p), _Forking(p)
    rep, ref = joining.verify_program(), forking.verify_program()
    assert rep.verified == ref.verified
    assert joining.paths <= forking.paths
    for ob in _trace_inclusions(rep):
        if not ob.holds and ob.witness is not None:
            assert rx.member(ob.witness, ob.lhs_regex)
            assert not rx.member(ob.witness, ob.rhs_regex)
    # a join is exact: the paths refute the same words, up to a length
    assert _refuted(rep) == _refuted(ref)


def _refuted(rep, max_len=8):
    """The words of at most `max_len` events that some trace inclusion's
    left side has and its right side lacks, by obligation site."""
    out = {}
    for ob in _trace_inclusions(rep):
        words = out.setdefault((ob.description, ob.span), set())
        words.update(w for w in enum_words(ob.lhs_regex, max_len) if not enum_member(w, ob.rhs_regex))
    return out
