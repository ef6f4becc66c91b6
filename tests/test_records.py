"""What every record class promises its callers.

Records are the value classes of the package: variables, terms and formula
nodes, the AST, the solver's and the inclusion check's answers, trace
specifications and the reports.  For each one this pins its constructor's
positions, keywords and defaults, its `repr` text, which fields `==` and
`hash` read, whether it can be changed after construction, and that
default containers are not shared between instances.
"""

import pytest

from retrace import regex as rx
from retrace.formula import TRUE, And, BoolLit, BoolRef, Cmp, Implies, Not, Or, Term, Var, tconst, tvar
from retrace.interp import OracleReport, RunResult, Violation
from retrace.lang import (
    Abort,
    Assign,
    Call,
    Emit,
    GlobalVar,
    Havoc,
    If,
    Procedure,
    Program,
    Seq,
    Span,
    SpecStmt,
    While,
)
from retrace.regex import InclusionResult
from retrace.solver import EntailResult, SatResult
from retrace.tracespec import InclusionCase, TraceOption, TraceSpec
from retrace.verifier import Obligation, ProcedureReport, VerdictReport

x = tvar("x")
lt = Cmp("<", x, tconst(1))
b = BoolRef(Var("b"))
ab = rx.symbol("a")
spec = TraceSpec((TraceOption(ab, TRUE),))
sp = Span(3, 4)

# (name, positional build, keyword build, repr) for every record class; the
# two builds are lambdas so that each call makes a fresh record
RECORDS = [
    ("Var", lambda: Var("x", True), lambda: Var(primed=True, name="x"), "Var(name='x', primed=True)"),
    ("Var-default", lambda: Var("x"), lambda: Var(name="x"), "Var(name='x', primed=False)"),
    ("Term", lambda: Term(((Var("x"), 2),), 1), lambda: Term(((Var("x"), 2),), 1),
     "Term(coeffs=((Var(name='x', primed=False), 2),), const=1)"),
    ("BoolLit", lambda: BoolLit(True), lambda: BoolLit(True), "true"),
    ("BoolRef", lambda: BoolRef(Var("b")), lambda: BoolRef(Var("b")), "b"),
    ("Cmp", lambda: Cmp("<", x, tconst(1)), lambda: Cmp("<", x, tconst(1)), "x < 1"),
    ("Not", lambda: Not(b), lambda: Not(b), "!b"),
    ("And", lambda: And((b, lt)), lambda: And((b, lt)), "b && x < 1"),
    ("Or", lambda: Or((b, lt)), lambda: Or((b, lt)), "b || x < 1"),
    ("Implies", lambda: Implies(b, lt), lambda: Implies(b, lt), "b ==> x < 1"),
    ("Span", lambda: Span(3, 4), lambda: Span(col=4, line=3), "Span(line=3, col=4)"),
    ("SpecStmt", lambda: SpecStmt(("x",), b, lt, spec, sp),
     lambda: SpecStmt(mods=("x",), guard=b, rel=lt, trace=spec, span=sp),
     "SpecStmt(mods=('x',), guard=b, rel=x < 1, trace=TraceSpec(options=(TraceOption(regex=a, guard=true),)), "
     "span=Span(line=3, col=4))"),
    ("SpecStmt-default", lambda: SpecStmt((), b, lt, spec), lambda: SpecStmt(mods=(), guard=b, rel=lt, trace=spec),
     "SpecStmt(mods=(), guard=b, rel=x < 1, trace=TraceSpec(options=(TraceOption(regex=a, guard=true),)), "
     "span=None)"),
    ("Emit", lambda: Emit("a", sp), lambda: Emit(event="a", span=sp), "Emit(event='a', span=Span(line=3, col=4))"),
    ("Emit-default", lambda: Emit("a"), lambda: Emit(event="a"), "Emit(event='a', span=None)"),
    ("Assign", lambda: Assign("x", x, sp), lambda: Assign(var="x", value=x, span=sp),
     "Assign(var='x', value=Term(coeffs=((Var(name='x', primed=False), 1),), const=0), span=Span(line=3, col=4))"),
    ("Assign-default", lambda: Assign("b", b), lambda: Assign(var="b", value=b), "Assign(var='b', value=b, span=None)"),
    ("Havoc", lambda: Havoc("x", sp), lambda: Havoc(var="x", span=sp), "Havoc(var='x', span=Span(line=3, col=4))"),
    ("Havoc-default", lambda: Havoc("x"), lambda: Havoc(var="x"), "Havoc(var='x', span=None)"),
    ("Seq", lambda: Seq((Emit("a"),)), lambda: Seq(stmts=(Emit("a"),)), "Seq(stmts=(Emit(event='a', span=None),))"),
    ("Seq-default", lambda: Seq(), lambda: Seq(stmts=()), "Seq(stmts=())"),
    ("If", lambda: If(b, Emit("a"), Seq(), sp), lambda: If(test=b, then=Emit("a"), orelse=Seq(), span=sp),
     "If(test=b, then=Emit(event='a', span=None), orelse=Seq(stmts=()), span=Span(line=3, col=4))"),
    ("If-default", lambda: If(b, Seq(), Seq()), lambda: If(test=b, then=Seq(), orelse=Seq()),
     "If(test=b, then=Seq(stmts=()), orelse=Seq(stmts=()), span=None)"),
    ("While", lambda: While(b, TRUE, TraceSpec(), Seq(), True, sp),
     lambda: While(test=b, invariant=TRUE, trace_inv=TraceSpec(), body=Seq(), local_trace=True, span=sp),
     "While(test=b, invariant=true, trace_inv=TraceSpec(options=()), body=Seq(stmts=()), local_trace=True, "
     "span=Span(line=3, col=4))"),
    ("While-default", lambda: While(b, TRUE, TraceSpec(), Seq()),
     lambda: While(test=b, invariant=TRUE, trace_inv=TraceSpec(), body=Seq()),
     "While(test=b, invariant=true, trace_inv=TraceSpec(options=()), body=Seq(stmts=()), local_trace=False, "
     "span=None)"),
    ("Call", lambda: Call("p", sp), lambda: Call(proc="p", span=sp), "Call(proc='p', span=Span(line=3, col=4))"),
    ("Call-default", lambda: Call("p"), lambda: Call(proc="p"), "Call(proc='p', span=None)"),
    ("Abort", lambda: Abort(sp), lambda: Abort(span=sp), "Abort(span=Span(line=3, col=4))"),
    ("Abort-default", lambda: Abort(), lambda: Abort(span=None), "Abort(span=None)"),
    ("GlobalVar", lambda: GlobalVar("x", "int", 3), lambda: GlobalVar(name="x", type="int", init=3),
     "GlobalVar(name='x', type='int', init=3)"),
    ("GlobalVar-default", lambda: GlobalVar("b", "bool"), lambda: GlobalVar(name="b", type="bool"),
     "GlobalVar(name='b', type='bool', init=None)"),
    ("Procedure", lambda: Procedure("p", b, lt, spec, ("x",), {"i": "int"}, Seq(), sp, True, frozenset()),
     lambda: Procedure(name="p", requires=b, ensures=lt, trace=spec, modifies=("x",), locals={"i": "int"},
                       body=Seq(), span=sp, implicit=True, mod_set=frozenset()),
     "Procedure(name='p', requires=b, ensures=x < 1, trace=TraceSpec(options=(TraceOption(regex=a, guard=true),)), "
     "modifies=('x',), locals={'i': 'int'}, body=Seq(stmts=()), span=Span(line=3, col=4), implicit=True, "
     "mod_set=frozenset())"),
    ("Procedure-default", lambda: Procedure("p"), lambda: Procedure(name="p"),
     "Procedure(name='p', requires=true, ensures=true, trace=TraceSpec(options=()), modifies=(), locals={}, "
     "body=None, span=None, implicit=False, mod_set=None)"),
    ("Program", lambda: Program(("a",), {"N": 2}, {}, {}, "f.rt", "p", (0, 1), (5,)),
     lambda: Program(events=("a",), consts={"N": 2}, variables={}, procedures={}, source="f.rt", entry="p",
                     int_domain=(0, 1), int_pool=(5,)),
     "Program(events=('a',), consts={'N': 2}, variables={}, procedures={}, source='f.rt', entry='p', "
     "int_domain=(0, 1), int_pool=(5,))"),
    ("Program-default", lambda: Program(), lambda: Program(),
     "Program(events=(), consts={}, variables={}, procedures={}, source='<input>', entry=None, "
     "int_domain=(-8, 8), int_pool=())"),
    ("RunResult", lambda: RunResult("stopped", {"x": 1}, ("a",)),
     lambda: RunResult(outcome="stopped", state={"x": 1}, trace=("a",)),
     "RunResult(outcome='stopped', state={'x': 1}, trace=('a',))"),
    ("Violation", lambda: Violation(2, {"x": 1}, ("a",), "trace", "d"),
     lambda: Violation(run=2, pre_state={"x": 1}, trace=("a",), reason="trace", detail="d"),
     "Violation(run=2, pre_state={'x': 1}, trace=('a',), reason='trace', detail='d')"),
    ("Violation-default", lambda: Violation(0, {}, (), "aborted"),
     lambda: Violation(run=0, pre_state={}, trace=(), reason="aborted"),
     "Violation(run=0, pre_state={}, trace=(), reason='aborted', detail='')"),
    ("OracleReport", lambda: OracleReport("p", 9, 8, 1, [Violation(0, {}, (), "aborted")]),
     lambda: OracleReport(entry="p", runs=9, completed=8, fuel_exhausted=1,
                          violations=[Violation(0, {}, (), "aborted")]),
     "OracleReport(entry='p', runs=9, completed=8, fuel_exhausted=1, "
     "violations=[Violation(run=0, pre_state={}, trace=(), reason='aborted', detail='')])"),
    ("OracleReport-default", lambda: OracleReport("p", 9), lambda: OracleReport(entry="p", runs=9),
     "OracleReport(entry='p', runs=9, completed=0, fuel_exhausted=0, violations=[])"),
    ("Obligation", lambda: Obligation("trace-inclusion", "d", False, sp, "c", "l", "r", ("a",), {"x": 1}, "n", ab, ab),
     lambda: Obligation(kind="trace-inclusion", description="d", holds=False, span=sp, context="c", lhs="l",
                        rhs="r", witness=("a",), model={"x": 1}, note="n", lhs_regex=ab, rhs_regex=ab),
     "Obligation(kind='trace-inclusion', description='d', holds=False, span=Span(line=3, col=4), context='c', "
     "lhs='l', rhs='r', witness=('a',), model={'x': 1}, note='n', lhs_regex=a, rhs_regex=a)"),
    ("Obligation-default", lambda: Obligation("entailment", "d", True),
     lambda: Obligation(kind="entailment", description="d", holds=True),
     "Obligation(kind='entailment', description='d', holds=True, span=None, context='', lhs='', rhs='', "
     "witness=None, model=None, note=None, lhs_regex=None, rhs_regex=None)"),
    ("ProcedureReport", lambda: ProcedureReport("p", [], ["w"]),
     lambda: ProcedureReport(name="p", obligations=[], warnings=["w"]),
     "ProcedureReport(name='p', obligations=[], warnings=['w'])"),
    ("ProcedureReport-default", lambda: ProcedureReport("p"), lambda: ProcedureReport(name="p"),
     "ProcedureReport(name='p', obligations=[], warnings=[])"),
    ("VerdictReport", lambda: VerdictReport("f", [ProcedureReport("p")]),
     lambda: VerdictReport(source="f", procedures=[ProcedureReport("p")]),
     "VerdictReport(source='f', procedures=[ProcedureReport(name='p', obligations=[], warnings=[])])"),
    ("VerdictReport-default", lambda: VerdictReport("f"), lambda: VerdictReport(source="f"),
     "VerdictReport(source='f', procedures=[])"),
    ("TraceOption", lambda: TraceOption(ab, TRUE), lambda: TraceOption(regex=ab, guard=TRUE),
     "TraceOption(regex=a, guard=true)"),
    ("TraceSpec", lambda: TraceSpec((TraceOption(ab, b),)), lambda: TraceSpec(options=(TraceOption(ab, b),)),
     "TraceSpec(options=(TraceOption(regex=a, guard=b),))"),
    ("TraceSpec-default", lambda: TraceSpec(), lambda: TraceSpec(options=()), "TraceSpec(options=())"),
    ("InclusionCase", lambda: InclusionCase(b, ab, rx.EPSILON, False, ("a",), "n"),
     lambda: InclusionCase(context=b, lhs=ab, rhs=rx.EPSILON, holds=False, witness=("a",), note="n"),
     "InclusionCase(context=b, lhs=a, rhs=(), holds=False, witness=('a',), note='n')"),
    ("InclusionCase-default", lambda: InclusionCase(b, ab, ab, True),
     lambda: InclusionCase(context=b, lhs=ab, rhs=ab, holds=True),
     "InclusionCase(context=b, lhs=a, rhs=a, holds=True, witness=None, note=None)"),
    ("SatResult", lambda: SatResult("unknown", None, "d"), lambda: SatResult(status="unknown", diagnostic="d"),
     "SatResult(status='unknown', model=None, diagnostic='d')"),
    ("SatResult-default", lambda: SatResult("unsat"), lambda: SatResult(status="unsat"),
     "SatResult(status='unsat', model=None, diagnostic=None)"),
    ("EntailResult", lambda: EntailResult("invalid", {Var("x"): 1}), lambda: EntailResult("invalid", model={Var("x"): 1}),
     "EntailResult(status='invalid', model={Var(name='x', primed=False): 1}, diagnostic=None)"),
    ("EntailResult-default", lambda: EntailResult("valid"), lambda: EntailResult(status="valid"),
     "EntailResult(status='valid', model=None, diagnostic=None)"),
    ("InclusionResult", lambda: InclusionResult(False, ("a", "b")), lambda: InclusionResult(holds=False, witness=("a", "b")),
     "InclusionResult(holds=False, witness=('a', 'b'))"),
    ("InclusionResult-default", lambda: InclusionResult(True), lambda: InclusionResult(holds=True),
     "InclusionResult(holds=True, witness=None)"),
]
IDS = [name for name, *_ in RECORDS]

INTERNED = (Term, BoolLit, BoolRef, Cmp, Not, And, Or, Implies)
MUTABLE = (Procedure, Program, RunResult, Violation, OracleReport, Obligation, ProcedureReport, VerdictReport)


def test_every_record_class_is_listed():
    listed = {type(build()) for _, build, _, _ in RECORDS}
    assert len(listed) == 34
    assert set(INTERNED) | set(MUTABLE) <= listed


@pytest.mark.parametrize("name, build, by_keyword, text", RECORDS, ids=IDS)
def test_keywords_build_what_positions_build(name, build, by_keyword, text):
    assert build() == by_keyword()
    assert repr(by_keyword()) == text


@pytest.mark.parametrize("name, build, by_keyword, text", RECORDS, ids=IDS)
def test_repr_text(name, build, by_keyword, text):
    assert repr(build()) == text


@pytest.mark.parametrize("name, build, by_keyword, text", RECORDS, ids=IDS)
def test_equality_and_hash_agree(name, build, by_keyword, text):
    a, c = build(), build()
    assert a == c and not a != c
    assert a != object() and a != text
    if isinstance(a, INTERNED):
        assert a is c and hash(a) == object.__hash__(a)
    elif isinstance(a, MUTABLE):
        with pytest.raises(TypeError):
            hash(a)
    elif name != "EntailResult":  # its model is a dict
        assert hash(a) == hash(c)
        assert len({a, c}) == 1


def test_equality_reads_each_compared_field():
    assert Var("x") != Var("y") and Var("x") != Var("x", True)
    assert Span(3, 4) != Span(3, 5)
    assert Emit("a") != Emit("b")
    assert If(b, Seq(), Seq()) != If(b, Seq(), Emit("a"))
    assert While(b, TRUE, TraceSpec(), Seq()) != While(b, TRUE, TraceSpec(), Seq(), True)
    assert GlobalVar("x", "int") != GlobalVar("x", "int", 0)
    assert Procedure("p") != Procedure("p", locals={"i": "int"})
    assert Program() != Program(events=("a",))
    assert Obligation("entailment", "d", True) != Obligation("entailment", "d", True, note="n")
    assert Obligation("entailment", "d", True) != Obligation("entailment", "d", True, span=sp)
    assert ProcedureReport("p") != ProcedureReport("p", warnings=["w"])
    assert OracleReport("p", 9) != OracleReport("p", 9, completed=1)
    assert SatResult("sat") != SatResult("sat", diagnostic="d")
    assert InclusionResult(False, ("a",)) != InclusionResult(False, ("b",))


def test_records_of_different_classes_differ():
    assert SatResult("unknown") != EntailResult("unknown")
    assert Emit("a") != Call("a")
    assert Havoc("x") != Call("x")
    assert TraceSpec() != ()
    assert Span(3, 4) != (3, 4)
    assert Var("x") != "x"


# (build from one value, that value, another one): the two builds differ
# only in a field that `==` and `hash` do not read
UNCOMPARED = [
    (lambda s: Emit("a", s), sp, None),
    (lambda s: SpecStmt(("x",), b, lt, spec, s), sp, None),
    (lambda s: Assign("x", x, s), sp, None),
    (lambda s: Havoc("x", s), sp, None),
    (lambda s: If(b, Seq(), Seq(), s), sp, None),
    (lambda s: While(b, TRUE, TraceSpec(), Seq(), False, s), sp, Span(1, 1)),
    (lambda s: Call("p", s), sp, None),
    (lambda s: Abort(s), sp, None),
    (lambda s: Procedure("p", span=s), sp, None),
    (lambda v: Procedure("p", implicit=v), True, False),
    (lambda v: Procedure("p", mod_set=v), frozenset({"x"}), None),
    (lambda v: Program(source=v), "other.rt", "<input>"),
    (lambda v: Program(entry=v), "main", None),
    (lambda v: Program(int_domain=v), (0, 3), (-8, 8)),
    (lambda v: Program(int_pool=v), (7, 9), ()),
]


@pytest.mark.parametrize("build, one, other", UNCOMPARED)
def test_equality_ignores_uncompared_fields(build, one, other):
    a, c = build(one), build(other)
    assert a == c and repr(a) != repr(c)
    if not isinstance(a, MUTABLE):
        assert hash(a) == hash(c)


def test_variables_order_by_name_then_prime():
    assert Var("a", True) < Var("b") and Var("b") > Var("a", True)
    assert Var("x") < Var("x", True) <= Var("x", True) and Var("x", True) >= Var("x")
    assert not Var("x") < Var("x") and Var("x") <= Var("x")
    assert str(Var("x", True)) == "x'" and str(Var("x")) == "x"
    assert hash(Var("x", True)) == hash(("x", True))
    with pytest.raises(TypeError):
        Var("x") < ("x", False)
    with pytest.raises(TypeError):
        Span(1, 2) < Span(1, 3)


# a field of each frozen record class without a parenthesised `repr`
FORMULA_FIELD = {BoolLit: "value", BoolRef: "var", Cmp: "op", Not: "arg", And: "args", Or: "args", Implies: "lhs"}


@pytest.mark.parametrize("name, build, by_keyword, text", RECORDS, ids=IDS)
def test_frozen_records_reject_assignment(name, build, by_keyword, text):
    r = build()
    if isinstance(r, MUTABLE):
        return
    field = FORMULA_FIELD.get(type(r)) or text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(r, field, 0)
    with pytest.raises(AttributeError):
        delattr(r, field)
    assert repr(r) == text


def test_mutable_records_take_assignment():
    p = Procedure("p")
    p.mod_set = frozenset({"x"})
    assert p.writes == frozenset({"x"})
    r = OracleReport("p", 9)
    r.completed += 1
    assert r.completed == 1
    o = Obligation("entailment", "d", True)
    o.holds = False
    assert repr(o).startswith("Obligation(kind='entailment', description='d', holds=False")


def test_default_containers_are_not_shared():
    for make, fields in (
        (lambda: ProcedureReport("p"), ("obligations", "warnings")),
        (lambda: VerdictReport("f"), ("procedures",)),
        (lambda: OracleReport("p", 9), ("violations",)),
        (lambda: Procedure("p"), ("locals",)),
        (lambda: Program(), ("consts", "variables", "procedures")),
    ):
        one, two = make(), make()
        for f in fields:
            assert getattr(one, f) is not getattr(two, f)
    one, two = ProcedureReport("p"), ProcedureReport("p")
    one.obligations.append(Obligation("entailment", "d", True))
    one.warnings.append("w")
    assert two.obligations == [] and two.warnings == []
    r, s = OracleReport("p", 9), OracleReport("p", 9)
    r.violations.append(Violation(0, {}, (), "aborted"))
    assert s.violations == [] and s.ok
