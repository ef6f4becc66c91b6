import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from retrace import solver as solver_module
from retrace.formula import (
    FALSE,
    TRUE,
    BoolRef,
    Cmp,
    Var,
    atoms,
    boolref,
    cmp,
    conj,
    disj,
    evaluate,
    implies,
    neg,
    tconst,
    tvar,
)
from retrace.solver import BuiltinSolver, SmtLibSolver, make_solver, to_smtlib
from helpers import ReferenceSolver, random_formula, with_domain_bounds, brute_force_sat

b = BoolRef(Var("b"))
bp = BoolRef(Var("b", True))


@pytest.fixture()
def solver():
    return BuiltinSolver()


def test_conflicting_equalities_unsat(solver):
    f = conj(cmp("==", tvar("state"), tconst(0)), cmp("==", tvar("state"), tconst(1)))
    assert solver.satisfiable(f).status == "unsat"


def test_toggle_entailment(solver):
    # (b' == !b) && !b entails b'
    rel = disj(conj(bp, neg(b)), conj(neg(bp), b))
    assert solver.entails(conj(rel, neg(b)), bp).status == "valid"


def test_char_range_conflict_unsat(solver):
    f = conj(
        cmp("<=", tconst(97), tvar("c")),
        cmp("<=", tvar("c"), tconst(122)),
        cmp("==", tvar("c"), tconst(-1)),
    )
    assert solver.satisfiable(f).status == "unsat"


def test_sat_model_is_real(solver):
    f = conj(
        cmp("<", tvar("x"), tvar("y")),
        cmp("<=", tconst(0), tvar("x")),
        cmp("<=", tvar("y"), tconst(4)),
        b,
    )
    r = solver.satisfiable(f)
    assert r.status == "sat"
    state = {v.name: val for v, val in r.model.items()}
    assert evaluate(f, state)


def test_entails_invalid_gives_countermodel(solver):
    p = cmp("<=", tconst(0), tvar("x"))
    q = cmp("<=", tconst(1), tvar("x"))
    r = solver.entails(p, q)
    assert r.status == "invalid"
    state = {v.name: val for v, val in r.model.items()}
    assert evaluate(p, state) and not evaluate(q, state)


def test_entails_reflexive_and_transitive(solver):
    rng = random.Random(5)
    names = ["x", "y"]
    for _ in range(25):
        p = with_domain_bounds(random_formula(rng, names), names)
        q = with_domain_bounds(random_formula(rng, names), names)
        r = with_domain_bounds(random_formula(rng, names), names)
        assert solver.entails(p, p).status == "valid"
        if (
            solver.entails(p, q).status == "valid"
            and solver.entails(q, r).status == "valid"
        ):
            assert solver.entails(p, r).status == "valid"


def test_boolean_only(solver):
    f = conj(disj(b, BoolRef(Var("c"))), neg(b))
    r = solver.satisfiable(f)
    assert r.status == "sat"
    assert r.model[Var("c")] is True and r.model[Var("b")] is False
    assert solver.satisfiable(conj(b, neg(b))).status == "unsat"


def test_agrees_with_bruteforce_small():
    rng = random.Random(99)
    solver = BuiltinSolver()
    for _ in range(150):
        names = ["x", "y", "z"][: rng.randint(1, 3)]
        f = with_domain_bounds(random_formula(rng, names), names)
        got = solver.satisfiable(f).status
        want = brute_force_sat(f, names)
        assert got in ("sat", "unsat")
        assert (got == "sat") == want


def test_bounded_fragment_exhaustive_tiny(solver):
    # every comparison shape over one variable against every constant
    for op in ("==", "!=", "<", "<="):
        for k in range(-3, 4):
            f = with_domain_bounds(cmp(op, tvar("x"), tconst(k)), ["x"], -2, 2)
            want = any(
                evaluate(f, {"x": v}) for v in range(-2, 3)
            )
            assert (solver.satisfiable(f).status == "sat") == want


def _satisfied_by(f, model):
    return evaluate(f, {v.name: val for v, val in model.items() if not v.primed},
                    {v.name: val for v, val in model.items() if v.primed})


@pytest.fixture()
def linear_searches(monkeypatch):
    """Counts the leaf decider's runs, and fails a query that would need
    more than 100 of them."""
    calls = []
    inner = solver_module._search_linear

    def counted(*args):
        calls.append(None)
        assert len(calls) <= 100, "disequalities fanned out into too many linear searches"
        return inner(*args)

    monkeypatch.setattr(solver_module, "_search_linear", counted)
    return calls


def _excluding_0_to_19(hi):
    x = tvar("x")
    return conj(
        cmp("<=", tconst(0), x),
        cmp("<=", x, tconst(hi)),
        *(cmp("!=", x, tconst(k)) for k in range(20)),
    )


def test_disequalities_split_lazily(solver, linear_searches):
    # splitting every disequality up front takes 2^20 linear searches here;
    # splitting only the one the model violates takes about 2 per disequality
    r = solver.satisfiable(_excluding_0_to_19(20))
    assert r.status == "sat" and r.model == {Var("x"): 20}
    assert solver.satisfiable(_excluding_0_to_19(19)).status == "unsat"
    assert len(linear_searches) <= 2 * (2 * 20 + 1)


def test_conflicting_equalities_fail_before_disequality_splits(solver, linear_searches):
    # the corpus's slowest query shape: the equalities on state conflict,
    # whichever side of each disequality holds
    state, c = tvar("state"), tvar("c")
    f = conj(
        cmp("==", state, tconst(4)),
        cmp("!=", c, tconst(64)),
        cmp("!=", c, tconst(46)),
        cmp("!=", state, tconst(6)),
        disj(cmp("<", c, tconst(97)), cmp("<", tconst(122), c)),
        cmp("!=", c, tconst(-1)),
        cmp("==", state, tconst(5)),
    )
    assert solver.satisfiable(f).status == "unsat"
    assert len(linear_searches) <= 1


def test_step_budget_gives_unknown_never_unsat(monkeypatch):
    x, y, z, w = (tvar(n) for n in "xyzw")
    cycle = conj(cmp("<", x, y), cmp("<", y, z), cmp("<", z, w), cmp("<", w, x))
    p, q = boolref("p"), boolref("q")
    clauses = conj(disj(p, q), disj(neg(p), q), disj(p, neg(q)), disj(neg(p), neg(q)))
    for f in (cycle, clauses):
        assert BuiltinSolver().satisfiable(f).status == "unsat"
    monkeypatch.setattr(solver_module, "_STEP_BUDGET", 1)
    for f in (cycle, clauses):
        r = BuiltinSolver().satisfiable(f)
        assert r.status == "unknown"
        assert "step budget" in r.diagnostic


_INT_NAMES = ("x", "y", "z")


@st.composite
def _lia_formulas(draw):
    """Formulas over booleans and unbounded integers with `==>`, `||`, `&&`
    and `!`, and at most four (dis)equality atoms."""
    def term():
        t = tconst(draw(st.integers(-6, 6)))
        for name in _INT_NAMES:
            t = t + tvar(name).scaled(draw(st.integers(-2, 2)))
        return t

    pool = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["bool", "==", "!=", "<", "<="]))
        pool.append(boolref(draw(st.sampled_from("pq"))) if kind == "bool" else cmp(kind, term(), term()))

    def build(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(pool))
        op = draw(st.sampled_from(["&&", "||", "!", "==>"]))
        if op == "!":
            return neg(build(depth - 1))
        a, b = build(depth - 1), build(depth - 1)
        return {"&&": conj, "||": disj, "==>": implies}[op](a, b)

    f = build(4)
    assume(sum(isinstance(a, Cmp) and a.op in ("==", "!=") for a in atoms(f)) <= 4)
    return f


@given(_lia_formulas())
@settings(max_examples=400, deadline=None)
def test_agrees_with_reference_solver(f):
    got = BuiltinSolver().satisfiable(f)
    want = ReferenceSolver().satisfiable(f)
    if "unknown" not in (got.status, want.status):
        assert got.status == want.status
    if got.status == "unknown":
        assert want.status == "unknown"
    if got.status == "sat":
        assert _satisfied_by(f, got.model)


# -- SMT-LIB backend ----------------------------------------------------------


def test_smtlib_rendering():
    f = conj(
        cmp("==", tvar("state", True), tconst(2)),
        disj(b, neg(cmp("<", tvar("x"), tvar("y").scaled(2)))),
    )
    script = to_smtlib(f)
    assert script.startswith("(set-logic QF_LIA)")
    assert "(declare-const |b| Bool)" in script
    assert "(declare-const |state'| Int)" in script
    assert "(declare-const |x| Int)" in script
    assert script.strip().endswith("(check-sat)")
    assert "(assert" in script


def _stub(tmp_path, body: str) -> str:
    path = tmp_path / "fakesolver.py"
    path.write_text(body)
    return f"{sys.executable} {path}"


def test_external_solver_sat_unsat(tmp_path):
    # answers unsat iff the formula is literally false, else sat
    cmdline = _stub(
        tmp_path,
        "import sys\n"
        "text = sys.stdin.read()\n"
        "assert '(check-sat)' in text\n"
        "print('unsat' if '(assert false)' in text else 'sat')\n",
    )
    s = SmtLibSolver(cmdline)
    assert s.satisfiable(FALSE).status == "unsat"
    assert s.satisfiable(b).status == "sat"
    assert s.entails(TRUE, TRUE).status == "valid"


def test_external_solver_unknown(tmp_path):
    s = SmtLibSolver(_stub(tmp_path, "print('unknown')"))
    r = s.satisfiable(b)
    assert r.status == "unknown"


def test_external_solver_crash_is_unknown(tmp_path):
    s = SmtLibSolver(_stub(tmp_path, "import sys\nsys.exit(3)"))
    r = s.satisfiable(b)
    assert r.status == "unknown"
    assert "crash" in (r.diagnostic or "")


def test_external_solver_garbage_is_unknown(tmp_path):
    s = SmtLibSolver(_stub(tmp_path, "print('maybe so')"))
    r = s.satisfiable(b)
    assert r.status == "unknown"


def test_external_solver_missing_binary():
    s = SmtLibSolver("/nonexistent/solver-binary")
    assert s.satisfiable(b).status == "unknown"


def test_make_solver():
    assert isinstance(make_solver(None), BuiltinSolver)
    assert isinstance(make_solver("internal"), BuiltinSolver)
    assert isinstance(make_solver("z3 -in"), SmtLibSolver)
    with pytest.raises(ValueError):
        make_solver("")
