import json
import random
import re
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from retrace import solver as solver_module
from retrace.corpus import CORPUS, MUTANTS, load_corpus
from retrace.formula import (
    FALSE,
    TRUE,
    And,
    BoolRef,
    Cmp,
    Var,
    atoms,
    boolref,
    cmp,
    conj,
    disj,
    evaluate,
    free_vars,
    implies,
    neg,
    tconst,
    tvar,
)
from retrace.solver import BuiltinSolver, SmtLibSolver, Solver, make_solver, to_smtlib
from retrace.verifier import Verifier
from helpers import ReferenceSolver, random_formula, with_domain_bounds, brute_force_sat

b = BoolRef(Var("b"))
bp = BoolRef(Var("b", True))


def empty_answers():
    """Every built-in solver's answer table, emptied while the context lasts,
    so that what a solver is asked is searched for and not read from an
    earlier test's answers."""
    return patch.object(solver_module, "_ANSWERS", {})


def fresh(f):
    """What a new solver answers on an empty answer table: the reference
    for what one solver reuses across queries."""
    with empty_answers():
        return BuiltinSolver().satisfiable(f)


@pytest.fixture()
def solver(monkeypatch):
    monkeypatch.setattr(solver_module, "_ANSWERS", {})
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


def test_agrees_with_bruteforce_small(solver):
    rng = random.Random(99)
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
    """Counts the leaf decider's runs, on an empty answer table, and fails
    a query that would need more than 100 of them."""
    monkeypatch.setattr(solver_module, "_ANSWERS", {})
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
    monkeypatch.setattr(solver_module, "_ANSWERS", {})
    for f in (cycle, clauses):
        assert BuiltinSolver().satisfiable(f).status == "unsat"
    monkeypatch.setattr(solver_module, "_STEP_BUDGET", 1)
    for f in (cycle, clauses):
        r = BuiltinSolver().satisfiable(f)
        assert r.status == "unknown"
        assert "step budget" in r.diagnostic


def test_step_budget_covers_the_model_search(monkeypatch):
    # real solutions but no integer one: the model search tries every value
    # of z2 and z1 in [0, 4000] before it can give up on a and b
    calls = [0]
    inner = solver_module._bounds_for

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= 200_000, "the model search ran past the step budget"
        return inner(*args)

    monkeypatch.setattr(solver_module, "_bounds_for", counted)
    monkeypatch.setattr(solver_module, "_ANSWERS", {})
    a, b = tvar("a"), tvar("b")
    f = conj(
        cmp("<=", tconst(27), a.scaled(11) + b.scaled(13)),
        cmp("<=", a.scaled(11) + b.scaled(13), tconst(45)),
        cmp("<=", tconst(-10), a.scaled(7) + b.scaled(-9)),
        cmp("<=", a.scaled(7) + b.scaled(-9), tconst(4)),
        *(cmp("<=", tconst(0), tvar(z)) for z in ("z1", "z2")),
        *(cmp("<=", tvar(z), tconst(4000)) for z in ("z1", "z2")),
    )
    r = BuiltinSolver().satisfiable(f)
    assert r.status == "unknown"
    assert "step budget" in r.diagnostic


_INT_NAMES = ("x", "y", "z")


@st.composite
def _lia_formulas(draw, names=_INT_NAMES):
    """Formulas over booleans and unbounded integers with `==>`, `||`, `&&`
    and `!`, and at most four (dis)equality atoms."""
    def term():
        t = tconst(draw(st.integers(-6, 6)))
        for name in names:
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
    got = fresh(f)
    want = ReferenceSolver().satisfiable(f)
    if "unknown" not in (got.status, want.status):
        assert got.status == want.status
    if got.status == "unknown":
        assert want.status == "unknown"
    if got.status == "sat":
        assert _satisfied_by(f, got.model)


# -- one solver, many queries ---------------------------------------------------


def _answer(r):
    """Status, diagnostic and model of an answer, the model in its order."""
    return r.status, r.diagnostic, None if r.model is None else list(r.model.items())


@st.composite
def _prefix_streams(draw):
    """A path of conjuncts and a stream of queries on its prefixes, some of
    them repeated: ("sat", k, e) asks `path[:k] && e`, and ("entails", k, e)
    asks whether `path[:k]` entails `e`.  An extra may mention `w`, which
    sorts before the path's variables."""
    path = draw(st.lists(_lia_formulas(("x", "y")), min_size=1, max_size=4))
    extras = draw(st.lists(_lia_formulas(("w", "x", "y")), min_size=1, max_size=3))
    queries = st.tuples(st.sampled_from(["sat", "entails"]), st.integers(0, len(path)), st.sampled_from(extras))
    stream = draw(st.lists(queries, min_size=1, max_size=8))
    return path, stream + stream[: draw(st.integers(0, len(stream)))]


def _ask(solver, path, query):
    kind, k, extra = query
    if kind == "sat":
        return solver.satisfiable(conj(*path[:k], extra))
    return solver.entails(conj(*path[:k]), extra)


@pytest.mark.parametrize("budget", [solver_module._STEP_BUDGET, 12])
@given(_prefix_streams())
@settings(max_examples=60, deadline=None)
def test_one_solver_answers_a_stream_as_fresh_solvers_do(budget, stream):
    """What one solver reuses across queries that share prefixes changes no
    status, model or diagnostic; with a small step budget some answers are
    unknown, and those too are the fresh solver's, never a wrong unsat."""
    path, queries = stream

    def fresh_answer(q):
        with empty_answers():
            return _answer(_ask(BuiltinSolver(), path, q))

    full = [fresh_answer(q) for q in queries]
    with patch.object(solver_module, "_STEP_BUDGET", budget), empty_answers():
        shared = BuiltinSolver()
        for q, want_full in zip(queries, full):
            got = _answer(_ask(shared, path, q))
            assert got == fresh_answer(q)
            assert got[0] in (want_full[0], "unknown")


@pytest.mark.parametrize("budget", [solver_module._STEP_BUDGET, 12])
@given(_prefix_streams())
@settings(max_examples=60, deadline=None)
def test_feasible_is_a_fresh_solvers_not_unsat(budget, stream):
    """On one solver, `feasible` interleaved with `satisfiable` says what a
    fresh solver's `satisfiable(f).status != "unsat"` says, and trying a
    witness first changes no answer or model of `satisfiable`."""
    path, queries = stream
    with patch.object(solver_module, "_STEP_BUDGET", budget), empty_answers():
        shared = BuiltinSolver()
        for n, (kind, k, extra) in enumerate(queries):
            f = conj(*path[:k], extra if kind == "sat" else neg(extra))
            want = fresh(f)
            if kind == "sat" or n % 2:
                assert _answer(shared.satisfiable(f)) == _answer(want)
            if kind == "entails" or n % 2:
                assert shared.feasible(f) == (want.status != "unsat")


def _live_state(q):
    return q.atoms, q.clauses, q.seen, q.mentions, q.occ, q.val, q.trail, q.sat, q.sat_trail


def test_live_context_answers_as_fresh_solvers_wherever_it_moves(monkeypatch):
    """One solver's context goes down a deep path, to a sibling, back to the
    root, through a refuted push and past a search that runs out of steps.
    Each answer is a fresh solver's, and the context always holds what
    replaying its node's deltas from the root gives."""
    x, y, z = tvar("x"), tvar("y"), tvar("z")
    p, q = boolref("p"), boolref("q")
    deep = [cmp("<=", tconst(0), x), disj(p, q), cmp("<", x, y), implies(p, cmp("==", y, z)),
            cmp("!=", z, tconst(3)), cmp("<=", y, tconst(9))]
    full = solver_module._STEP_BUDGET
    script = [
        ("satisfiable", full, conj(*deep), "sat"),  # down a deep path
        ("satisfiable", full, conj(*deep[:5], cmp("<", tconst(9), y)), "sat"),  # to a sibling
        ("feasible", full, conj(*deep[:5], cmp("<", y, x)), False),
        ("feasible", full, conj(*deep[:2], neg(p), cmp("<", y, tconst(-1))), True),  # higher up
        ("satisfiable", full, cmp("<", y, x), "sat"),  # back to the root
        ("satisfiable", full, conj(deep[0], p, neg(p), deep[2]), "unsat"),  # a refuted push
        ("feasible", full, conj(deep[0], p, cmp("<", x, y)), True),  # its sibling
        ("satisfiable", 1, conj(*deep[:4], cmp("<", z, x)), "unknown"),  # out of steps
        ("feasible", full, conj(*deep[:4], cmp("<", z, x), q), True),  # below that search
        ("satisfiable", 1, conj(*deep[:4], cmp("<", z, x)), "unknown"),  # answered before
        ("satisfiable", full, conj(*deep), "sat"),  # the first query again
    ]
    monkeypatch.setattr(solver_module, "_ANSWERS", {})
    shared = BuiltinSolver()
    for method, budget, f, expected in script:
        with patch.object(solver_module, "_STEP_BUDGET", budget):
            want = fresh(f)
            got = getattr(shared, method)(f)
        if method == "satisfiable":
            assert _answer(got) == _answer(want) and got.status == expected
        else:
            assert got == (want.status != "unsat") == expected
        replayed = solver_module._Query(shared._root)
        replayed.goto(shared._query.path)
        assert _live_state(shared._query) == _live_state(replayed)


def test_one_solver_keys_theories_by_variable_and_keeps_extras_apart(solver):
    a, b_int, x, y = tvar("a"), tvar("b"), tvar("x"), tvar("y")
    b_small = cmp("<=", b_int, tconst(0))
    path = conj(cmp("<=", x, y), boolref("p"))
    queries = [
        b_small,  # b is the query's only integer variable
        conj(cmp("<=", tconst(5), a), b_small),  # the same atom, with a sorted before b
        conj(path, cmp("<", y, x)),  # one prefix, then two different extras
        conj(path, cmp("==", x, y)),
    ]
    got = [_answer(solver.satisfiable(f)) for f in queries]
    assert got == [_answer(fresh(f)) for f in queries]
    assert [status for status, _, _ in got] == ["sat", "sat", "unsat", "sat"]


# -- answers shared by every solver of the process ------------------------------


@pytest.fixture()
def query_calls(monkeypatch):
    """Counts, on an empty answer table, the searches (`run`), conjunct
    pushes (`push`) and witness checks (`satisfies`) of every solver."""
    monkeypatch.setattr(solver_module, "_ANSWERS", {})
    calls = dict.fromkeys(("run", "push", "satisfies"), 0)
    for name in calls:
        def counted(*args, _inner=getattr(solver_module._Query, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(solver_module._Query, name, counted)
    return calls


@pytest.mark.parametrize("budgets", [(1, solver_module._STEP_BUDGET), (solver_module._STEP_BUDGET, 1)])
def test_answers_are_kept_per_step_budget(budgets, query_calls):
    """An answer is kept for the budget it was found under: a query left
    unknown by a budget of one step is decided on the full budget, and the
    other way round, on new solvers and on one solver alike."""
    x, y, z, w = (tvar(n) for n in "xyzw")
    cycle = conj(cmp("<", x, y), cmp("<", y, z), cmp("<", z, w), cmp("<", w, x))
    chain = conj(cmp("<", x, y), cmp("<", y, z), cmp("<", z, w))
    want = {cycle: fresh(cycle), chain: fresh(chain)}
    assert [r.status for r in want.values()] == ["unsat", "sat"]
    shared = BuiltinSolver()
    for budget in budgets:
        with patch.object(solver_module, "_STEP_BUDGET", budget):
            for f, full in want.items():
                for s in (BuiltinSolver(), BuiltinSolver(), shared):
                    r = s.satisfiable(f)
                    if budget == 1:
                        assert r.status == "unknown" and "step budget" in r.diagnostic
                    else:
                        assert _answer(r) == _answer(full)
                    assert s.feasible(f) == (r.status != "unsat")


def test_satisfiable_after_a_witness_hit_searches(query_calls):
    """`feasible` records that a kept witness satisfies a query; any solver
    then takes the query for not unsat without a search, and `satisfiable`
    still answers it with the model an empty table gives, not the witness."""
    x, y = tvar("x"), tvar("y")
    p = cmp("<=", tconst(0), x)
    f = conj(p, cmp("<=", y, x))
    want = fresh(f)
    query_calls.update(dict.fromkeys(query_calls, 0))
    first = BuiltinSolver()
    assert first.satisfiable(p).status == "sat"
    assert first.feasible(f) and query_calls == {"run": 1, "push": 2, "satisfies": 1}
    second = BuiltinSolver()
    assert second.feasible(f) and query_calls == {"run": 1, "push": 2, "satisfies": 1}
    got = second.satisfiable(f)
    assert _answer(got) == _answer(want) and got.model[Var("y")] != 0  # the witness had y = 0
    assert query_calls["run"] == 2
    assert _answer(BuiltinSolver().satisfiable(f)) == _answer(want) and query_calls["run"] == 2


@pytest.mark.parametrize("name", sorted({**CORPUS, **MUTANTS}))
def test_verifying_a_file_again_searches_nothing(name, query_calls):
    program = load_corpus(name)
    first = Verifier(program, BuiltinSolver()).verify_program().to_dict()
    assert query_calls["run"] > 0
    query_calls.update(dict.fromkeys(query_calls, 0))
    assert Verifier(program, BuiltinSolver()).verify_program().to_dict() == first
    assert query_calls == {"run": 0, "push": 0, "satisfies": 0}


def test_a_second_solver_compiles_no_conjunct_and_no_theory(monkeypatch):
    """Compiled conjuncts and literal theories are kept per process: a second
    solver on an empty answer table, asked what the first was asked, builds
    neither, and gives the first solver's answers and models.  A conjunct
    compiled again after its cache is cleared compiles to what was kept."""
    x, y, z = tvar("x"), tvar("y"), tvar("z")
    p, q = boolref("p"), boolref("q")
    path = conj(cmp("<=", tconst(0), x), disj(p, cmp("!=", y, z)), implies(q, cmp("<", x, y)))
    queries = [path, conj(path, cmp("==", y, tconst(3))), conj(path, neg(p), cmp("<", y, x)),
               conj(path, cmp("<", x, tconst(0))), conj(cmp("<", x, y), neg(disj(q, cmp("<", x, y))))]
    compiled, theory_of = solver_module._compiled, solver_module._theory_of
    compiled.cache_clear()
    theory_of.cache_clear()
    answers, built = [], []
    for _ in range(2):
        monkeypatch.setattr(solver_module, "_ANSWERS", {})
        before = compiled.cache_info().misses, theory_of.cache_info().misses
        s = BuiltinSolver()
        answers.append([(s.feasible(f), _answer(s.satisfiable(f))) for f in queries])
        built.append((compiled.cache_info().misses - before[0], theory_of.cache_info().misses - before[1]))
    assert built[0][0] > 0 and built[0][1] > 0 and built[1] == (0, 0)
    want = [_answer(fresh(f)) for f in queries]
    assert answers[0] == answers[1] == [(status != "unsat", (status, *rest)) for status, *rest in want]
    conjuncts = dict.fromkeys(c for f in queries for c in (f.args if isinstance(f, And) else (f,)))
    kept = [compiled(c) for c in conjuncts]
    compiled.cache_clear()
    assert [compiled(c) for c in conjuncts] == kept


SOLVER_GOLDEN = Path(__file__).parent / "golden" / "solver_answers.jsonl"


class _Recording(BuiltinSolver):
    """Records every answer.  `feasible` is the base class's, which asks
    `satisfiable`, so every query is recorded in first-asked order."""

    feasible = Solver.feasible

    def __init__(self, answers):
        super().__init__()
        self.answers = answers

    def satisfiable(self, f):
        r = self.answers[f] = super().satisfiable(f)
        return r


def corpus_answers() -> str:
    """One JSON line per distinct query that verifying the 5 corpus
    programs and 10 mutants sends to the solver, in first-asked order: the
    query's rendering, status and model, sorted by variable."""
    answers: dict = {}
    for name in sorted({**CORPUS, **MUTANTS}):
        Verifier(load_corpus(name), _Recording(answers)).verify_program()
    lines = []
    for f, r in answers.items():
        model = None if r.model is None else [[str(v), x] for v, x in sorted(r.model.items())]
        lines.append(json.dumps({"query": str(f), "status": r.status, "model": model}, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def test_corpus_answers_match_golden():
    """Every corpus query keeps its status and its whole model.  Regenerate
    the golden (from the repository root) with:

        PYTHONPATH=src:tests python -c "import test_solver as t; t.SOLVER_GOLDEN.write_text(t.corpus_answers(), encoding='utf-8')"
    """
    want = SOLVER_GOLDEN.read_text(encoding="utf-8").splitlines()
    with empty_answers():
        got = corpus_answers().splitlines()
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not changed, (
        f"{len(got)} answers against {len(want)} in the golden; first change: {changed[:1]}"
    )


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


def test_external_solver_gets_whole_formulas(tmp_path):
    """Prefix reuse stays inside the built-in solver: every script the
    external one gets declares all of its query's variables and asserts all
    of its conjuncts, also when the query extends an earlier one."""
    log = tmp_path / "scripts.log"
    stub = tmp_path / "fakesolver.sh"
    stub.write_text(f"cat >> '{log}'\nprintf '\\000' >> '{log}'\necho sat\n")
    queries = []

    class Logged(SmtLibSolver):
        def _decide(self, f):
            queries.append(f)
            return super()._decide(f)

    Verifier(load_corpus("casino_rec"), Logged(f"/bin/sh {stub}")).verify_program()
    scripts = log.read_text().split("\0")[:-1]
    assert len(scripts) == len(queries) > 1
    for f, script in zip(queries, scripts):
        declared = re.findall(r"^\(declare-const (\|[^|]*\|) (?:Bool|Int)\)$", script, re.M)
        assert sorted(declared) == sorted(f"|{v}|" for v in free_vars(f))
        assert script.count("(assert ") == 1
        for c in f.args if isinstance(f, And) else (f,):
            assert solver_module._smt_formula(c) in script
    conjuncts = [f.args if isinstance(f, And) else (f,) for f in queries]
    assert any(later[: len(earlier)] == earlier for i, earlier in enumerate(conjuncts) for later in conjuncts[i + 1:])


def test_external_solver_missing_binary():
    s = SmtLibSolver("/nonexistent/solver-binary")
    assert s.satisfiable(b).status == "unknown"


def test_make_solver():
    assert isinstance(make_solver(None), BuiltinSolver)
    assert isinstance(make_solver("internal"), BuiltinSolver)
    assert isinstance(make_solver("z3 -in"), SmtLibSolver)
    with pytest.raises(ValueError):
        make_solver("")
