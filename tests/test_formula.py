import builtins
import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_formula, random_term, reference_eval_term, reference_evaluate
from retrace import regex as rx
from retrace.formula import (
    FALSE,
    TRUE,
    And,
    BoolLit,
    BoolRef,
    Cmp,
    Implies,
    Not,
    Or,
    UnboundVariable,
    Var,
    atom_vars,
    atoms,
    cmp,
    conj,
    disj,
    eval_term,
    evaluate,
    free_vars,
    implies,
    neg,
    render_formula,
    substitute,
    tconst,
    term_sum,
    tvar,
)
from retrace.tracespec import eval_at, spec_of

b = BoolRef(Var("b"))
bp = BoolRef(Var("b", True))


def test_substitute_constant_folds():
    f = cmp("<=", tvar("x"), tconst(3))
    assert substitute(f, {"x": tconst(2)}) == TRUE
    assert substitute(f, {"x": tconst(4)}) == FALSE
    t = tvar("x").scaled(2) + tvar("y") + tconst(1)
    assert substitute(t, {"x": tvar("z") + tconst(1)}) == (
        tvar("z").scaled(2) + tvar("y") + tconst(3)
    )
    assert substitute(t, {"x": tconst(2), "y": tconst(3)}) == tconst(8)
    with pytest.raises(UnboundVariable):
        substitute(t, {"x": b})


def test_substitute_formula_for_bool():
    f = conj(b, cmp("<", tvar("x"), tvar("y")))
    got = substitute(f, {"b": neg(BoolRef(Var("c")))})
    assert got == conj(neg(BoolRef(Var("c"))), cmp("<", tvar("x"), tvar("y")))


def test_substitute_grounds_pre_post_relation():
    # x' == x + 1, between the states x = 2 * n and x = m
    rel = cmp("==", tvar("x", True), tvar("x") + tconst(1))
    got = substitute(rel, {"x": tvar("n").scaled(2)}, {"x": tvar("m")})
    assert got == cmp("==", tvar("m"), tvar("n").scaled(2) + tconst(1))
    # the post-state alone leaves the unprimed side in place
    assert substitute(rel, {}, {"x": tvar("m")}) == cmp(
        "==", tvar("m"), tvar("x") + tconst(1)
    )


def test_substitute_leaves_primed_in_place_without_post():
    f = conj(bp, cmp("<", tvar("x", True), tvar("x")))
    got = substitute(f, {"b": TRUE, "x": tconst(4)})
    assert got == conj(bp, cmp("<", tvar("x", True), tconst(4)))


def test_substitute_rejects_a_binding_of_the_other_type():
    f = cmp("<", tvar("x", True), tconst(0))
    with pytest.raises(UnboundVariable):
        substitute(f, {}, {"x": b})
    with pytest.raises(UnboundVariable):
        substitute(b, {"b": tconst(1)})


class _LookupOnly(Mapping):
    """A store that answers lookups and refuses to be walked."""

    def __init__(self, data):
        self._data = data

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        raise AssertionError("store walked")

    def __len__(self):
        raise AssertionError("store walked")

    def keys(self):
        raise AssertionError("store walked")

    def items(self):
        raise AssertionError("store walked")


def test_substitute_never_walks_its_store():
    store = _LookupOnly({"b": neg(BoolRef(Var("c"))), "x": tvar("z"), "y": tconst(2)})
    f = implies(b, disj(cmp("<", tvar("x"), tvar("y")), bp))
    got = substitute(f, store, store)
    assert got == implies(
        neg(BoolRef(Var("c"))), disj(cmp("<", tvar("z"), tconst(2)), neg(BoolRef(Var("c"))))
    )
    assert substitute(tvar("x") + tvar("w"), store) == tvar("z") + tvar("w")


def test_evaluate_transition_relation():
    # b' == !b as (b' && !b) || (!b' && b)
    rel = disj(conj(bp, neg(b)), conj(neg(bp), b))
    assert evaluate(rel, {"b": False}, {"b": True})
    assert not evaluate(rel, {"b": False}, {"b": False})


def test_evaluate_state_equality():
    f = cmp("==", tvar("state"), tconst(6))
    assert evaluate(f, {"state": 6})
    assert not evaluate(f, {"state": 5})


def test_evaluate_unbound():
    with pytest.raises(UnboundVariable):
        evaluate(b, {})
    with pytest.raises(UnboundVariable):
        evaluate(bp, {"b": True}, None)


def test_evaluate_primed_matches_unprimed_shifted():
    f = conj(cmp("<", tvar("x"), tconst(5)), b)
    fp = substitute(f, {"x": tvar("x", True), "b": bp})
    assert fp == conj(cmp("<", tvar("x", True), tconst(5)), bp)
    for s in ({"x": 3, "b": True}, {"x": 5, "b": True}, {"x": 3, "b": False}):
        assert evaluate(fp, None, s) == evaluate(f, s, None)


# -- compiled evaluation against the recursive reference ---------------------

_INTS, _BOOLS = ("x", "y"), ("b", "c")
_int_vars = st.builds(Var, st.sampled_from(_INTS), st.booleans())
_terms = st.builds(
    lambda const, parts: sum((tvar(v.name, v.primed).scaled(c) for v, c in parts), tconst(const)),
    st.integers(-4, 4),
    st.lists(st.tuples(_int_vars, st.integers(-3, 3)), max_size=3),
)
_atoms = st.one_of(
    st.builds(BoolLit, st.booleans()),
    st.builds(BoolRef, st.builds(Var, st.sampled_from(_BOOLS), st.booleans())),
    st.builds(Cmp, st.sampled_from(["==", "!=", "<", "<="]), _terms, _terms),
)
_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(Implies, sub, sub),
    ),
    max_leaves=8,
)


def _value(name: str):
    """A value for `name`: mostly of its type, sometimes of the other type
    or absent (None)."""
    right = st.booleans() if name in _BOOLS else st.integers(-3, 3)
    wrong = st.integers(-3, 3) if name in _BOOLS else st.booleans()
    return st.one_of(right, right, right, wrong, st.none())


_states = st.none() | st.fixed_dictionaries({n: _value(n) for n in _INTS + _BOOLS}).map(
    lambda d: {k: v for k, v in d.items() if v is not None}
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnboundVariable:
        return UnboundVariable


@settings(max_examples=400, deadline=None)
@given(_formulas, _states, _states)
def test_compiled_evaluate_matches_reference(f, s, sp):
    assert _outcome(evaluate, f, s, sp) == _outcome(reference_evaluate, f, s, sp)


@settings(max_examples=200, deadline=None)
@given(_terms, _states, _states)
def test_compiled_eval_term_matches_reference(t, s, sp):
    assert _outcome(eval_term, t, s, sp) == _outcome(reference_eval_term, t, s, sp)


def test_long_sums_and_deep_formulas_compile():
    # beyond what CPython compiles as one expression: 200 nested parentheses,
    # and a chain of `+` as long as its compiler's recursion limit
    names = [f"v{i}" for i in range(4000)]
    total = term_sum([tconst(1)] + [tvar(n).scaled(i % 5 - 2) for i, n in enumerate(names)])
    s = {n: i for i, n in enumerate(names)}
    assert eval_term(total, s) == reference_eval_term(total, s)
    f = b
    for k in range(400):
        f = Implies(cmp("<", tvar("x"), tconst(k)), Not(f))
    for s in ({"x": 0, "b": True}, {"x": 7, "b": False}, {"x": 7}):
        assert _outcome(evaluate, f, s, None) == _outcome(reference_evaluate, f, s, None)


def test_evaluate_rejects_mistyped_values():
    with pytest.raises(UnboundVariable, match="holds an integer"):
        evaluate(b, {"b": 1})
    with pytest.raises(UnboundVariable, match="holds a boolean"):
        evaluate(cmp("<", tvar("x"), tconst(1)), {"x": True})
    assert evaluate(disj(b, cmp("<", tvar("x"), tconst(1))), {"b": True}) is True


def test_a_none_value_reads_as_unbound():
    # as `substitute` treats it: None is no value, whatever the type
    with pytest.raises(UnboundVariable, match="^no value for x$"):
        evaluate(cmp("<", tvar("x"), tconst(1)), {"x": None})
    with pytest.raises(UnboundVariable, match="^no value for b$"):
        evaluate(b, {"b": None})
    with pytest.raises(UnboundVariable, match="^no value for x'$"):
        eval_term(tvar("x", True), {}, {"x": None})


def test_evaluation_generates_no_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compile() called")

    s = {"x": 2, "b": False}
    a = rx.symbol("a")
    spec = spec_of((a, neg(b)), (rx.star(a), b))
    with monkeypatch.context() as patched:  # undone before a failure is reported
        patched.setattr(builtins, "compile", refuse)
        got = (
            evaluate(implies(b, cmp("<", tvar("x"), tconst(1))), s),
            eval_term(tvar("x").scaled(3) + tconst(1), s),
            eval_at(spec, s),
        )
    assert got == (True, 7, a)


def test_free_vars():
    f = implies(b, cmp("==", tvar("x", True), tvar("y")))
    assert free_vars(f) == {Var("b"), Var("x", True), Var("y")}


def test_atoms_dedup_in_first_occurrence_order():
    x_lt = cmp("<", tvar("x"), tconst(3))
    y_eq = cmp("==", tvar("y"), tvar("x"))
    c = BoolRef(Var("c"))
    f = disj(neg(conj(x_lt, b)), implies(conj(c, neg(x_lt)), disj(y_eq, b)))
    assert atoms(f) == (x_lt, b, c, y_eq)
    assert atom_vars(y_eq) == (Var("y"), Var("x"))


def test_smart_constructors_fold():
    assert conj() == TRUE
    assert disj() == FALSE
    assert conj(TRUE, b) == b
    assert conj(FALSE, b) == FALSE
    assert disj(TRUE, b) == TRUE
    assert neg(neg(b)) == b
    assert implies(FALSE, b) == TRUE


def test_term_arithmetic():
    t = tvar("x").scaled(2) + tconst(3) - tvar("y")
    assert t.const == 3
    assert dict(t.coeffs) == {Var("x"): 2, Var("y"): -1}
    assert str(t) == "2 * x - y + 3"


def test_render_roundtrip_shapes():
    f = implies(conj(b, neg(bp)), disj(cmp("<=", tvar("x"), tconst(0)), b))
    assert render_formula(f) == "b && !b' ==> x <= 0 || b"


# -- interning ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_a_formula_built_twice_is_one_object(seed):
    f = random_formula(random.Random(seed), ["x", "y", "z"])
    assert random_formula(random.Random(seed), ["x", "y", "z"]) is f


def test_equal_nodes_are_one_object_however_built():
    x, y = tvar("x"), tvar("y")
    assert x + y is y + x
    assert term_sum([x, x, y - x]) is y + x
    assert Cmp("<", x, tconst(1)) is cmp("<", tvar("x"), tconst(1))
    assert And((b, bp)) is conj(b, bp)
    assert Not(b) is neg(b)
    assert BoolLit(True) is TRUE
    for node in (x, cmp("<", x, y), b, conj(b, bp), TRUE):
        assert type(node).__eq__ is object.__eq__ and type(node).__hash__ is object.__hash__


@pytest.mark.parametrize("seed", range(20))
def test_substitute_of_equal_inputs_is_one_object(seed):
    rng = random.Random(seed)
    f = random_formula(rng, ["x", "y"])
    repl = random_term(rng, ["y", "z"])
    pre = {"x": repl}
    assert substitute(f, pre) is substitute(f, {"x": term_sum([repl])})
    assert substitute(f, {}) is f


@pytest.mark.parametrize("f,text", [
    (conj(b, disj(bp, neg(b))), "b && (b' || !b)"),
    (neg(conj(b, bp)), "!(b && b')"),
    (implies(implies(b, bp), b), "(b ==> b') ==> b"),
    (cmp("==", tvar("x").scaled(-2) + tconst(5), tvar("y", True)), "-2 * x + 5 == y'"),
    (disj(conj(b, bp), cmp("!=", tvar("x"), tconst(-3))), "b && b' || x != -3"),
    (neg(cmp("<", tvar("x"), tvar("y"))), "!(x < y)"),
    (conj(implies(b, bp), neg(neg(bp))), "(b ==> b') && b'"),
])
def test_render_is_unchanged_by_interning(f, text):
    assert render_formula(f) == str(f) == repr(f) == text


def test_variables_sort_by_name_then_prime():
    assert sorted([Var("y"), Var("x", True), Var("b"), Var("x")]) == [Var("b"), Var("x"), Var("x", True), Var("y")]
    t = tvar("y") + tvar("x", True) + tvar("x")
    assert [str(v) for v, _ in t.coeffs] == ["x", "x'", "y"]
