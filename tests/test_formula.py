from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_eval_term, reference_evaluate
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
    tvar,
)

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


def test_evaluate_rejects_mistyped_values():
    with pytest.raises(UnboundVariable, match="holds an integer"):
        evaluate(b, {"b": 1})
    with pytest.raises(UnboundVariable, match="holds a boolean"):
        evaluate(cmp("<", tvar("x"), tconst(1)), {"x": True})
    assert evaluate(disj(b, cmp("<", tvar("x"), tconst(1))), {"b": True}) is True


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
