import pytest

from retrace.formula import (
    FALSE,
    TRUE,
    AlreadyPrimed,
    BoolRef,
    UnboundVariable,
    Var,
    atom_vars,
    atoms,
    cmp,
    conj,
    disj,
    evaluate,
    free_vars,
    implies,
    neg,
    prime,
    render_formula,
    substitute,
    tconst,
    tvar,
)

b = BoolRef(Var("b"))
bp = BoolRef(Var("b", True))


def test_prime_boolean():
    assert prime(b) == bp


def test_prime_mixed_atoms():
    f = conj(cmp("==", tvar("state"), tconst(1)), cmp("<=", tvar("x"), tconst(3)))
    got = prime(f)
    assert got == conj(
        cmp("==", tvar("state", True), tconst(1)),
        cmp("<=", tvar("x", True), tconst(3)),
    )


def test_prime_constants():
    assert prime(TRUE) == TRUE


def test_prime_rejects_already_primed():
    with pytest.raises(AlreadyPrimed):
        prime(bp)


def test_substitute_constant_folds():
    f = cmp("<=", tvar("x"), tconst(3))
    assert substitute(f, {Var("x"): 2}) == TRUE
    assert substitute(f, {Var("x"): 4}) == FALSE
    t = tvar("x").scaled(2) + tvar("y") + tconst(1)
    assert substitute(t, {Var("x"): tvar("z") + tconst(1)}) == (
        tvar("z").scaled(2) + tvar("y") + tconst(3)
    )
    assert substitute(t, {Var("x"): 2, Var("y"): 3}) == tconst(8)
    with pytest.raises(UnboundVariable):
        substitute(t, {Var("x"): b})


def test_substitute_formula_for_bool():
    f = conj(b, cmp("<", tvar("x"), tvar("y")))
    got = substitute(f, {Var("b"): neg(BoolRef(Var("c")))})
    assert got == conj(neg(BoolRef(Var("c"))), cmp("<", tvar("x"), tvar("y")))


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
    s = {"x": 3, "b": True}
    assert evaluate(prime(f), None, s) == evaluate(f, s, None)


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
