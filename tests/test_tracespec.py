import itertools
import random

import pytest

from retrace import regex as rx
from retrace.corpus import CORPUS, MUTANTS, load_corpus
from retrace.formula import (
    FALSE,
    TRUE,
    BoolRef,
    Var,
    by_prime,
    cmp,
    compile_formula,
    conj,
    disj,
    evaluate,
    free_vars,
    neg,
    tconst,
    tvar,
)
from retrace.lang import If, Seq, SpecStmt, While
from retrace.solver import BuiltinSolver
from retrace.tracespec import (
    TraceOption,
    TraceSpec,
    compile_spec,
    complete,
    eval_at,
    inclusion_obligations,
    plain,
    spec_of,
)
from helpers import enum_subset, random_regex

even, odd = rx.symbol("even"), rx.symbol("odd")
ee_star = rx.star(rx.concat(even, odd))
b = BoolRef(Var("b"))
bp = BoolRef(Var("b", True))

# the alternation invariant: (even odd)* if !b | (even odd)* even if b
invariant = spec_of((ee_star, neg(b)), (rx.concat(ee_star, even), b))
# the same invariant read in the post-state
invariant_post = spec_of((ee_star, neg(bp)), (rx.concat(ee_star, even), bp))


@pytest.fixture()
def solver():
    return BuiltinSolver()


# -- evaluation ---------------------------------------------------------------


def test_eval_at_picks_matching_option():
    assert eval_at(invariant, {"b": False}) is ee_star
    assert eval_at(invariant, {"b": True}) is rx.concat(ee_star, even)


def test_eval_at_empty_spec_is_empty_language():
    assert eval_at(TraceSpec(), {"b": True}) is rx.EMPTY


def test_eval_at_overlapping_guards_union():
    spec = spec_of((even, TRUE), (odd, b))
    assert eval_at(spec, {"b": True}) is rx.choice(even, odd)
    assert eval_at(spec, {"b": False}) is even


# -- completion ---------------------------------------------------------------


def test_complete_empty_spec_enforces_no_events():
    got = complete(TraceSpec())
    assert got.options == (TraceOption(rx.EPSILON, TRUE),)


def test_complete_exhaustive_guard_semantically_unchanged():
    spec = plain(even)
    got = complete(spec)
    assert got.options[-1] == TraceOption(rx.EPSILON, FALSE)
    for s in ({"b": True}, {"b": False}):
        assert eval_at(got, s) is eval_at(spec, s)


def test_complete_invariant_agrees_on_both_states(solver):
    got = complete(invariant)
    # added guard is unsatisfiable: the two cases cover every state
    assert solver.satisfiable(got.options[-1].guard).status == "unsat"
    for val in (True, False):
        assert eval_at(got, {"b": val}) is eval_at(invariant, {"b": val})


def test_complete_fills_gap_with_epsilon():
    spec = spec_of((even, b))
    got = complete(spec)
    assert eval_at(got, {"b": False}) is rx.EPSILON
    assert eval_at(got, {"b": True}) is even


# -- guarded inclusion obligations ---------------------------------------------


def _toggle_rel():
    # b' == !b
    return disj(conj(bp, neg(b)), conj(neg(bp), b))


def test_loop_body_obligations_split_into_two_cases(solver):
    # prefix already extended by the branch event, compared against the
    # invariant read in the post-state
    extended = spec_of(
        (rx.concat(ee_star, even), neg(b)),
        (rx.concat(ee_star, even, odd), b),
    )
    cases = inclusion_obligations(
        _toggle_rel(), extended, rx.EPSILON, complete(invariant_post), solver
    )
    assert len(cases) == 2
    assert all(c.holds for c in cases)
    pairs = {(rx.render(c.lhs), rx.render(c.rhs)) for c in cases}
    assert pairs == {
        ("(even odd)* even", "(even odd)* even"),
        ("(even odd)* even odd", "(even odd)*"),
    }


def test_unsatisfiable_context_vacuous(solver):
    cases = inclusion_obligations(
        FALSE, plain(even), rx.EPSILON, complete(plain(odd)), solver
    )
    assert cases == []


def test_matcher_step_single_case(solver):
    letter, at = rx.symbol("letter"), rx.symbol("at")
    state, statep = tvar("state"), tvar("state", True)
    # the invariant read in the post-state
    matcher_inv = spec_of(
        (rx.EPSILON, cmp("==", statep, tconst(0))),
        (rx.plus(letter), cmp("==", statep, tconst(1))),
        (rx.concat(rx.plus(letter), at), cmp("==", statep, tconst(2))),
    )
    context = conj(cmp("==", state, tconst(1)), cmp("==", statep, tconst(2)))
    cases = inclusion_obligations(
        context,
        spec_of((rx.plus(letter), cmp("==", state, tconst(1)))),
        at,
        complete(matcher_inv),
        solver,
    )
    assert len(cases) == 1
    case = cases[0]
    assert case.holds
    assert case.lhs is rx.concat(rx.plus(letter), at)
    assert case.rhs is rx.concat(rx.plus(letter), at)
    # oracle: enumerated membership comparison, letter+ truncated at three
    # repetitions inside words of length <= 6
    assert enum_subset(case.lhs, case.rhs, 6) is None


def test_unknown_guard_reported_failed(solver):
    class Undecided(BuiltinSolver):
        def satisfiable(self, f):
            from retrace.solver import SatResult

            return SatResult("unknown", diagnostic="stubbed")

    cases = inclusion_obligations(
        TRUE, plain(even), rx.EPSILON, complete(plain(even)), Undecided()
    )
    assert cases and not any(c.holds for c in cases)
    assert all("cannot decide guard" in (c.note or "") for c in cases)


# -- soundness of the case split ------------------------------------------------


def _bool_states():
    return [{"b": v} for v in (False, True)]


@pytest.mark.parametrize("seed", range(40))
def test_obligation_soundness_over_small_state_space(seed, solver):
    rng = random.Random(seed)
    alphabet = ("x", "y")

    def rand_spec(n, v):
        return spec_of(
            *(
                (random_regex(rng, 5, alphabet), rng.choice([v, neg(v), TRUE]))
                for _ in range(n)
            )
        )

    left = rand_spec(rng.randint(1, 2), b)
    right = complete(rand_spec(rng.randint(1, 2), bp))
    emitted = random_regex(rng, 3, alphabet)
    context = rng.choice([TRUE, _toggle_rel(), bp, neg(bp)])
    cases = inclusion_obligations(context, left, emitted, right, solver)
    if not all(c.holds for c in cases):
        return
    for s, sp in itertools.product(_bool_states(), _bool_states()):
        if not evaluate(context, s, sp):
            continue
        lhs = rx.concat(eval_at(left, s), emitted)
        rhs = eval_at(right, None, sp)
        assert enum_subset(lhs, rhs, 5) is None, (
            f"holds verdict unsound at s={s} s'={sp}"
        )


@pytest.mark.parametrize("seed", range(20))
def test_completion_never_rescues_covered_states(seed, solver):
    # on states covered by the original guards, a verified completed spec
    # implies inclusion against the original spec as written
    rng = random.Random(1000 + seed)
    alphabet = ("x", "y")
    left = spec_of((random_regex(rng, 4, alphabet), TRUE))
    right0 = spec_of(
        (random_regex(rng, 5, alphabet), bp),
        (random_regex(rng, 5, alphabet), neg(bp)),
    )
    cases = inclusion_obligations(TRUE, left, rx.EPSILON, complete(right0), solver)
    if not all(c.holds for c in cases):
        return
    for sp in _bool_states():
        lhs = eval_at(left, {"b": False})
        rhs = eval_at(right0, None, sp)
        assert enum_subset(lhs, rhs, 5) is None


def _specs_of(proc):
    """The contract of `proc` and the trace of every spec statement it runs."""
    yield proc.trace
    stack = [proc.spec_stmt() if proc.body is None else proc.body]
    while stack:
        c = stack.pop()
        if isinstance(c, SpecStmt):
            yield c.trace
        elif isinstance(c, Seq):
            stack.extend(c.stmts)
        elif isinstance(c, If):
            stack += [c.then, c.orelse]
        elif isinstance(c, While):
            stack.append(c.body)


@pytest.mark.parametrize("name", sorted(CORPUS) + sorted(MUTANTS))
def test_compiled_spec_builds_the_union_of_the_holding_options(name):
    # one compiled evaluator serves every state, so most states are answered
    # from its cache of unions; each must be the regex built afresh
    p = load_corpus(name)
    rng = random.Random(name)

    def value(ty):  # as the oracle samples: the program's constants half the time
        if ty == "bool":
            return rng.random() < 0.5
        if p.int_pool and rng.random() < 0.5:
            return rng.choice(p.int_pool)
        return rng.randint(*p.int_domain)

    for proc in p.procedures.values():
        for spec in map(complete, _specs_of(proc)):
            evaluate_spec = compile_spec(spec, by_prime)
            guards = [compile_formula(o.guard, by_prime) for o in spec.options]
            names = {v.name for o in spec.options for v in free_vars(o.guard)}
            for _ in range(500):
                s, sp = ({n: value(p.var_type(n, proc)) for n in names} for _ in range(2))
                want = rx.choice(
                    *(o.regex for o, g in zip(spec.options, guards) if g((s, sp)))
                )
                assert evaluate_spec((s, sp)) is want
