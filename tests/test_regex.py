import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrace import regex as rx
from helpers import (
    enum_member,
    enum_subset,
    enum_words,
    random_regex,
    random_word,
    reference_included,
)

a, b, c = rx.symbol("a"), rx.symbol("b"), rx.symbol("c")
even, odd = rx.symbol("even"), rx.symbol("odd")
even_odd_star = rx.star(rx.concat(even, odd))


# -- canonical constructors ---------------------------------------------------


def test_concat_annihilates_on_empty():
    assert rx.concat(rx.EMPTY, a) is rx.EMPTY
    assert rx.concat(a, rx.EMPTY, b) is rx.EMPTY


def test_choice_idempotent_and_drops_empty():
    assert rx.choice(a, a, rx.EMPTY) is a


def test_concat_drops_epsilon():
    assert rx.concat(rx.EPSILON, rx.concat(a, b)) is rx.concat(a, b)


def test_choice_is_order_insensitive_set():
    assert rx.choice(a, b) is rx.choice(b, a)
    assert rx.choice(a, rx.choice(b, c)) is rx.choice(rx.choice(a, b), c)


def test_star_collapses():
    assert rx.star(rx.star(a)) is rx.star(a)
    assert rx.star(rx.EPSILON) is rx.EPSILON
    assert rx.star(rx.EMPTY) is rx.EPSILON


def test_concat_is_associative_and_right_nested():
    left = rx.concat(rx.concat(a, b), c)
    assert left is rx.concat(a, rx.concat(b, c))
    assert left.head is a and left.tail is rx.concat(b, c)
    assert rx.render(left) == "a b c"


def test_plus_desugars():
    assert rx.plus(a) is rx.concat(a, rx.star(a))


# -- nullable / emptiness -----------------------------------------------------


def test_nullable_basics():
    assert rx.nullable(rx.EPSILON)
    assert rx.nullable(rx.star(a))
    assert not rx.nullable(rx.plus(a))


def test_is_empty():
    assert rx.is_empty(rx.EMPTY)
    assert not rx.is_empty(rx.EPSILON)
    assert rx.is_empty(rx.concat(a, rx.EMPTY))


# -- derivatives --------------------------------------------------------------


def test_derive_symbol():
    assert rx.derive("a", a) is rx.EPSILON
    assert rx.derive("a", b) is rx.EMPTY


def test_derive_even_odd_star():
    got = rx.derive("even", even_odd_star)
    assert got is rx.concat(odd, even_odd_star)
    # oracle: for every word of length <= 6 over {even, odd}, membership in
    # the derivative coincides with membership of the extended word
    alphabet = ("even", "odd")
    words = [()]
    for _ in range(6):
        words = [w + (x,) for w in words for x in alphabet] + words
    for w in set(words):
        assert enum_member(w, got) == enum_member(("even",) + w, even_odd_star)


def test_derive_through_long_run_of_nullable_factors():
    # 5000 nullable heads before the one that can consume `a`: the derivative
    # walks them without recursing once per factor
    r = rx.concat(*[rx.star(b)] * 5000, a)
    assert rx.derive("a", r) is rx.EPSILON
    assert rx.first(r) == {"a", "b"}


def test_memoized_derivatives_bound_the_work_on_many_nullable_factors(monkeypatch):
    # each option of a choice re-walks its run of nullable heads; without a
    # memo on derivatives this inclusion makes about 3.3 million calls
    events = [f"e{i}" for i in range(7)]
    u = rx.concat(*(rx.star(rx.symbol(events[i % 7])) for i in range(200)), a)
    v = rx.star(rx.choice(*map(rx.symbol, events), a))
    calls = 0
    derive = rx.derive

    def counted(*args):
        nonlocal calls
        calls += 1
        return derive(*args)

    monkeypatch.setattr(rx, "derive", counted)
    got, back = rx.included(u, v), rx.included(v, u)
    monkeypatch.undo()
    assert calls < 400_000
    assert got == reference_included(u, v) == rx.InclusionResult(True)
    assert back == reference_included(v, u)
    assert not back.holds


def test_first():
    assert rx.first(rx.concat(a, b)) == {"a"}
    assert rx.first(rx.EMPTY) == frozenset()
    assert rx.first(rx.EPSILON) == frozenset()


def test_first_of_concat_with_a_plain_head_is_the_heads_set():
    # shared, not copied, so a long straight line holds one set per event name
    tail = rx.concat(b, rx.star(c))
    for head in (a, rx.concat(rx.choice(a, b), c), rx.plus(b)):
        assert rx.first(rx.concat(head, tail)) is rx.first(head)


def test_first_concat_with_nullable_head():
    r = rx.concat(rx.star(rx.choice(a, b)), c)
    # oracle: heads of all short words of the language
    heads = {w[0] for w in enum_words(r, 3) if w}
    assert rx.first(r) == heads == {"a", "b", "c"}


# -- membership ---------------------------------------------------------------


def test_member_empty_word_in_star():
    assert rx.member((), rx.star(a))


def test_member_even_odd_pairs():
    assert rx.member(("even", "odd", "even", "odd"), even_odd_star)


def test_member_even_alone_rejected():
    assert ("even",) not in enum_words(even_odd_star, 1)
    assert not rx.member(("even",), even_odd_star)


# -- inclusion ----------------------------------------------------------------


def test_included_loop_body_reestablishes_invariant():
    lhs = rx.concat(even_odd_star, even, odd)
    assert rx.included(lhs, even_odd_star).holds


def test_included_reflexive():
    rng = random.Random(11)
    for _ in range(50):
        u = random_regex(rng, 10, ("a", "b", "c"))
        assert rx.included(u, u).holds


def test_included_counterexample():
    lhs = rx.concat(even_odd_star, even)
    res = rx.included(lhs, even_odd_star)
    assert not res.holds
    assert res.witness == ("even",)
    # oracle: exhaustive comparison up to length 4 agrees
    assert enum_subset(lhs, even_odd_star, 4) == ("even",)


def test_included_empty_rhs():
    res = rx.included(rx.choice(a, rx.concat(b, c)), rx.EMPTY)
    assert not res.holds
    assert res.witness == ("a",)
    assert rx.included(rx.EMPTY, rx.EMPTY).holds


def test_equivalent_distributivity():
    assert rx.equivalent(
        rx.concat(a, rx.choice(b, c)),
        rx.choice(rx.concat(a, b), rx.concat(a, c)),
    )


def test_equivalent_star_unrolling():
    lhs = rx.star(a)
    rhs = rx.choice(rx.EPSILON, rx.concat(a, rx.star(a)))
    assert enum_words(lhs, 5) == enum_words(rhs, 5)
    assert rx.equivalent(lhs, rhs)


def test_not_equivalent():
    assert not rx.equivalent(a, b)


# -- properties ---------------------------------------------------------------

_regex_st = st.builds(
    lambda seed, size: random_regex(random.Random(seed), size, ("a", "b", "c")),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
)

_word_st = st.lists(st.sampled_from(["a", "b", "c"]), max_size=8).map(tuple)


@given(_regex_st, _word_st, st.sampled_from(["a", "b", "c"]))
@settings(max_examples=200)
def test_derivative_soundness(u, word, ev):
    assert rx.member(word, rx.derive(ev, u)) == rx.member((ev,) + word, u)


@given(_regex_st, _word_st)
@settings(max_examples=200)
def test_member_agrees_with_enumeration(u, word):
    assert rx.member(word, u) == enum_member(word, u)


@given(_regex_st, _regex_st)
@settings(max_examples=150, deadline=None)
def test_inclusion_agrees_with_enumeration(u, v):
    res = rx.included(u, v)
    if res.holds:
        assert enum_subset(u, v, 8) is None
    else:
        assert res.witness is not None
        assert rx.member(res.witness, u)
        assert not rx.member(res.witness, v)


@given(_regex_st, _regex_st)
@settings(max_examples=300, deadline=None)
def test_inclusion_matches_recursive_reference(u, v):
    # the worklist search visits pairs in the order of the recursive one, so
    # verdicts and witnesses agree exactly, not just up to language
    assert rx.included(u, v) == reference_included(u, v)


@given(_regex_st)
@settings(max_examples=200)
def test_nullable_iff_member_of_empty_word(u):
    assert rx.nullable(u) == rx.member((), u)


@given(_regex_st)
@settings(max_examples=100)
def test_empty_means_no_words(u):
    if rx.is_empty(u):
        assert not enum_words(u, 6)


@given(_regex_st, _word_st)
@settings(max_examples=200)
def test_canonicalization_is_fixpoint_and_preserves_membership(u, word):
    rebuilt = _rebuild(u)
    assert rebuilt is u
    assert rx.member(word, rebuilt) == rx.member(word, u)


def _rebuild(r: rx.Regex) -> rx.Regex:
    if isinstance(r, rx.Symbol):
        return rx.symbol(r.event)
    if isinstance(r, rx.Concat):
        return rx.concat(_rebuild(r.head), _rebuild(r.tail))
    if isinstance(r, rx.Choice):
        return rx.choice(*(_rebuild(o) for o in r.options))
    if isinstance(r, rx.Star):
        return rx.star(_rebuild(r.inner))
    return r


def test_shortest_word():
    assert rx.shortest_word(rx.EMPTY) is None
    assert rx.shortest_word(rx.choice(rx.concat(a, b), c)) == ("c",)
    assert rx.shortest_word(rx.star(a)) == ()


@pytest.mark.parametrize("seed", range(5))
def test_random_word_membership_spotcheck(seed):
    rng = random.Random(seed)
    u = random_regex(rng, 10, ("a", "b"))
    for _ in range(20):
        w = random_word(rng, ("a", "b"), 6)
        assert rx.member(w, u) == enum_member(w, u)
