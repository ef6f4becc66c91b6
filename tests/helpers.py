"""Shared test utilities: independent language oracles and random generators.

The enumeration oracle computes truncated languages by structural recursion
over the regex, deliberately avoiding the derivative machinery it is used
to check.
"""

from __future__ import annotations

import random
from typing import Optional

from retrace import regex as rx
from retrace.formula import (
    Formula,
    Term,
    Var,
    cmp,
    conj,
    disj,
    implies,
    neg,
    tconst,
    tvar,
)

Word = tuple[str, ...]
Buckets = tuple[frozenset[Word], ...]

_lang_cache: dict[tuple[int, int], Buckets] = {}


def _combine(a: Buckets, b: Buckets, max_len: int) -> Buckets:
    out: list[set[Word]] = [set() for _ in range(max_len + 1)]
    for i, ws in enumerate(a):
        if not ws:
            continue
        for j, vs in enumerate(b):
            if i + j > max_len:
                break
            if not vs:
                continue
            bucket = out[i + j]
            for w in ws:
                for v in vs:
                    bucket.add(w + v)
    return tuple(frozenset(s) for s in out)


def _union(a: Buckets, b: Buckets) -> Buckets:
    return tuple(x | y for x, y in zip(a, b))


def lang_buckets(r: rx.Regex, max_len: int) -> Buckets:
    """Words of L(r) up to max_len, grouped by length (index = length)."""
    key = (id(r), max_len)
    hit = _lang_cache.get(key)
    if hit is not None:
        return hit
    empty: Buckets = tuple(frozenset() for _ in range(max_len + 1))
    if r is rx.EMPTY:
        out = empty
    elif r is rx.EPSILON:
        out = (frozenset([()]),) + empty[1:]
    elif isinstance(r, rx.Symbol):
        if max_len >= 1:
            out = (frozenset(), frozenset([(r.event,)])) + empty[2:]
        else:
            out = empty
    elif isinstance(r, rx.Choice):
        out = empty
        for o in r.options:
            out = _union(out, lang_buckets(o, max_len))
    elif isinstance(r, rx.Concat):
        out = _combine(lang_buckets(r.head, max_len), lang_buckets(r.tail, max_len), max_len)
    else:
        assert isinstance(r, rx.Star)
        inner = lang_buckets(r.inner, max_len)
        out = (frozenset([()]),) + empty[1:]
        for _ in range(max_len):
            grown = _union(out, _combine(out, inner, max_len))
            if grown == out:
                break
            out = grown
    _lang_cache[key] = out
    return out


def enum_words(r: rx.Regex, max_len: int) -> set[Word]:
    return set().union(*lang_buckets(r, max_len))


def enum_member(word: Word, r: rx.Regex) -> bool:
    """Membership by enumeration; independent of the derivative engine."""
    return word in lang_buckets(r, len(word))[len(word)]


def enum_subset(u: rx.Regex, v: rx.Regex, max_len: int) -> Optional[Word]:
    """A word of L(u) \\ L(v) of length <= max_len, or None."""
    bu = lang_buckets(u, max_len)
    bv = lang_buckets(v, max_len)
    for n in range(max_len + 1):
        diff = bu[n] - bv[n]
        if diff:
            return min(diff)
    return None


def reference_included(u: rx.Regex, v: rx.Regex) -> rx.InclusionResult:
    """The derivative-pair search of `rx.included` written as a recursion,
    the reference for its verdicts and witnesses.  It recurses once per
    event, so it only suits small expressions."""
    gamma: set[tuple[rx.Regex, rx.Regex]] = set()

    def go(u: rx.Regex, v: rx.Regex) -> Optional[Word]:
        if (u, v) in gamma:
            return None
        if v is rx.EMPTY:
            return None if u is rx.EMPTY else rx.shortest_word(u)
        if rx.nullable(u) and not rx.nullable(v):
            return ()
        gamma.add((u, v))
        for a in sorted(rx.first(u)):
            w = go(rx.derive(a, u), rx.derive(a, v))
            if w is not None:
                return (a,) + w
        return None

    w = go(u, v)
    return rx.InclusionResult(w is None, w)


def random_regex(rng: random.Random, size: int, alphabet: tuple[str, ...]) -> rx.Regex:
    """Random canonical regex with at most `size` grammar nodes."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.70:
            return rx.symbol(rng.choice(alphabet))
        if roll < 0.90:
            return rx.EPSILON
        return rx.EMPTY
    op = rng.random()
    if op < 0.35:
        k = rng.randint(2, 3)
        parts = _split_budget(rng, size - 1, k)
        return rx.concat(*(random_regex(rng, b, alphabet) for b in parts))
    if op < 0.70:
        k = rng.randint(2, 3)
        parts = _split_budget(rng, size - 1, k)
        return rx.choice(*(random_regex(rng, b, alphabet) for b in parts))
    return rx.star(random_regex(rng, size - 1, alphabet))


def _split_budget(rng: random.Random, total: int, k: int) -> list[int]:
    parts = [1] * k
    for _ in range(total - k):
        parts[rng.randrange(k)] += 1
    return parts


def random_word(rng: random.Random, alphabet: tuple[str, ...], max_len: int) -> Word:
    n = rng.randint(0, max_len)
    return tuple(rng.choice(alphabet) for _ in range(n))


# -- formula generation ------------------------------------------------------


def random_term(rng: random.Random, names: list[str], max_coeff: int = 3) -> Term:
    t = tconst(rng.randint(-8, 8))
    for name in names:
        if rng.random() < 0.6:
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                t = t + tvar(name).scaled(c)
    return t


def random_atom(rng: random.Random, names: list[str]) -> Formula:
    op = rng.choice(["==", "!=", "<", "<="])
    return cmp(op, random_term(rng, names), random_term(rng, names))


def random_formula(rng: random.Random, names: list[str], depth: int = 3) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        return random_atom(rng, names)
    roll = rng.random()
    a = random_formula(rng, names, depth - 1)
    b = random_formula(rng, names, depth - 1)
    if roll < 0.35:
        return conj(a, b)
    if roll < 0.70:
        return disj(a, b)
    if roll < 0.85:
        return neg(a)
    return implies(a, b)


def with_domain_bounds(f: Formula, names: list[str], lo: int = -8, hi: int = 8) -> Formula:
    bounds = [
        conj(cmp("<=", tconst(lo), tvar(n)), cmp("<=", tvar(n), tconst(hi)))
        for n in names
    ]
    return conj(f, *bounds)


_grid_cache: dict = {}


def brute_force_sat(f: Formula, names: list[str], lo: int = -8, hi: int = 8):
    """Exhaustive satisfiability over the integer box, vectorized with
    numpy; returns True/False."""
    import numpy as np

    if not names:
        from retrace.formula import evaluate

        return evaluate(f, {})
    key = (tuple(names), lo, hi)
    env = _grid_cache.get(key)
    if env is None:
        grids = np.meshgrid(*[np.arange(lo, hi + 1)] * len(names), indexing="ij")
        env = {Var(n): g.ravel() for n, g in zip(names, grids)}
        _grid_cache[key] = env

    from retrace.formula import And, BoolLit, BoolRef, Cmp, Implies, Not, Or

    def ev(g: Formula):
        if isinstance(g, BoolLit):
            return np.full(env[Var(names[0])].shape, g.value, dtype=bool)
        if isinstance(g, Cmp):
            lhs = np.full(env[Var(names[0])].shape, g.lhs.const, dtype=np.int64)
            for v, c in g.lhs.coeffs:
                lhs = lhs + c * env[v]
            rhs = np.full(env[Var(names[0])].shape, g.rhs.const, dtype=np.int64)
            for v, c in g.rhs.coeffs:
                rhs = rhs + c * env[v]
            if g.op == "==":
                return lhs == rhs
            if g.op == "!=":
                return lhs != rhs
            if g.op == "<":
                return lhs < rhs
            return lhs <= rhs
        if isinstance(g, Not):
            return ~ev(g.arg)
        if isinstance(g, And):
            out = ev(g.args[0])
            for a in g.args[1:]:
                out = out & ev(a)
            return out
        if isinstance(g, Or):
            out = ev(g.args[0])
            for a in g.args[1:]:
                out = out | ev(a)
            return out
        if isinstance(g, Implies):
            return ~ev(g.lhs) | ev(g.rhs)
        if isinstance(g, BoolRef):
            raise ValueError("boolean variables not supported by the numpy oracle")
        raise ValueError(f"unknown formula {g!r}")

    return bool(ev(f).any())
