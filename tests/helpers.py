"""Shared test utilities: independent language oracles, reference
implementations and random generators.

The enumeration oracle computes truncated languages by structural recursion
over the regex, deliberately avoiding the derivative machinery it is used
to check.  The references (`reference_evaluate`, `reference_included`,
`reference_tokenize`, `ReferenceSolver`, `ReferenceVerifier`,
`reference_run`) are earlier, simpler versions of optimized code, kept so
that property tests can compare the two.
"""

from __future__ import annotations

import math
import random
from collections import ChainMap
from typing import Iterable, Mapping, Optional

from retrace import regex as rx
from retrace.formula import (
    And,
    BoolLit,
    BoolRef,
    Cmp,
    Formula,
    GroundState,
    Implies,
    Not,
    Or,
    Term,
    UnboundVariable,
    Var,
    atom_vars,
    atoms,
    cmp,
    conj,
    disj,
    free_vars,
    implies,
    neg,
    substitute,
    tconst,
    tvar,
)
from retrace.interp import RunResult
from retrace.lang import (
    _SYMBOLS,
    Abort,
    Assign,
    Call,
    Command,
    Emit,
    Havoc,
    If,
    ParseError,
    Program,
    Seq,
    SpecStmt,
    Token,
    While,
)
from retrace.tracespec import TraceSpec, complete
from retrace.solver import Model, SatResult, Solver
from retrace.verifier import Verifier

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


def _reference_lookup(v: Var, s: Optional[GroundState], sp: Optional[GroundState]):
    env = sp if v.primed else s
    val = None if env is None else env.get(v.name)
    if val is None:
        raise UnboundVariable(f"no value for {v}")
    return val


def reference_eval_term(t: Term, s: Optional[GroundState], sp: Optional[GroundState] = None) -> int:
    """`formula.eval_term` as a loop over the coefficients."""
    total = t.const
    for v, c in t.coeffs:
        val = _reference_lookup(v, s, sp)
        if isinstance(val, bool):
            raise UnboundVariable(f"{v} holds a boolean, expected an integer")
        total += c * val
    return total


def reference_evaluate(
    f: Formula, s: Optional[GroundState], sp: Optional[GroundState] = None
) -> bool:
    """`formula.evaluate` written out on its own, the reference for its
    verdicts and errors: unprimed variables read from `s`, primed from
    `sp`."""
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, BoolRef):
        val = _reference_lookup(f.var, s, sp)
        if not isinstance(val, bool):
            raise UnboundVariable(f"{f.var} holds an integer, expected a boolean")
        return val
    if isinstance(f, Cmp):
        a = reference_eval_term(f.lhs, s, sp)
        b = reference_eval_term(f.rhs, s, sp)
        if f.op == "==":
            return a == b
        if f.op == "!=":
            return a != b
        if f.op == "<":
            return a < b
        return a <= b
    if isinstance(f, Not):
        return not reference_evaluate(f.arg, s, sp)
    if isinstance(f, And):
        return all(reference_evaluate(a, s, sp) for a in f.args)
    if isinstance(f, Or):
        return any(reference_evaluate(a, s, sp) for a in f.args)
    assert isinstance(f, Implies)
    return (not reference_evaluate(f.lhs, s, sp)) or reference_evaluate(f.rhs, s, sp)


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


def reference_tokenize(src: str) -> list[Token]:
    """The lexer as a character-at-a-time loop, the reference for
    `lang.tokenize`.  It differs in one case only: a non-decimal digit such
    as '²' starts an integer here, which `int()` then rejects."""
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            if text == "_" and j < n and src[j] == "(":
                toks.append(Token("sym", "_(", line, col))
                col += 2
                i = j + 1
                continue
            if j < n and src[j] == "'":
                toks.append(Token("pident", text, line, col))
                j += 1
            else:
                toks.append(Token("ident", text, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                toks.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


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
_COMPARE = {"==": "equal", "!=": "not_equal", "<": "less", "<=": "less_equal"}


def brute_force_sat(f: Formula, names: list[str], lo: int = -8, hi: int = 8):
    """Exhaustive satisfiability over the integer box, vectorized with
    numpy on int32 grids; returns True/False.  Each distinct comparison is
    computed once per formula, as `lhs - rhs` compared with 0."""
    import numpy as np

    if not names:
        from retrace.formula import evaluate

        return evaluate(f, {})
    key = (tuple(names), lo, hi)
    env = _grid_cache.get(key)
    if env is None:
        grids = np.meshgrid(*[np.arange(lo, hi + 1, dtype=np.int32)] * len(names), indexing="ij")
        env = {Var(n): g.ravel() for n, g in zip(names, grids)}
        _grid_cache[key] = env
    shape = env[Var(names[0])].shape
    cmps: dict[Formula, object] = {}

    from retrace.formula import And, BoolLit, BoolRef, Cmp, Implies, Not, Or

    def ev(g: Formula):
        if isinstance(g, BoolLit):
            return np.full(shape, g.value, dtype=bool)
        if isinstance(g, Cmp):
            got = cmps.get(g)
            if got is None:
                d = g.lhs - g.rhs
                diff = np.full(shape, d.const, dtype=np.int32)
                for v, c in d.coeffs:
                    diff += c * env[v]
                got = cmps[g] = getattr(np, _COMPARE[g.op])(diff, 0)
            return got
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


# -- reference solver --------------------------------------------------------
#
# Kept verbatim apart from the class name, its entry point (`satisfiable`,
# unmemoized, where it was the memoized `_decide`), and this comment; its
# helpers use the module's own namespace, so `retrace.solver` can change
# freely.

# A linear constraint `coeffs . vars <= bound` over the integers.
Lin = tuple[tuple[tuple[Var, int], ...], int]

_WIDE_INTERVAL = 4096
_UNBOUNDED_WINDOW = 33
_MAX_CONSTRAINTS = 800


def _add_constraint(acc: list[Lin], coeffs: dict[Var, int], bound: int) -> bool:
    """Normalize (gcd tightening, valid over the integers) and append;
    returns False on an immediate contradiction."""
    items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    if not items:
        return bound >= 0
    g = 0
    for _, c in items:
        g = math.gcd(g, abs(c))
    if g > 1:
        items = tuple((v, c // g) for v, c in items)
        bound = bound // g  # floor: sound for integer solutions
    lin = (items, bound)
    if lin not in acc:
        acc.append(lin)
    return True


def _term_pair(t: Term) -> tuple[dict[Var, int], int]:
    return ({v: c for v, c in t.coeffs}, t.const)


def _atom_constraints(atom: Cmp, value: bool) -> list[list[tuple[dict[Var, int], int]]]:
    """The alternatives for one comparison literal, each a conjunction of
    constraints (coeffs <= bound); only a disequality has two, lhs < rhs
    and lhs > rhs."""
    lc, lk = _term_pair(atom.lhs)
    rc, rk = _term_pair(atom.rhs)
    diff = dict(lc)
    for v, c in rc.items():
        diff[v] = diff.get(v, 0) - c
    k = rk - lk  # lhs - rhs <= k forms
    op = atom.op
    if not value:
        op = {"==": "!=", "!=": "==", "<": ">=", "<=": ">"}[op]
    flipped = {v: -c for v, c in diff.items()}
    lt, le = (diff, k - 1), (diff, k)
    gt, ge = (flipped, -k - 1), (flipped, -k)
    return {
        "==": [[le, ge]],
        "!=": [[lt], [gt]],
        "<": [[lt]],
        "<=": [[le]],
        ">": [[gt]],
        ">=": [[ge]],
    }[op]


def _eliminate(x: Var, cons: list[Lin]) -> Optional[list[Lin]]:
    """One Fourier-Motzkin step; returns None on contradiction."""
    pos: list[Lin] = []
    negs: list[Lin] = []
    rest: list[Lin] = []
    for coeffs, bound in cons:
        c = dict(coeffs).get(x, 0)
        if c > 0:
            pos.append((coeffs, bound))
        elif c < 0:
            negs.append((coeffs, bound))
        else:
            rest.append((coeffs, bound))
    out = list(rest)
    for pc, pk in pos:
        a = dict(pc)[x]
        for nc, nk in negs:
            b = -dict(nc)[x]
            combined: dict[Var, int] = {}
            for v, c in pc:
                if v != x:
                    combined[v] = combined.get(v, 0) + b * c
            for v, c in nc:
                if v != x:
                    combined[v] = combined.get(v, 0) + a * c
            if not _add_constraint(out, combined, b * pk + a * nk):
                return None
            if len(out) > _MAX_CONSTRAINTS:
                raise _Blowup()
    return out


class _Blowup(Exception):
    pass


def _bounds_for(x: Var, cons: list[Lin], model: dict[Var, int]) -> Optional[tuple[Optional[int], Optional[int]]]:
    """Integer bounds on x implied by `cons` once the other variables take
    their model values; None when already contradictory."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    for coeffs, bound in cons:
        cx = 0
        rest = 0
        for v, c in coeffs:
            if v == x:
                cx = c
            else:
                rest += c * model[v]
        if cx == 0:
            if rest > bound:
                return None
            continue
        # cx * x <= bound - rest
        rhs = bound - rest
        if cx > 0:
            b = rhs // cx
            hi = b if hi is None else min(hi, b)
        else:
            b = -(rhs // -cx)  # exact integer ceiling of rhs / cx
            lo = b if lo is None else max(lo, b)
    return lo, hi


def _search_linear(cons: list[Lin]) -> tuple[str, Optional[dict[Var, int]]]:
    """Decide a conjunction of integer linear inequalities.

    Fourier-Motzkin elimination with gcd tightening refutes; backtracking
    over the projected integer intervals constructs a model.  When an
    interval is unbounded only a finite window is probed, so the answer
    degrades to unknown instead of unsat.
    """
    vars_: list[Var] = sorted({v for coeffs, _ in cons for v, _ in coeffs})
    norm: list[Lin] = []
    for coeffs, bound in cons:
        if not _add_constraint(norm, dict(coeffs), bound):
            return "unsat", None
    stages: list[tuple[Var, list[Lin]]] = []
    cur = norm
    try:
        for x in vars_:
            stages.append((x, cur))
            nxt = _eliminate(x, cur)
            if nxt is None:
                return "unsat", None
            cur = nxt
    except _Blowup:
        return "unknown", None

    incomplete = False

    def assign(i: int, model: dict[Var, int]) -> Optional[dict[Var, int]]:
        nonlocal incomplete
        if i < 0:
            return model
        x, cons_i = stages[i]
        b = _bounds_for(x, cons_i, model)
        if b is None:
            return None
        lo, hi = b
        if lo is not None and hi is not None:
            if lo > hi:
                return None
            if hi - lo + 1 > _WIDE_INTERVAL:
                incomplete = True
                candidates: Iterable[int] = list(range(lo, lo + _UNBOUNDED_WINDOW)) + list(
                    range(hi - _UNBOUNDED_WINDOW + 1, hi + 1)
                )
            else:
                candidates = range(lo, hi + 1)
        elif lo is not None:
            incomplete = True
            candidates = range(lo, lo + _UNBOUNDED_WINDOW)
        elif hi is not None:
            incomplete = True
            candidates = range(hi - _UNBOUNDED_WINDOW + 1, hi + 1)
        else:
            incomplete = True
            candidates = range(-_UNBOUNDED_WINDOW // 2, _UNBOUNDED_WINDOW // 2 + 1)
        for val in candidates:
            model[x] = val
            got = assign(i - 1, model)
            if got is not None:
                return got
            del model[x]
        return None

    model = assign(len(stages) - 1, {})
    if model is not None:
        return "sat", model
    return ("unknown", None) if incomplete else ("unsat", None)


class ReferenceSolver(Solver):
    """The built-in solver as it was before unit propagation, partial
    theory checks and lazy disequality splits: DPLL that evaluates the whole
    formula at every node, and 2^k linear searches for k disequalities.
    The reference for `BuiltinSolver`'s verdicts; exponential in the
    disequalities, so it only suits small formulas."""

    def satisfiable(self, f: Formula) -> SatResult:
        f_atoms = atoms(f)

        def eval_partial(g: Formula, asn: dict[Formula, bool]) -> Optional[bool]:
            if isinstance(g, BoolLit):
                return g.value
            if isinstance(g, (BoolRef, Cmp)):
                return asn.get(g)
            if isinstance(g, Not):
                r = eval_partial(g.arg, asn)
                return None if r is None else not r
            if isinstance(g, And):
                out: Optional[bool] = True
                for a in g.args:
                    r = eval_partial(a, asn)
                    if r is False:
                        return False
                    if r is None:
                        out = None
                return out
            if isinstance(g, Or):
                out = False
                for a in g.args:
                    r = eval_partial(a, asn)
                    if r is True:
                        return True
                    if r is None:
                        out = None
                return out
            assert isinstance(g, Implies)
            l = eval_partial(g.lhs, asn)
            r = eval_partial(g.rhs, asn)
            if l is False or r is True:
                return True
            if l is True and r is False:
                return False
            return None

        def theory_check(asn: dict[Formula, bool]) -> tuple[str, Optional[Model]]:
            base: list[tuple[dict[Var, int], int]] = []
            splits: list[list[list[tuple[dict[Var, int], int]]]] = []
            for atom, val in asn.items():
                if not isinstance(atom, Cmp):
                    continue
                alts = _atom_constraints(atom, val)
                if len(alts) == 1:
                    base.extend(alts[0])
                else:
                    splits.append(alts)

            def run(cons: list[tuple[dict[Var, int], int]], idx: int) -> tuple[str, Optional[dict[Var, int]]]:
                if idx == len(splits):
                    lin: list[Lin] = [
                        (tuple(sorted((v, c) for v, c in coeffs.items() if c != 0)), k)
                        for coeffs, k in cons
                    ]
                    return _search_linear(lin)
                any_unknown = False
                for branch in splits[idx]:
                    st, m = run(cons + branch, idx + 1)
                    if st == "sat":
                        return st, m
                    if st == "unknown":
                        any_unknown = True
                return ("unknown", None) if any_unknown else ("unsat", None)

            st, intmodel = run(base, 0)
            if st in ("unknown", "unsat"):
                return st, None
            model: Model = {}
            for atom, val in asn.items():
                if isinstance(atom, BoolRef):
                    model[atom.var] = val
            assert intmodel is not None
            ints = {v for a in asn if isinstance(a, Cmp) for v in atom_vars(a)}
            for v in sorted(ints):
                model[v] = intmodel.get(v, 0)
            return "sat", model

        def dpll(asn: dict[Formula, bool]) -> tuple[str, Optional[Model]]:
            val = eval_partial(f, asn)
            if val is False:
                return "unsat", None
            if val is True:
                return theory_check(asn)
            for atom in f_atoms:
                if atom not in asn:
                    branch_unknown = False
                    for choice_ in (True, False):
                        asn[atom] = choice_
                        st, m = dpll(asn)
                        del asn[atom]
                        if st == "sat":
                            return st, m
                        if st == "unknown":
                            branch_unknown = True
                    return ("unknown", None) if branch_unknown else ("unsat", None)
            return "unsat", None  # unreachable: no unassigned atom but undetermined

        status, model = dpll({})
        if status == "sat":
            assert model is not None
            bools = {a.var for a in f_atoms if isinstance(a, BoolRef)}
            for v in sorted(free_vars(f)):
                if v not in model:
                    model[v] = False if v in bools else 0
            return SatResult("sat", model)
        if status == "unsat":
            return SatResult("unsat")
        return SatResult("unknown", diagnostic="incomplete arithmetic search")


# -- reference verifier ------------------------------------------------------


class ReferenceVerifier(Verifier):
    """The verifier as it was before `if` joins: every feasible branch
    result stays a state of its own, so N sequential ifs give 2^N paths.
    The reference for the joining `If` rule's verdicts; it only suits small
    procedures."""

    def exec(self, c, state, proc, obs, warnings):
        if not isinstance(c, If):
            return super().exec(c, state, proc, obs, warnings)
        t = substitute(c.test, state.store)
        out = []
        for cond, branch in ((t, c.then), (neg(t), c.orelse)):
            path2 = conj(state.path, cond)
            if not self.solver.feasible(path2):
                continue
            st = state.fork()
            st.path = path2
            out.extend(self.exec(branch, st, proc, obs, warnings))
        return out


# -- reference interpreter ---------------------------------------------------


class _RefAborted(Exception):
    pass


class _RefOutOfFuel(Exception):
    pass


def _reference_value(ty: str, rng: random.Random, p: Program):
    if ty == "bool":
        return rng.random() < 0.5
    if p.int_pool and rng.random() < 0.5:
        return p.int_pool[rng.randrange(len(p.int_pool))]
    return rng.randint(p.int_domain[0], p.int_domain[1])


def _reference_word(r: rx.Regex, rng: random.Random) -> Optional[Word]:
    out: list[str] = []
    while True:
        starts = sorted(rx.first(r))
        if rx.nullable(r) and (not starts or len(out) >= 8 or rng.random() < 0.4):
            return tuple(out)
        if not starts:
            return None
        a = starts[rng.randrange(len(starts))]
        out.append(a)
        r = rx.derive(a, r)


def _reference_union(spec: TraceSpec, s: Mapping) -> rx.Regex:
    holds = [reference_evaluate(o.guard, s) for o in spec.options]
    return rx.choice(*(o.regex for o, h in zip(spec.options, holds) if h))


def reference_pre_state(p: Program, entry: str, rng: random.Random) -> dict:
    """A pre-state drawn as the oracle draws one, before its precondition
    is checked: every global, then every local of `entry`."""
    typed = [(n, gv.type) for n, gv in p.variables.items()]
    typed += list(p.procedures[entry].locals.items())
    return {n: _reference_value(ty, rng, p) for n, ty in typed}


def reference_run(p: Program, entry: str, s0: Mapping, rng: random.Random, fuel: int = 256) -> RunResult:
    """`interp.run` as a recursive walk over the AST, with the semantics and
    the order of random draws of the interpreter that compiled to closures:
    every read is checked as `reference_evaluate` checks it, and integers
    are drawn with `randint` and `randrange`.  It recurses several times per
    nested statement, so it suits shallow programs and small fuel."""
    left = [fuel]

    def burn() -> None:
        left[0] -= 1
        if left[0] < 0:
            raise _RefOutOfFuel()

    def type_of(name: str, local: Mapping[str, str]) -> str:
        return local.get(name) or p.var_type(name) or "int"

    def spec(c: SpecStmt, frame: dict, local: Mapping[str, str]) -> None:
        pre = ChainMap(frame, g)
        if not reference_evaluate(c.guard, pre):
            raise _RefAborted()
        for _ in range(64 if c.mods else 1):
            cand = {m: _reference_value(type_of(m, local), rng, p) for m in c.mods}
            if reference_evaluate(c.rel, pre, ChainMap(cand, frame, g)):
                break
        else:
            raise _RefOutOfFuel()
        allowed = _reference_union(complete(c.trace), pre)
        for m in c.mods:
            (frame if m in local else g)[m] = cand[m]
        word = _reference_word(allowed, rng)
        if word is None:
            raise _RefOutOfFuel()
        trace.extend(word)

    def call(name: str, frame_init: Mapping) -> dict:
        proc = p.procedures[name]
        if proc.body is None:
            spec(proc.spec_stmt(), {}, {})
            return {}
        frame = {n: False if ty == "bool" else 0 for n, ty in proc.locals.items()}
        frame.update(frame_init)
        execute(proc.body, frame, proc.locals)
        return frame

    def execute(c: Command, frame: dict, local: Mapping[str, str]) -> None:
        env = ChainMap(frame, g)
        if isinstance(c, Seq):
            for s in c.stmts:
                execute(s, frame, local)
        elif isinstance(c, Emit):
            trace.append(c.event)
        elif isinstance(c, Assign):
            if isinstance(c.value, Term):
                value = reference_eval_term(c.value, env)
            else:
                value = reference_evaluate(c.value, env)
            (frame if c.var in local else g)[c.var] = value
        elif isinstance(c, Havoc):
            (frame if c.var in local else g)[c.var] = _reference_value(type_of(c.var, local), rng, p)
        elif isinstance(c, If):
            execute(c.then if reference_evaluate(c.test, env) else c.orelse, frame, local)
        elif isinstance(c, While):
            while reference_evaluate(c.test, env):
                burn()
                execute(c.body, frame, local)
        elif isinstance(c, Call):
            burn()
            call(c.proc, {})
        elif isinstance(c, SpecStmt):
            spec(c, frame, local)
        else:
            assert isinstance(c, Abort)
            raise _RefAborted()

    proc = p.procedures.get(entry)
    if proc is None or proc.body is None:
        raise ValueError(f"no executable procedure {entry!r}")
    trace: list[str] = []
    g: dict = {}
    for name, gv in p.variables.items():
        if name in s0:
            g[name] = s0[name]
        elif gv.init is not None:
            g[name] = gv.init
        else:
            raise ValueError(f"pre-state misses global {name!r}")
    try:
        frame = call(entry, {k: v for k, v in s0.items() if k in proc.locals})
    except _RefAborted:
        return RunResult("aborted", None, tuple(trace))
    except (_RefOutOfFuel, RecursionError):
        return RunResult("fuel", None, tuple(trace))
    return RunResult("stopped", {**g, **frame}, tuple(trace))


# -- program generation ------------------------------------------------------


def random_program(rng: random.Random) -> str:
    """Source of a random resolvable program whose entry is `main`: int and
    bool globals, some initialised; bodiless procedures with guards,
    relations and guarded traces; bodied procedures that call each other
    and themselves, with loops, havocs, emits and aborts."""
    events = ("a", "b", "c")
    ints, bools = ["g0", "g1"], ["h0"]
    lines = [f"events {', '.join(events)};", f"const K = {rng.randint(-3, 3)};"]
    lines += ["int g0;", f"int g1 = {rng.randint(-2, 2)};", "bool h0;"]

    def term(names: list[str], primed: tuple[str, ...] = ()) -> str:
        pool = names + [f"{n}'" for n in primed] + ["K", str(rng.randint(-3, 3))]
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        out = parts[0]
        for q in parts[1:]:
            out += rng.choice([" + ", " - ", " + 2 * "]) + q
        return out

    def formula(ints_: list[str], bools_: list[str], depth: int = 2, primed: tuple[str, ...] = ()) -> str:
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            if bools_ and rng.random() < 0.3:
                return rng.choice(bools_ + [f"{n}'" for n in primed if n in bools])
            op = rng.choice(["<", "<=", "==", "!=", ">", ">="])
            pi = tuple(n for n in primed if n in ints)
            return f"{term(ints_, pi)} {op} {term(ints_, pi)}"
        if roll < 0.5:
            return f"!({formula(ints_, bools_, depth - 1, primed)})"
        op = rng.choice([" && ", " || ", " ==> "])
        return f"({formula(ints_, bools_, depth - 1, primed)}{op}{formula(ints_, bools_, depth - 1, primed)})"

    def regex() -> str:
        return rng.choice(["()", "a", "b c", "(a | b)", "a*", "c (a | b)*", "a b*"])

    callees = []
    for k in range(rng.randint(1, 2)):
        name = f"ext{k}"
        mods = rng.sample(ints + bools, rng.randint(0, 2))
        clauses = []
        if rng.random() < 0.5:
            clauses.append(f"_(requires {formula(ints, bools, 1)})")
        if mods:
            clauses.append(f"_(modifies {', '.join(mods)})")
            clauses.append(f"_(ensures {formula(ints, bools, 1, tuple(mods))})")
        for _ in range(rng.randint(0, 2)):
            clauses.append(f"_(trace {regex()} if {formula(ints, bools, 1)})")
        lines.append(f"proc {name}() {' '.join(clauses)} ;")
        callees.append(name)
    bodied = [f"q{k}" for k in range(rng.randint(0, 2))] + ["main"]
    callees += bodied

    def block(local_ints: list[str], local_bools: list[str], depth: int) -> list[str]:
        ivars, bvars = ints + local_ints, bools + local_bools
        out: list[str] = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.2:
                out.append(f"_(emit {rng.choice(events)})")
            elif roll < 0.35:
                v = rng.choice(ivars)
                out.append(f"{v} = {term(ivars)};")
            elif roll < 0.45:
                v = rng.choice(bvars)
                out.append(f"{v} = {formula(ivars, bvars, 1)};")
            elif roll < 0.55:
                out.append(f"{rng.choice(ivars + bvars)} = nondet();")
            elif roll < 0.7:
                out.append(f"{rng.choice(callees)}();")
            elif roll < 0.72:
                out.append("abort();")
            elif roll < 0.87 and depth > 0:
                out.append(f"if ({formula(ivars, bvars)}) {{")
                out += ["  " + ln for ln in block(local_ints, local_bools, depth - 1)]
                if rng.random() < 0.6:
                    out.append("} else {")
                    out += ["  " + ln for ln in block(local_ints, local_bools, depth - 1)]
                out.append("}")
            elif depth > 0:
                v = rng.choice(local_bools)
                out.append(f"while ({v} || {formula(ivars, bvars, 1)}) {{")
                out += ["  " + ln for ln in block(local_ints, local_bools, depth - 1)]
                out.append(f"  {v} = nondet();")
                out.append("}")
        return out

    for name in bodied:
        local_ints = [f"{name}_i{k}" for k in range(rng.randint(0, 2))]
        local_bools = [f"{name}_b{k}" for k in range(rng.randint(1, 2))]
        lines.append(f"proc {name}() {{")
        lines += [f"  int {v};" for v in local_ints] + [f"  bool {v} = nondet();" for v in local_bools]
        lines += ["  " + ln for ln in block(local_ints, local_bools, 2)]
        lines.append("}")
    return "\n".join(lines) + "\n"
