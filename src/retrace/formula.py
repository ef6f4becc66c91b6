"""Quantifier-free formulas over typed program variables.

Atoms are boolean variables and comparisons between linear integer terms.
Variables carry a prime level (0 or 1) so that formulas can describe
transition relations between a pre- and a post-state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Union

Value = Union[bool, int]
GroundState = Mapping[str, Value]


class FormulaError(Exception):
    pass


class UnboundVariable(FormulaError):
    """Raised when evaluation or substitution misses a required variable."""


@dataclass(frozen=True, order=True)
class Var:
    name: str
    primed: bool = False

    def __str__(self) -> str:
        return self.name + "'" if self.primed else self.name


@dataclass(frozen=True)
class Term:
    """Linear integer term: `const` plus a sum of coefficient * variable,
    with coefficients nonzero and variables sorted."""

    coeffs: tuple[tuple[Var, int], ...] = ()
    const: int = 0

    def __add__(self, other: "Term") -> "Term":
        return term_sum((self, other))

    def __sub__(self, other: "Term") -> "Term":
        return self + other.scaled(-1)

    def __neg__(self) -> "Term":
        return self.scaled(-1)

    def scaled(self, k: int) -> "Term":
        if k == 0:
            return Term()
        return Term(tuple((v, c * k) for v, c in self.coeffs), self.const * k)

    def is_const(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts: list[str] = []
        for v, c in self.coeffs:
            if not parts:
                if c == 1:
                    parts.append(f"{v}")
                elif c == -1:
                    parts.append(f"-{v}")
                else:
                    parts.append(f"{c} * {v}")
            else:
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                parts.append(f"{sign} {v}" if mag == 1 else f"{sign} {mag} * {v}")
        if self.const > 0:
            parts.append(f"+ {self.const}")
        elif self.const < 0:
            parts.append(f"- {-self.const}")
        return " ".join(parts)


def term_sum(terms: Iterable[Term]) -> Term:
    """The sum of `terms` in one pass, linear in their coefficients."""
    base: dict[Var, int] = {}
    const = 0
    for t in terms:
        const += t.const
        for v, c in t.coeffs:
            base[v] = base.get(v, 0) + c
    return Term(tuple(sorted((v, c) for v, c in base.items() if c != 0)), const)


def tvar(name: str, primed: bool = False) -> Term:
    return Term(((Var(name, primed), 1),))


def tconst(n: int) -> Term:
    return Term((), n)


class Formula:
    """Base class; all nodes are immutable dataclasses."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)

    def __str__(self) -> str:
        return render_formula(self)

    def __repr__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True, repr=False)
class BoolLit(Formula):
    value: bool


@dataclass(frozen=True, repr=False)
class BoolRef(Formula):
    var: Var


@dataclass(frozen=True, repr=False)
class Cmp(Formula):
    op: str  # one of ==, !=, <, <=
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if self.op not in ("==", "!=", "<", "<="):
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True, repr=False)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, repr=False)
class And(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True, repr=False)
class Or(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def boolref(name: str, primed: bool = False) -> Formula:
    return BoolRef(Var(name, primed))


def cmp(op: str, lhs: Term, rhs: Term) -> Formula:
    """Comparison atom; constant-folds when both sides are constants."""
    if lhs.is_const() and rhs.is_const():
        a, b = lhs.const, rhs.const
        result = {"==": a == b, "!=": a != b, "<": a < b, "<=": a <= b}[op]
        return TRUE if result else FALSE
    return Cmp(op, lhs, rhs)


def conj(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if p is FALSE or (isinstance(p, BoolLit) and not p.value):
            return FALSE
        if isinstance(p, BoolLit):
            continue
        if isinstance(p, And):
            flat.extend(p.args)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, BoolLit):
            if p.value:
                return TRUE
            continue
        if isinstance(p, Or):
            flat.extend(p.args)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(f: Formula) -> Formula:
    if isinstance(f, BoolLit):
        return FALSE if f.value else TRUE
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def implies(p: Formula, q: Formula) -> Formula:
    if isinstance(p, BoolLit):
        return q if p.value else TRUE
    if isinstance(q, BoolLit) and q.value:
        return TRUE
    return Implies(p, q)


def atoms(f: Formula) -> tuple[Formula, ...]:
    """The distinct boolean-variable and comparison atoms of `f`, in order of
    first occurrence, left to right (an implication's premise first)."""
    seen: dict[Formula, None] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, (BoolRef, Cmp)):
            seen.setdefault(g)
        elif isinstance(g, Not):
            walk(g.arg)
        elif isinstance(g, (And, Or)):
            for a in g.args:
                walk(a)
        elif isinstance(g, Implies):
            walk(g.lhs)
            walk(g.rhs)

    walk(f)
    return tuple(seen)


def atom_vars(a: Formula) -> tuple[Var, ...]:
    """The variables of one atom, those of a comparison's lhs first."""
    if isinstance(a, BoolRef):
        return (a.var,)
    assert isinstance(a, Cmp)
    return tuple(v for t in (a.lhs, a.rhs) for v, _ in t.coeffs)


def free_vars(f: Union[Formula, Term]) -> frozenset[Var]:
    if isinstance(f, Term):
        return frozenset(v for v, _ in f.coeffs)
    return frozenset(v for a in atoms(f) for v in atom_vars(a))


def _binding(v: Var, s: Optional[Mapping], sp: Optional[Mapping]) -> Any:
    """What `v` is bound to, by name: primed variables in `sp`, the others
    in `s`; None when unbound."""
    env = sp if v.primed else s
    return None if env is None else env.get(v.name)


Substitution = Mapping[str, Union[Term, Formula]]


def substitute(
    f: Union[Formula, Term], pre: Substitution, post: Optional[Substitution] = None
) -> Union[Formula, Term]:
    """Capture-free substitution in a formula or a linear term: unprimed
    variables are replaced by their binding in `pre`, primed ones by theirs
    in `post`, looked up by name as `evaluate` reads a state; unbound
    variables stay in place. Only the formula is walked, never the maps."""
    if isinstance(f, Term):
        parts = [tconst(f.const)]
        for v, c in f.coeffs:
            repl = _binding(v, pre, post)
            if repl is None:
                parts.append(Term(((v, c),)))
            elif isinstance(repl, Term):
                parts.append(repl.scaled(c))
            else:
                raise UnboundVariable(f"integer variable {v} bound to {repl!r}")
        return term_sum(parts)
    if isinstance(f, BoolLit):
        return f
    if isinstance(f, BoolRef):
        repl = _binding(f.var, pre, post)
        if repl is None:
            return f
        if isinstance(repl, Formula):
            return repl
        raise UnboundVariable(f"boolean variable {f.var} bound to {repl!r}")
    if isinstance(f, Cmp):
        return cmp(f.op, substitute(f.lhs, pre, post), substitute(f.rhs, pre, post))
    if isinstance(f, Not):
        return neg(substitute(f.arg, pre, post))
    if isinstance(f, And):
        return conj(*(substitute(a, pre, post) for a in f.args))
    if isinstance(f, Or):
        return disj(*(substitute(a, pre, post) for a in f.args))
    assert isinstance(f, Implies)
    return implies(substitute(f.lhs, pre, post), substitute(f.rhs, pre, post))


Env = tuple[Optional[Mapping[str, Value]], ...]
Selector = Callable[[Var], int]


def by_prime(v: Var) -> int:
    """The selector of `evaluate`: unprimed variables read the first
    mapping, primed ones the second."""
    return 1 if v.primed else 0


def _read(v: Var, i: int, boolean: bool) -> Callable[[Env], Value]:
    """Read `v` by name from `env[i]`; an absent mapping or name, or a value
    of the other type, raises `UnboundVariable`."""
    name = v.name
    unbound = (LookupError, TypeError)  # no such name, or env[i] is absent

    if boolean:
        def read(env: Env) -> Value:
            try:
                val = env[i][name]  # type: ignore[index]
            except unbound:
                raise UnboundVariable(f"no value for {v}") from None
            if val is True or val is False:
                return val
            raise UnboundVariable(f"{v} holds an integer, expected a boolean")
    else:
        def read(env: Env) -> Value:
            try:
                val = env[i][name]  # type: ignore[index]
            except unbound:
                raise UnboundVariable(f"no value for {v}") from None
            if val is True or val is False:
                raise UnboundVariable(f"{v} holds a boolean, expected an integer")
            return val
    return read


def compile_term(t: Term, select: Selector) -> Callable[[Env], int]:
    """Compile a linear term to a function of an environment, a tuple of
    mappings; `select` picks the mapping each variable is read from."""
    k = t.const
    reads = tuple((c, _read(v, select(v), False)) for v, c in t.coeffs)
    if not reads:
        return lambda env: k
    if len(reads) == 1:
        c, r = reads[0]
        if c == 1:
            return r if k == 0 else lambda env: r(env) + k
        return lambda env: c * r(env) + k

    def term(env: Env) -> int:
        total = k
        for c, r in reads:
            total += c * r(env)
        return total

    return term


def compile_formula(f: Formula, select: Selector) -> Callable[[Env], bool]:
    """Compile a formula to a function of an environment, as `compile_term`
    does; connectives short-circuit left to right."""
    if isinstance(f, BoolLit):
        value = f.value
        return lambda env: value
    if isinstance(f, BoolRef):
        return _read(f.var, select(f.var), True)  # type: ignore[return-value]
    if isinstance(f, Cmp):
        a, b = compile_term(f.lhs, select), compile_term(f.rhs, select)
        if f.op == "==":
            return lambda env: a(env) == b(env)
        if f.op == "!=":
            return lambda env: a(env) != b(env)
        if f.op == "<":
            return lambda env: a(env) < b(env)
        return lambda env: a(env) <= b(env)
    if isinstance(f, Not):
        g = compile_formula(f.arg, select)
        return lambda env: not g(env)
    if isinstance(f, Implies):
        p, q = compile_formula(f.lhs, select), compile_formula(f.rhs, select)
        return lambda env: not p(env) or q(env)
    assert isinstance(f, (And, Or))
    parts = tuple(compile_formula(a, select) for a in f.args)
    # a connective returns at the first part that settles it
    settle = not isinstance(f, And)

    def connective(env: Env) -> bool:
        for g in parts:
            if g(env) is settle:
                return settle
        return not settle

    return connective


def eval_term(t: Term, s: Optional[GroundState], sp: Optional[GroundState] = None) -> int:
    """Ground evaluation of a term, as `evaluate` reads variables.  A
    one-shot convenience that compiles `t` on every call; a caller that
    evaluates a term repeatedly should hold a `compile_term` result."""
    return compile_term(t, by_prime)((s, sp))


def evaluate(
    f: Formula, s: Optional[GroundState], sp: Optional[GroundState] = None
) -> bool:
    """Ground evaluation: unprimed variables read from `s`, primed from `sp`,
    by name; a missing or mis-typed value raises `UnboundVariable`.  A
    one-shot convenience that compiles `f` on every call; a caller that
    evaluates a formula repeatedly should hold a `compile_formula` result."""
    return compile_formula(f, by_prime)((s, sp))


_PREC = {"implies": 0, "or": 1, "and": 2, "not": 3}


def render_formula(f: Formula, prec: int = 0) -> str:
    if isinstance(f, BoolLit):
        return "true" if f.value else "false"
    if isinstance(f, BoolRef):
        return str(f.var)
    if isinstance(f, Cmp):
        return f"{f.lhs} {f.op} {f.rhs}"
    if isinstance(f, Implies):
        s = f"{render_formula(f.lhs, 1)} ==> {render_formula(f.rhs, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, Or):
        s = " || ".join(render_formula(a, 2) for a in f.args)
        return f"({s})" if prec > 1 else s
    if isinstance(f, And):
        s = " && ".join(render_formula(a, 3) for a in f.args)
        return f"({s})" if prec > 2 else s
    assert isinstance(f, Not)
    arg = f.arg
    if isinstance(arg, (BoolLit, BoolRef, Not)):
        return f"!{render_formula(arg, 3)}"
    return f"!({render_formula(arg, 0)})"
