"""Quantifier-free formulas over typed program variables.

Atoms are boolean variables and comparisons between linear integer terms.
Variables carry a prime level (0 or 1) so that formulas can describe
transition relations between a pre- and a post-state.

Terms and formula nodes are interned (Filliâtre & Conchon's hash-consing),
so equal nodes are one object and compare and hash by identity.
"""

from __future__ import annotations

import operator
from functools import total_ordering
from typing import Any, Iterable, Mapping, Optional, Union

from .record import Frozen, set_field

Value = Union[bool, int]
GroundState = Mapping[str, Value]


class FormulaError(Exception):
    pass


class UnboundVariable(FormulaError):
    """Raised when evaluation or substitution misses a required variable."""


@total_ordering
class Var(Frozen):
    """A variable, equal to and ordered as its `(name, primed)`; it hashes
    once, when built, because every interned term's key hashes it."""

    __slots__ = ("name", "primed", "_hash")

    def __init__(self, name: str, primed: bool = False) -> None:
        set_field(self, "name", name)
        set_field(self, "primed", primed)
        set_field(self, "_hash", hash((name, primed)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name and self.primed == other.primed

    def __lt__(self, other: Var) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return (self.name, self.primed) < (other.name, other.primed)

    def __repr__(self) -> str:
        return f"Var(name={self.name!r}, primed={self.primed!r})"

    def __str__(self) -> str:
        return self.name + "'" if self.primed else self.name


_interned: dict[tuple, Any] = {}


class _Interned(type):
    """Metaclass of the interned nodes, kept for the life of the process in
    one table keyed by class and positional fields: a call with an earlier
    call's fields returns its node."""

    def __call__(cls, *fields: Any) -> Any:
        key = (cls, *fields)
        node = _interned.get(key)
        if node is None:
            node = _interned[key] = super().__call__(*fields)
        return node


class Term(Frozen, metaclass=_Interned):
    """Linear integer term: `const` plus a sum of coefficient * variable,
    with coefficients nonzero and variables sorted."""

    __slots__ = ("coeffs", "const")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, coeffs: tuple[tuple[Var, int], ...], const: int) -> None:
        set_field(self, "coeffs", coeffs)
        set_field(self, "const", const)

    def __add__(self, other: "Term") -> "Term":
        return term_sum((self, other))

    def __sub__(self, other: "Term") -> "Term":
        return self + other.scaled(-1)

    def __neg__(self) -> "Term":
        return self.scaled(-1)

    def scaled(self, k: int) -> "Term":
        if k == 0:
            return Term((), 0)
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
    return _term(base, const)


def _term(base: dict[Var, int], const: int) -> Term:
    return Term(tuple(sorted((v, c) for v, c in base.items() if c != 0)), const)


def tvar(name: str, primed: bool = False) -> Term:
    return Term(((Var(name, primed), 1),), 0)


def tconst(n: int) -> Term:
    return Term((), n)


class Formula(Frozen, metaclass=_Interned):
    """Base class; all nodes are interned, so they compare and hash by
    identity."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

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


class BoolLit(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        set_field(self, "value", value)


class BoolRef(Formula):
    __slots__ = ("var",)

    def __init__(self, var: Var) -> None:
        set_field(self, "var", var)


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le}


class Cmp(Formula):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Term, rhs: Term) -> None:
        if op not in _COMPARE:
            raise ValueError(f"bad comparison operator {op!r}")
        set_field(self, "op", op)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula) -> None:
        set_field(self, "arg", arg)


class And(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Formula, ...]) -> None:
        set_field(self, "args", args)


class Or(Formula):
    __slots__ = ("args",)

    def __init__(self, args: tuple[Formula, ...]) -> None:
        set_field(self, "args", args)


class Implies(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula) -> None:
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def boolref(name: str, primed: bool = False) -> Formula:
    return BoolRef(Var(name, primed))


def cmp(op: str, lhs: Term, rhs: Term) -> Formula:
    """Comparison atom; constant-folds when both sides are constants."""
    if lhs.is_const() and rhs.is_const():
        return TRUE if _COMPARE[op](lhs.const, rhs.const) else FALSE
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
    _walk_atoms(f, seen)
    return tuple(seen)


def _walk_atoms(g: Formula, seen: dict[Formula, None]) -> None:
    if isinstance(g, (BoolRef, Cmp)):
        seen.setdefault(g)
    elif isinstance(g, Not):
        _walk_atoms(g.arg, seen)
    elif isinstance(g, (And, Or)):
        for a in g.args:
            _walk_atoms(a, seen)
    elif isinstance(g, Implies):
        _walk_atoms(g.lhs, seen)
        _walk_atoms(g.rhs, seen)


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
        base: dict[Var, int] = {}
        const = f.const
        for v, c in f.coeffs:
            repl = _binding(v, pre, post)
            if repl is None:
                base[v] = base.get(v, 0) + c
            elif isinstance(repl, Term):
                const += c * repl.const
                for w, d in repl.coeffs:
                    base[w] = base.get(w, 0) + c * d
            else:
                raise UnboundVariable(f"integer variable {v} bound to {repl!r}")
        return _term(base, const)
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


def typed(label: Union[str, Var], boolean: bool, value: Any) -> Value:
    """`value`, read as `label` of the given type: a missing value (None) or
    a value of the other type raises `UnboundVariable`."""
    if value is None:
        raise UnboundVariable(f"no value for {label}")
    if (value is True or value is False) is not boolean:
        held, wanted = ("an integer", "a boolean") if boolean else ("a boolean", "an integer")
        raise UnboundVariable(f"{label} holds {held}, expected {wanted}")
    return value


def eval_term(t: Term, s: Optional[GroundState], sp: Optional[GroundState] = None) -> int:
    """Ground evaluation of a term, reading variables as `evaluate` does."""
    total = t.const
    for v, c in t.coeffs:
        total += c * typed(v, False, _binding(v, s, sp))
    return total


def evaluate(
    f: Formula, s: Optional[GroundState], sp: Optional[GroundState] = None
) -> bool:
    """Ground evaluation: unprimed variables read from `s`, primed from `sp`,
    by name; a missing or mis-typed value raises `UnboundVariable`.
    Connectives short-circuit left to right, and operands are read in
    order."""
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, BoolRef):
        return typed(f.var, True, _binding(f.var, s, sp))
    if isinstance(f, Cmp):
        return _COMPARE[f.op](eval_term(f.lhs, s, sp), eval_term(f.rhs, s, sp))
    if isinstance(f, Not):
        return not evaluate(f.arg, s, sp)
    if isinstance(f, And):
        return all(evaluate(a, s, sp) for a in f.args)
    if isinstance(f, Or):
        return any(evaluate(a, s, sp) for a in f.args)
    assert isinstance(f, Implies)
    return not evaluate(f.lhs, s, sp) or evaluate(f.rhs, s, sp)


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
