"""Conditional trace specifications: guarded choices of plain regexes.

A specification evaluates per state to the union of the options whose
guards hold.  Completion appends an empty-word default so that unannotated
behavior means "no events"; guarded inclusion obligations reduce a
state-dependent inclusion to plain regex inclusions by eager case analysis
over the guards.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from . import regex as rx
from .formula import (
    TRUE,
    Env,
    Formula,
    GroundState,
    Selector,
    Substitution,
    by_prime,
    compile_formula,
    conj,
    disj,
    neg,
    substitute,
)
from .solver import Solver


@dataclass(frozen=True)
class TraceOption:
    regex: rx.Regex
    guard: Formula

    def __str__(self) -> str:
        return f"{rx.render(self.regex)} if {self.guard}"


@dataclass(frozen=True)
class TraceSpec:
    options: tuple[TraceOption, ...] = ()

    def __str__(self) -> str:
        if not self.options:
            return "<no trace>"
        return " | ".join(str(o) for o in self.options)


def spec_of(*options: tuple[rx.Regex, Formula]) -> TraceSpec:
    return TraceSpec(tuple(TraceOption(r, g) for r, g in options))


def plain(r: rx.Regex) -> TraceSpec:
    """A plain regex read as the specification `r if true`."""
    return TraceSpec((TraceOption(r, TRUE),))


def compile_spec(spec: TraceSpec, select: Selector) -> Callable[[Env], rx.Regex]:
    """Compile the guards once, as `compile_formula` does; the result maps
    an environment to the union of the options whose guards hold there."""
    guards = tuple(compile_formula(o.guard, select) for o in spec.options)

    @functools.cache  # one union per combination of guard values
    def union(holds: tuple[bool, ...]) -> rx.Regex:
        return rx.choice(*(o.regex for o, h in zip(spec.options, holds) if h))

    return lambda env: union(tuple(guard(env) for guard in guards))


def eval_at(
    spec: TraceSpec, s: Optional[GroundState], sp: Optional[GroundState] = None
) -> rx.Regex:
    """Evaluate at a ground state: the union of options with a true guard,
    the empty language when none holds.  A one-shot convenience that
    compiles the guards on every call; a caller that evaluates a
    specification repeatedly should hold a `compile_spec` result."""
    return compile_spec(spec, by_prime)((s, sp))


def complete(spec: TraceSpec) -> TraceSpec:
    """Append the empty-word option guarded by the negation of all other
    guards; the empty specification becomes `() if true`."""
    rest = neg(disj(*(o.guard for o in spec.options)))
    return TraceSpec(spec.options + (TraceOption(rx.EPSILON, rest),))


def subst_spec(spec: TraceSpec, pre: Substitution) -> TraceSpec:
    """Substitute `pre` in every guard, as `substitute` does (regexes are
    state-independent)."""
    return TraceSpec(
        tuple(TraceOption(o.regex, substitute(o.guard, pre)) for o in spec.options)
    )


@dataclass(frozen=True)
class InclusionCase:
    """One discharged (or failed) case of a guarded inclusion."""

    context: Formula
    lhs: rx.Regex
    rhs: rx.Regex
    holds: bool
    witness: Optional[rx.Word] = None
    note: Optional[str] = None


def inclusion_obligations(
    context: Formula,
    left: TraceSpec,
    emitted: rx.Regex,
    right: TraceSpec,
    solver: Solver,
) -> list[InclusionCase]:
    """Case-split a guarded inclusion into plain regex inclusion checks.

    For every satisfiable combination of a left option and a right option
    guard, the right-hand side is the union of all right options whose
    guards are entailed by that case; together the returned verdicts
    establish `context ==> (left . emitted ⊑ right)`.  `right` must already
    be completed, so its guards cover every state.  An undecidable case
    guard is conservatively reported as a failure.
    """
    cases: list[InclusionCase] = []
    for lopt in left.options:
        for ropt in right.options:
            ctx = conj(context, lopt.guard, ropt.guard)
            sat = solver.satisfiable(ctx)
            if sat.status == "unsat":
                continue
            if sat.status == "unknown":
                cases.append(
                    InclusionCase(
                        ctx,
                        rx.concat(lopt.regex, emitted),
                        ropt.regex,
                        False,
                        note="cannot decide guard: " + (sat.diagnostic or "unknown"),
                    )
                )
                continue
            entailed = [
                o.regex
                for o in right.options
                if solver.entails(ctx, o.guard).status == "valid"
            ]
            lhs = rx.concat(lopt.regex, emitted)
            rhs = rx.choice(*entailed)
            inc = rx.included(lhs, rhs)
            cases.append(InclusionCase(ctx, lhs, rhs, inc.holds, inc.witness))
    return cases
