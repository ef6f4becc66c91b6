"""Satisfiability and entailment for the quantifier-free formula fragment.

Two backends share one interface: a built-in decision procedure
(propositional search over the atoms with Fourier-Motzkin elimination and
integer bound tightening on the arithmetic part) and an external SMT-LIB v2
solver driven over a subprocess pipe.  Both are sound: a definite sat/unsat
answer is never wrong, and anything undecided is reported as unknown.
"""

from __future__ import annotations

import math
import shlex
import subprocess
from dataclasses import dataclass
from typing import Iterable, Optional

from .formula import (
    And,
    BoolLit,
    BoolRef,
    Cmp,
    Formula,
    Implies,
    Not,
    Or,
    Term,
    Var,
    atom_vars,
    atoms,
    conj,
    free_vars,
    neg,
)

Model = dict[Var, object]


class SolverCrash(Exception):
    """External solver subprocess failed; surfaced to callers as unknown."""


@dataclass(frozen=True)
class SatResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[Model] = None
    diagnostic: Optional[str] = None


@dataclass(frozen=True)
class EntailResult:
    status: str  # "valid" | "invalid" | "unknown"
    model: Optional[Model] = None
    diagnostic: Optional[str] = None


class Solver:
    """Interface shared by the built-in and external backends."""

    def satisfiable(self, f: Formula) -> SatResult:
        raise NotImplementedError

    def entails(self, p: Formula, q: Formula) -> EntailResult:
        r = self.satisfiable(conj(p, neg(q)))
        if r.status == "unsat":
            return EntailResult("valid")
        if r.status == "sat":
            return EntailResult("invalid", r.model)
        return EntailResult("unknown", diagnostic=r.diagnostic)


# ---------------------------------------------------------------------------
# Built-in backend
# ---------------------------------------------------------------------------

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


class BuiltinSolver(Solver):
    """Self-contained decision procedure for booleans plus linear integer
    arithmetic.  Results are memoized per instance."""

    def __init__(self) -> None:
        self._memo: dict[Formula, SatResult] = {}

    def satisfiable(self, f: Formula) -> SatResult:
        hit = self._memo.get(f)
        if hit is None:
            hit = self._solve(f)
            self._memo[f] = hit
        return hit

    def _solve(self, f: Formula) -> SatResult:
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


# ---------------------------------------------------------------------------
# External SMT-LIB backend
# ---------------------------------------------------------------------------


def _smt_name(v: Var) -> str:
    return f"|{v.name}'|" if v.primed else f"|{v.name}|"


def _smt_term(t: Term) -> str:
    parts = [str(t.const)] if t.const != 0 or not t.coeffs else []
    for v, c in t.coeffs:
        parts.append(_smt_name(v) if c == 1 else f"(* {c} {_smt_name(v)})")
    if not parts:
        return "0"
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def _smt_formula(f: Formula) -> str:
    if isinstance(f, BoolLit):
        return "true" if f.value else "false"
    if isinstance(f, BoolRef):
        return _smt_name(f.var)
    if isinstance(f, Cmp):
        a, b = _smt_term(f.lhs), _smt_term(f.rhs)
        if f.op == "==":
            return f"(= {a} {b})"
        if f.op == "!=":
            return f"(not (= {a} {b}))"
        return f"({f.op} {a} {b})"
    if isinstance(f, Not):
        return f"(not {_smt_formula(f.arg)})"
    if isinstance(f, And):
        return "(and " + " ".join(_smt_formula(a) for a in f.args) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(_smt_formula(a) for a in f.args) + ")"
    assert isinstance(f, Implies)
    return f"(=> {_smt_formula(f.lhs)} {_smt_formula(f.rhs)})"


def to_smtlib(f: Formula) -> str:
    """Render a formula as a self-contained SMT-LIB v2 check-sat script."""
    sorts: dict[Var, str] = {}
    for a in atoms(f):
        for v in atom_vars(a):
            sorts[v] = "Bool" if isinstance(a, BoolRef) else "Int"
    lines = ["(set-logic QF_LIA)"]
    for v in sorted(sorts):
        lines.append(f"(declare-const {_smt_name(v)} {sorts[v]})")
    lines.append(f"(assert {_smt_formula(f)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


class SmtLibSolver(Solver):
    """Drives an external SMT-LIB v2 solver subprocess over stdin/stdout.

    Accepted responses are exactly the first token of the first line:
    sat, unsat, or unknown.  Any subprocess failure is reported as unknown
    with a diagnostic rather than raised.
    """

    def __init__(self, command: str, timeout: float = 30.0) -> None:
        self.command = shlex.split(command)
        if not self.command:
            raise ValueError("empty solver command")
        self.timeout = timeout
        self._memo: dict[Formula, SatResult] = {}

    def satisfiable(self, f: Formula) -> SatResult:
        hit = self._memo.get(f)
        if hit is None:
            try:
                hit = self._run(f)
            except SolverCrash as exc:
                hit = SatResult("unknown", diagnostic=str(exc))
            self._memo[f] = hit
        return hit

    def _run(self, f: Formula) -> SatResult:
        script = to_smtlib(f)
        try:
            proc = subprocess.run(
                self.command,
                input=script,
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise SolverCrash(f"solver crash: {exc}") from exc
        if proc.returncode != 0 and not proc.stdout.strip():
            raise SolverCrash(
                f"solver crash: exit {proc.returncode}: {proc.stderr.strip()[:200]}"
            )
        for line in proc.stdout.splitlines():
            tok = line.strip().split()
            if not tok:
                continue
            if tok[0] == "sat":
                return SatResult("sat")
            if tok[0] == "unsat":
                return SatResult("unsat")
            if tok[0] == "unknown":
                return SatResult("unknown", diagnostic="solver answered unknown")
            break
        return SatResult("unknown", diagnostic=f"unrecognized solver output: {proc.stdout[:200]!r}")


def make_solver(spec: Optional[str]) -> Solver:
    """`None` or "internal" selects the built-in backend; anything else is
    an external solver command line."""
    if spec is None or spec == "internal":
        return BuiltinSolver()
    return SmtLibSolver(spec)
