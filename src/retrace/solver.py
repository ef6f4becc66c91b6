"""Satisfiability and entailment for the quantifier-free formula fragment.

Two backends share one interface.  Both are sound: a definite sat/unsat
answer is never wrong, and anything undecided is reported as unknown.

The built-in backend is a small DPLL(T) search.  A formula is compiled
once into negation normal form over its atoms, and each conjunct becomes a
clause: the parts of one disjunction, each a literal or an and/or of parts,
evaluated three-valued under the partial assignment.  Unit propagation
assigns a clause's one open part when that part is a literal.  Atoms are
decided in order of first occurrence, true first.  After each propagation,
Fourier-Motzkin elimination with gcd tightening runs on the comparisons
assigned so far, leaving disequalities out, so a conflict between them cuts
the branch at once.  At a leaf the integer part is solved without its
disequalities, by Fourier-Motzkin refutation and a search over the projected
intervals; only a disequality that the model found violates is split into
its two sides.  Every query has a step budget (DPLL decisions,
Fourier-Motzkin combinations and the values the model search tries), and
running out of it gives unknown.

The external backend drives an SMT-LIB v2 solver over a subprocess pipe.
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
    neg,
)

Model = dict[Var, object]


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
    """Interface shared by the built-in and external backends.  Results are
    memoized per instance, and the memo never evicts."""

    def __init__(self) -> None:
        self._memo: dict[Formula, SatResult] = {}

    def satisfiable(self, f: Formula) -> SatResult:
        hit = self._memo.get(f)
        if hit is None:
            hit = self._memo[f] = self._decide(f)
        return hit

    def _decide(self, f: Formula) -> SatResult:
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

# A linear constraint `coeffs . vars <= bound` over the integers.  Inside a
# query the integer variables are numbered in their sorted order.
Coeffs = tuple[tuple[int, int], ...]
Lin = tuple[Coeffs, int]
# A conjunction of constraints, keeping the tightest bound for each
# coefficient vector: a looser parallel bound never decides anything.
Cons = dict[Coeffs, int]

_FALSE: Lin = ((), -1)  # the contradiction 0 <= -1

_WIDE_INTERVAL = 4096
_UNBOUNDED_WINDOW = 33
# Steps one query may take, counting DPLL decisions, Fourier-Motzkin
# combinations and the values the model search tries; a query that runs
# out is unknown.
_STEP_BUDGET = 100_000


class _OutOfSteps(Exception):
    pass


class _Steps:
    """What is left of one query's step budget."""

    __slots__ = ("left",)

    def __init__(self) -> None:
        self.left = _STEP_BUDGET

    def spend(self, n: int) -> None:
        self.left -= n
        if self.left < 0:
            raise _OutOfSteps


def _lin(coeffs: dict[int, int], bound: int) -> Optional[Lin]:
    """Normalize with gcd tightening (valid over the integers): None when
    the constraint always holds, `_FALSE` when it never does."""
    items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    if not items:
        return None if bound >= 0 else _FALSE
    g = math.gcd(*(c for _, c in items))
    if g > 1:
        items = tuple((v, c // g) for v, c in items)
        bound = bound // g  # floor: sound for integer solutions
    return items, bound


def _tighten(cons: Cons, lin: Lin) -> None:
    coeffs, bound = lin
    if bound < cons.get(coeffs, bound + 1):
        cons[coeffs] = bound


def _eliminate(x: int, cons: Cons, steps: _Steps) -> Optional[Cons]:
    """One Fourier-Motzkin step; returns None on contradiction.  Variables
    are eliminated smallest first, so x leads every constraint it is in."""
    pos: list[tuple[int, Lin]] = []
    negs: list[tuple[int, Lin]] = []
    out: Cons = {}
    for lin in cons.items():
        lead, c = lin[0][0]
        if lead != x:
            out[lin[0]] = lin[1]
        elif c > 0:
            pos.append((c, lin))
        else:
            negs.append((-c, lin))
    steps.spend(len(pos) * len(negs))
    for a, (pc, pk) in pos:
        for b, (nc, nk) in negs:
            combined = {v: b * c for v, c in pc[1:]}
            for v, c in nc[1:]:
                combined[v] = combined.get(v, 0) + a * c
            lin = _lin(combined, b * pk + a * nk)
            if lin is _FALSE:
                return None
            if lin is not None:
                _tighten(out, lin)
    return out


def _project(cons: Cons, steps: _Steps) -> Optional[list[tuple[int, Cons]]]:
    """Fourier-Motzkin elimination of every variable, smallest first: the
    stages pair each variable with the constraints it was eliminated from.
    None when a contradiction is derived."""
    if () in cons:  # only _FALSE has no variables
        return None
    stages: list[tuple[int, Cons]] = []
    cur = cons
    for x in sorted({v for coeffs in cons for v, _ in coeffs}):
        stages.append((x, cur))
        nxt = _eliminate(x, cur, steps)
        if nxt is None:
            return None
        cur = nxt
    return stages


def _bounds_for(x: int, cons: Cons, model: dict[int, int]) -> Optional[tuple[Optional[int], Optional[int]]]:
    """Integer bounds on x implied by `cons` once the other variables take
    their model values; None when already contradictory."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    for coeffs, bound in cons.items():
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


def _search_linear(cons: Cons, steps: _Steps) -> tuple[str, Optional[dict[int, int]]]:
    """Decide a conjunction of normalized integer linear inequalities.

    Fourier-Motzkin elimination with gcd tightening refutes; backtracking
    over the projected integer intervals constructs a model.  When an
    interval is unbounded only a finite window is probed, so the answer
    degrades to unknown instead of unsat.
    """
    stages = _project(cons, steps)
    if stages is None:
        return "unsat", None

    incomplete = False

    def assign(i: int, model: dict[int, int]) -> Optional[dict[int, int]]:
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
            steps.spend(1)
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


# A disequality `coeffs . vars != k`, with its two sides `< k` and `> k`.
_Diseq = tuple[tuple[tuple[int, int], ...], int, Lin, Lin]
# What a comparison literal asks of the integers: a conjunction of
# constraints, and a disequality or None.
_Theory = tuple[tuple[Lin, ...], Optional[_Diseq]]

_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">"}


def _kleene(t: object, val: list[Optional[bool]]) -> Optional[bool]:
    """Three-valued evaluation of an NNF node (see `_Query._nnf`) under a
    partial assignment of the atoms."""
    if type(t) is int:
        if t >= 0:
            return val[t]
        v = val[~t]
        return None if v is None else not v
    assert isinstance(t, tuple)
    decisive, parts = t
    out: Optional[bool] = not decisive
    for a in parts:
        r = _kleene(a, val)
        if r is decisive:
            return decisive
        if r is None:
            out = None
    return out


def _parts(t: object, decisive: bool) -> tuple:
    """The parts of NNF node `t` read as a node (decisive, parts): its own
    if it is one, none if it is the constant that cannot settle one, and
    otherwise `t` alone."""
    if type(t) is tuple and t[0] is decisive:
        return t[1]
    return () if t is (not decisive) else (t,)


def _mentioned(t: object, out: set[int]) -> None:
    """Add the atoms of NNF node `t` to `out`."""
    if type(t) is int:
        out.add(t if t >= 0 else ~t)
    else:
        for a in t[1]:  # type: ignore[index]
            _mentioned(a, out)


class _Query:
    """One satisfiability query: DPLL with unit propagation over the clauses
    of the formula's negation normal form, Fourier-Motzkin refutation of the
    comparisons assigned so far, and lazy disequality splits at the leaves.

    Atoms are decided in order of first occurrence, true first, and a leaf
    is a prefix of that order under which the formula is true, so the
    first model found does not depend on what propagation or the theory
    checks prune.
    """

    def __init__(self, f: Formula) -> None:
        self.steps = _Steps()
        self.atoms: list[Formula] = []
        self.index: dict[Formula, int] = {}
        # the formula's conjuncts, each as the parts of a disjunction
        self.clauses = [_parts(c, True) for c in _parts(self._nnf(f, True), False)]
        self.occ: list[list[int]] = [[] for _ in self.atoms]
        for c, parts in enumerate(self.clauses):
            mentioned: set[int] = set()
            for p in parts:
                _mentioned(p, mentioned)
            for i in mentioned:
                self.occ[i].append(c)
        self.ints = sorted({v for a in self.atoms if isinstance(a, Cmp) for v in atom_vars(a)})
        self.ids = {v: n for n, v in enumerate(self.ints)}
        # per comparison atom, its literals' theories by polarity, made on first use
        self.theories: list[Optional[list[Optional[_Theory]]]] = [
            [None, None] if isinstance(a, Cmp) else None for a in self.atoms
        ]
        self.val: list[Optional[bool]] = [None] * len(self.atoms)
        self.trail: list[int] = []
        self.sat = [False] * len(self.clauses)
        self.sat_trail: list[int] = []

    def _atom(self, a: Formula) -> int:
        i = self.index.get(a)
        if i is None:
            i = self.index[a] = len(self.atoms)
            self.atoms.append(a)
        return i

    def _nnf(self, g: Formula, pos: bool) -> object:
        """`g`, negated unless `pos`, in negation normal form over atom
        indices: a literal `i` or `~i`, a bool, or a node (v, parts) that is
        an or when v is True and an and when v is False (v is the value of a
        part that settles the node).  No part is a bool or a node of its own
        kind.  Every atom of `g` is indexed, even where a constant absorbs it."""
        if isinstance(g, (BoolRef, Cmp)):
            i = self._atom(g)
            return i if pos else ~i
        if isinstance(g, BoolLit):
            return g.value == pos
        if isinstance(g, Not):
            return self._nnf(g.arg, not pos)
        if isinstance(g, Implies):
            decisive = pos
            compiled = (self._nnf(g.lhs, not pos), self._nnf(g.rhs, pos))
        else:
            assert isinstance(g, (And, Or))
            decisive = isinstance(g, Or) == pos
            compiled = tuple(self._nnf(a, pos) for a in g.args)
        parts: dict[object, None] = {}
        for p in compiled:
            if p is decisive:
                return p
            parts.update(dict.fromkeys(_parts(p, decisive)))
        if len(parts) == 1:
            return next(iter(parts))
        return (decisive, tuple(parts)) if parts else not decisive

    # -- search -------------------------------------------------------------

    def run(self) -> SatResult:
        try:
            if not all(self.sat[c] or self._settle(c) for c in range(len(self.clauses))):
                return SatResult("unsat")
            if not self._propagate(0):
                return SatResult("unsat")
            status, model = self._search(0, 0)
        except _OutOfSteps:
            return SatResult("unknown", diagnostic=f"step budget of {_STEP_BUDGET} exhausted")
        if status == "unknown":
            return SatResult("unknown", diagnostic="incomplete arithmetic search")
        return SatResult(status, model)

    def _settle(self, c: int) -> bool:
        """Mark clause c satisfied if it is, or assign its one open part
        when that part is a literal; False on a conflict."""
        val = self.val
        free = 0
        for p in self.clauses[c]:
            r = _kleene(p, val)
            if r is None:
                free += 1
                unit = p
            elif r:
                break
        else:
            if free != 1 or type(unit) is not int:
                return free > 0
            i = unit if unit >= 0 else ~unit
            val[i] = unit >= 0
            self.trail.append(i)
        self.sat[c] = True
        self.sat_trail.append(c)
        return True

    def _propagate(self, q: int) -> bool:
        """Unit propagation from trail position q; False on a conflict."""
        trail, sat = self.trail, self.sat
        while q < len(trail):
            for c in self.occ[trail[q]]:
                if not sat[c] and not self._settle(c):
                    return False
            q += 1
        return True

    def _search(self, nxt: int, checked: int) -> tuple[str, Optional[Model]]:
        """Search below the current assignment, whose atoms before `nxt` are
        assigned and whose comparisons up to trail position `checked`
        passed a theory check."""
        val = self.val
        while nxt < len(val) and val[nxt] is not None:
            nxt += 1
        if len(self.sat_trail) == len(self.clauses) and nxt == len(self.trail):
            return self._leaf()
        if self._refuted(checked):
            return "unsat", None
        checked = len(self.trail)
        unknown = False
        for value in (True, False):
            self.steps.spend(1)
            trail_mark, sat_mark = len(self.trail), len(self.sat_trail)
            val[nxt] = value
            self.trail.append(nxt)
            if self._propagate(trail_mark):
                status, model = self._search(nxt + 1, checked)
                if status == "sat":
                    return status, model
                unknown = unknown or status == "unknown"
            for i in self.trail[trail_mark:]:
                val[i] = None
            del self.trail[trail_mark:]
            for c in self.sat_trail[sat_mark:]:
                self.sat[c] = False
            del self.sat_trail[sat_mark:]
        return ("unknown" if unknown else "unsat"), None

    def _theory(self, i: int) -> Optional[_Theory]:
        """What the assigned literal of atom i asks of the integers; None
        for a boolean variable."""
        by_value = self.theories[i]
        if by_value is None:
            return None
        value = self.val[i]
        assert value is not None
        th = by_value[value]
        if th is None:
            th = by_value[value] = _theory_of(self.atoms[i], value, self.ids)  # type: ignore[arg-type]
        return th

    def _constraints(self, assigned: Iterable[int]) -> tuple[Cons, list[_Diseq]]:
        """What the literals of the `assigned` atoms ask of the integers."""
        cons: Cons = {}
        diseqs: list[_Diseq] = []
        for i in assigned:
            th = self._theory(i)
            if th is None:
                continue
            lins, diseq = th
            for lin in lins:
                _tighten(cons, lin)
            if diseq is not None:
                diseqs.append(diseq)
        return cons, diseqs

    def _refuted(self, checked: int) -> bool:
        """Fourier-Motzkin refutes the comparisons assigned so far, leaving
        disequalities out; only tried when one was assigned after `checked`."""
        if not any((th := self._theory(i)) and th[0] for i in self.trail[checked:]):
            return False
        return _project(self._constraints(self.trail)[0], self.steps) is None

    def _leaf(self) -> tuple[str, Optional[Model]]:
        """The theory check of a leaf, whose assigned atoms are a prefix,
        and its model of every variable of the query: a boolean past the
        prefix is false, and an integer no assigned comparison constrains
        is 0."""
        status, intmodel = self._split(*self._constraints(range(len(self.trail))))
        if status != "sat":
            return status, None
        assert intmodel is not None
        model: Model = {a.var: self.val[i] is True for i, a in enumerate(self.atoms) if isinstance(a, BoolRef)}
        model.update((v, intmodel.get(n, 0)) for n, v in enumerate(self.ints))
        return "sat", model

    def _split(self, cons: Cons, diseqs: list[_Diseq]) -> tuple[str, Optional[dict[int, int]]]:
        """Decide `cons` and `diseqs` by solving `cons` alone and splitting
        only on a disequality its model violates, or, when `cons` is
        undecided, on the first one."""
        status, model = _search_linear(cons, self.steps)
        if status == "sat":
            assert model is not None
            d = next((d for d in diseqs if sum(c * model.get(v, 0) for v, c in d[0]) == d[1]), None)
            if d is None:
                return status, model
        elif status == "unsat" or not diseqs:
            return status, None
        else:
            d = diseqs[0]
        rest = [e for e in diseqs if e is not d]
        unknown = False
        for side in d[2:]:
            branch = dict(cons)
            _tighten(branch, side)
            status, model = self._split(branch, rest)
            if status == "sat":
                return status, model
            unknown = unknown or status == "unknown"
        return ("unknown" if unknown else "unsat"), None


def _theory_of(atom: Cmp, value: bool, ids: dict[Var, int]) -> _Theory:
    """What the literal `atom` (negated unless `value`) asks of the integers."""
    diff: dict[int, int] = {}
    for v, c in atom.lhs.coeffs:
        diff[ids[v]] = c
    for v, c in atom.rhs.coeffs:
        diff[ids[v]] = diff.get(ids[v], 0) - c
    k = atom.rhs.const - atom.lhs.const  # the literal compares diff . vars with k
    flipped = {v: -c for v, c in diff.items()}
    op = atom.op if value else _NEGATED[atom.op]
    if op == "!=":
        lt, gt = _lin(diff, k - 1), _lin(flipped, -k - 1)
        if lt is None or gt is None:  # no variables left, and 0 != k
            return (), None
        if lt is _FALSE or gt is _FALSE:  # no variables left, and 0 == k
            return (_FALSE,), None
        return (), (tuple(sorted((v, c) for v, c in diff.items() if c)), k, lt, gt)
    parts = {
        "==": (_lin(diff, k), _lin(flipped, -k)),
        "<": (_lin(diff, k - 1),),
        "<=": (_lin(diff, k),),
        ">": (_lin(flipped, -k - 1),),
        ">=": (_lin(flipped, -k),),
    }[op]
    return tuple(p for p in parts if p is not None), None


class BuiltinSolver(Solver):
    """Self-contained decision procedure for booleans plus linear integer
    arithmetic."""

    def _decide(self, f: Formula) -> SatResult:
        return _Query(f).run()


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
        super().__init__()
        self.command = shlex.split(command)
        if not self.command:
            raise ValueError("empty solver command")
        self.timeout = timeout

    def _decide(self, f: Formula) -> SatResult:
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
            return SatResult("unknown", diagnostic=f"solver crash: {exc}")
        if proc.returncode != 0 and not proc.stdout.strip():
            return SatResult(
                "unknown", diagnostic=f"solver crash: exit {proc.returncode}: {proc.stderr.strip()[:200]}"
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
