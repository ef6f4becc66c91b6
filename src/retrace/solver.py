"""Satisfiability and entailment for the quantifier-free formula fragment.

Two backends share one interface.  Both are sound: a definite sat/unsat
answer is never wrong, and anything undecided is reported as unknown.

The built-in backend is a small DPLL(T) search.  A formula is compiled
into negation normal form over its atoms, and each conjunct becomes a
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

Built-in solvers reuse work across queries, as an incremental DPLL(T)
with push and pop does.  The verifier's queries share conjunct prefixes (a
path condition, then the path and a branch test), so all built-in solvers
of a process share one trie of queries per step budget, keyed by top-level
conjuncts, whose nodes keep their prefix's answer and a model of it once
known.  A query enters only the conjuncts past the longest prefix the trie
holds and searches, on a fresh budget, from that prefix's propagated state,
to which the trie's one live context moves by popping back to the common
ancestor and entering the conjuncts down.  Atoms are the interned
comparison and boolean-variable nodes; conjuncts are compiled, and literals
turned into linear constraints, once per process.  Every answer and model
is the one that compiling the whole formula afresh gives: the atoms keep
the query's order of first occurrence, the clauses their deduplication, and
propagation reaches the same assignment whatever order it runs in, so an
answer is a function of the formula and the step budget.  `feasible`,
which only tells unsat apart, first checks a model kept from an earlier
query against the clauses added since.

The external backend drives an SMT-LIB v2 solver over a subprocess pipe.
"""

from __future__ import annotations

import functools
import math
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
from .record import Frozen, set_field

Model = dict[Var, object]


class SatResult(Frozen):
    __slots__ = ("status", "model", "diagnostic")

    def __init__(self, status: str, model: Optional[Model] = None, diagnostic: Optional[str] = None) -> None:
        set_field(self, "status", status)  # "sat" | "unsat" | "unknown"
        set_field(self, "model", model)
        set_field(self, "diagnostic", diagnostic)


class EntailResult(Frozen):
    __slots__ = ("status", "model", "diagnostic")

    def __init__(self, status: str, model: Optional[Model] = None, diagnostic: Optional[str] = None) -> None:
        set_field(self, "status", status)  # "valid" | "invalid" | "unknown"
        set_field(self, "model", model)
        set_field(self, "diagnostic", diagnostic)


class Solver:
    """Interface shared by the built-in and external backends: both answer
    whole formulas, and an entailment is one satisfiability query.  Both
    answer a repeated query from what they kept of the first: the built-in
    backend from the trie every built-in solver of the process shares, the
    external one from its own memo.  Neither evicts."""

    def satisfiable(self, f: Formula) -> SatResult:
        raise NotImplementedError

    def feasible(self, f: Formula) -> bool:
        """Whether `f` may be satisfiable: False only for a definite unsat."""
        return self.satisfiable(f).status != "unsat"

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

# A linear constraint `coeffs . vars <= bound` over the integers.  A variable
# is keyed by its name and prime, which sort as the variables do.
_Key = tuple[str, bool]
Coeffs = tuple[tuple[_Key, int], ...]
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
_UNSAT = SatResult("unsat")  # the answer of a query through a refuted prefix


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


def _lin(coeffs: dict[_Key, int], bound: int) -> Optional[Lin]:
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


def _eliminate(x: _Key, cons: Cons, steps: _Steps) -> Optional[Cons]:
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


def _project(cons: Cons, steps: _Steps) -> Optional[list[tuple[_Key, Cons]]]:
    """Fourier-Motzkin elimination of every variable, smallest first: the
    stages pair each variable with the constraints it was eliminated from.
    None when a contradiction is derived."""
    if () in cons:  # only _FALSE has no variables
        return None
    stages: list[tuple[_Key, Cons]] = []
    cur = cons
    for x in sorted({v for coeffs in cons for v, _ in coeffs}):
        stages.append((x, cur))
        nxt = _eliminate(x, cur, steps)
        if nxt is None:
            return None
        cur = nxt
    return stages


def _bounds_for(x: _Key, cons: Cons, model: dict[_Key, int]) -> Optional[tuple[Optional[int], Optional[int]]]:
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


def _search_linear(cons: Cons, steps: _Steps) -> tuple[str, Optional[dict[_Key, int]]]:
    """Decide a conjunction of normalized integer linear inequalities.

    Fourier-Motzkin elimination with gcd tightening refutes; backtracking
    over the projected integer intervals constructs a model.  When an
    interval is unbounded only a finite window is probed, so the answer
    degrades to unknown instead of unsat.
    """
    stages = _project(cons, steps)
    if stages is None:
        return "unsat", None
    model, incomplete = _assign(stages, len(stages) - 1, {}, steps)
    if model is not None:
        return "sat", model
    return ("unknown", None) if incomplete else ("unsat", None)


def _assign(stages: list[tuple[_Key, Cons]], i: int, model: dict[_Key, int],
            steps: _Steps) -> tuple[Optional[dict[_Key, int]], bool]:
    """`model` extended to the variables of stages i down to 0, trying each
    variable's candidates in order, or None; and whether some interval on
    the way was only probed in a window."""
    if i < 0:
        return model, False
    x, cons_i = stages[i]
    b = _bounds_for(x, cons_i, model)
    if b is None:
        return None, False
    lo, hi = b
    incomplete = True
    if lo is not None and hi is not None:
        if lo > hi:
            return None, False
        if hi - lo + 1 > _WIDE_INTERVAL:
            candidates: Iterable[int] = list(range(lo, lo + _UNBOUNDED_WINDOW)) + list(
                range(hi - _UNBOUNDED_WINDOW + 1, hi + 1)
            )
        else:
            incomplete = False
            candidates = range(lo, hi + 1)
    elif lo is not None:
        candidates = range(lo, lo + _UNBOUNDED_WINDOW)
    elif hi is not None:
        candidates = range(hi - _UNBOUNDED_WINDOW + 1, hi + 1)
    else:
        candidates = range(-_UNBOUNDED_WINDOW // 2, _UNBOUNDED_WINDOW // 2 + 1)
    for val in candidates:
        steps.spend(1)
        model[x] = val
        got, deeper = _assign(stages, i - 1, model, steps)
        if got is not None:
            return got, incomplete
        incomplete = incomplete or deeper
        del model[x]
    return None, incomplete


# A disequality `coeffs . vars != k`, with its two sides `< k` and `> k`.
_Diseq = tuple[Coeffs, int, Lin, Lin]
# What a comparison literal asks of the integers: a conjunction of
# constraints, and a disequality or None.
_Theory = tuple[tuple[Lin, ...], Optional[_Diseq]]

_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">"}


def _kleene(t: object, val: dict[Formula, Optional[bool]]) -> Optional[bool]:
    """Three-valued evaluation of an NNF node (see `_nnf`) under a partial
    assignment of the atoms."""
    if type(t) is Not:
        v = val[t.arg]
        return None if v is None else not v
    if type(t) is not tuple:
        return val[t]  # type: ignore[index]
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


def _mentioned(parts: tuple, out: dict[Formula, None]) -> dict[Formula, None]:
    """`out` with the atoms of NNF nodes `parts` added."""
    for t in parts:
        if type(t) is tuple:
            _mentioned(t[1], out)
        else:
            out[t.arg if type(t) is Not else t] = None  # type: ignore[attr-defined]
    return out


def _nnf(g: Formula, pos: bool) -> object:
    """`g`, negated unless `pos`, in negation normal form: a literal (an atom
    or its `neg`), a bool, or a node (v, parts) that is an or when v is True
    and an and when v is False (v is the value of a part that settles the
    node).  No part is a bool or a node of its own kind."""
    if isinstance(g, (BoolRef, Cmp)):
        return g if pos else neg(g)
    if isinstance(g, BoolLit):
        return g.value == pos
    if isinstance(g, Not):
        return _nnf(g.arg, not pos)
    if isinstance(g, Implies):
        decisive = pos
        compiled = (_nnf(g.lhs, not pos), _nnf(g.rhs, pos))
    else:
        assert isinstance(g, (And, Or))
        decisive = isinstance(g, Or) == pos
        compiled = tuple(_nnf(a, pos) for a in g.args)
    parts: dict[object, None] = {}
    for p in compiled:
        if p is decisive:
            return p
        parts.update(dict.fromkeys(_parts(p, decisive)))
    if len(parts) == 1:
        return next(iter(parts))
    return (decisive, tuple(parts)) if parts else not decisive


@functools.cache
def _compiled(conjunct: Formula) -> tuple[tuple[Formula, ...], dict[tuple, tuple[Formula, ...]]]:
    """An interned conjunct compiled, once per process: its atoms in order
    of first occurrence, even where a constant absorbs them, and a dict,
    shared and never changed, from its clauses, each the parts of one
    disjunction of its NNF, to the atoms each mentions.  A clause is its NNF
    part's disjuncts, which tell parts apart, so leaving out those a context
    already holds is the deduplication of the whole formula's NNF."""
    clauses = (_parts(p, True) for p in _parts(_nnf(conjunct, True), False))
    return atoms(conjunct), {clause: tuple(_mentioned(clause, {})) for clause in clauses}


def _holds(atom: Formula, witness: dict) -> bool:
    """The atom's value under `witness` (see `_Query.satisfies`)."""
    if type(atom) is BoolRef:
        return witness.get(atom.var, False)
    lins, diseq = _theory_of(atom, True)  # type: ignore[arg-type]
    return all(_dot(coeffs, witness) <= bound for coeffs, bound in lins) and (
        diseq is None or _dot(diseq[0], witness) != diseq[1])


def _dot(coeffs: Coeffs, values: dict) -> int:
    return sum(c * values.get(v, 0) for v, c in coeffs)


class _Prefix:
    """A node of a trie of queries keyed by top-level conjuncts: the
    conjunction of the conjuncts on the way from the root, compiled and
    unit-propagated.  It keeps only its own conjunct, which the live context
    enters to move from the parent's state to the node's; `size` counts the
    atoms, clauses, trail and satisfied clauses from the root.  A refuted
    prefix, one that propagation found contradictory, answers unsat to every
    query through it.  `result` is the prefix's answer once searched for,
    and `witness`, if any, satisfies the prefix; the root's is empty.  A
    node has no link to its parent, so the trie holds no reference cycle: a
    path of nodes from the root stands for the node at its end."""

    __slots__ = ("conjunct", "children", "size", "result", "witness", "refuted")

    def __init__(self, conjunct: Optional[Formula], witness: Optional[dict] = None) -> None:
        self.conjunct = conjunct
        self.children: dict[Formula, _Prefix] = {}
        self.size = (0, 0, 0, 0)
        self.result: Optional[SatResult] = None
        self.witness = witness
        self.refuted = False


class _Query:
    """A trie's one live context, the compiled and propagated state of the
    trie node at the end of `path`, and a search below it: DPLL with unit
    propagation over the clauses of the formula's negation normal form,
    Fourier-Motzkin refutation of the comparisons assigned so far, and lazy
    disequality splits at the leaves.  `goto` and `push` move it at the cost
    of the distance moved.  Its atoms are interned formula nodes, and a
    negative literal is an atom's `neg`.  Atoms are decided in the query's
    order of first occurrence, kept in `atoms`, true first, and a leaf is a
    prefix of that order under which the formula is true, so the first model
    found does not depend on what propagation or the theory checks prune.
    """

    def __init__(self, root: _Prefix) -> None:
        self.path = [root]
        self.atoms: list[Formula] = []
        # the formula's conjuncts, each as the parts of a disjunction
        self.clauses: list[tuple] = []
        self.seen: set[tuple] = set()
        self.mentions: list[tuple[Formula, ...]] = []
        self.occ: dict[Formula, list[int]] = {}
        self.val: dict[Formula, Optional[bool]] = {}
        self.trail: list[Formula] = []
        self.sat: list[bool] = []
        self.sat_trail: list[int] = []
        self.witness: dict = {}  # the last leaf's model, integers by key

    def goto(self, path: list[_Prefix]) -> None:
        """Make the state that of the node at the end of `path`, a path from
        the root: pop to the longest prefix it shares with the current path,
        then enter the conjuncts below it again."""
        here = self.path
        k = min(len(here), len(path))
        while here[k - 1] is not path[k - 1]:  # paths from one root agree up to where they part
            k -= 1
        if k < len(here):
            self._pop(*here[k - 1].size)
            del here[k:]
        for n in path[k:]:
            self._enter(n.conjunct, here[-1].size)  # type: ignore[arg-type]
            here.append(n)

    def _pop(self, na: int, nc: int, nt: int, ns: int) -> None:
        """Truncate the state to the given sizes, those of an ancestor."""
        self._undo(nt, ns)
        for atom in self.atoms[na:]:
            del self.val[atom], self.occ[atom]
        del self.atoms[na:]
        for c in range(nc, len(self.clauses)):
            self.seen.remove(self.clauses[c])
            for atom in self.mentions[c]:
                if atom in self.occ:  # an older atom: clause c is the last that mentions it
                    self.occ[atom].pop()
        del self.clauses[nc:], self.mentions[nc:], self.sat[nc:]

    def _undo(self, nt: int, ns: int) -> None:
        """Unassign the trail past `nt` and unmark the clauses satisfied past `ns`."""
        for atom in self.trail[nt:]:
            self.val[atom] = None
        del self.trail[nt:]
        for c in self.sat_trail[ns:]:
            self.sat[c] = False
        del self.sat_trail[ns:]

    def _enter(self, conjunct: Formula, size: tuple[int, int, int, int]) -> bool:
        """Extend the current state, of size `size`, with the atoms and
        clauses of `conjunct` that it lacks, and propagate.  True unless
        propagation meets a conflict; on a conflict or an exception the
        state is popped back to `size`."""
        _, nc, nt, _ = size
        entered = False
        try:
            found, clauses = _compiled(conjunct)
            new = [atom for atom in found if atom not in self.val]
            self.atoms += new
            self.val.update(dict.fromkeys(new))
            self.occ.update((atom, []) for atom in new)
            for clause, mentioned in clauses.items():
                if clause not in self.seen:
                    for atom in mentioned:
                        self.occ[atom].append(len(self.clauses))
                    self.clauses.append(clause)
                    self.seen.add(clause)
                    self.mentions.append(mentioned)
                    self.sat.append(False)
            entered = all(self._settle(c) for c in range(nc, len(self.clauses))) and self._propagate(nt)
        finally:
            if not entered:
                self._pop(*size)
        return entered

    def push(self, conjunct: Formula) -> _Prefix:
        """Enter `conjunct` below the current node and record it as the
        node's child, which becomes the current node unless propagation
        refutes it."""
        parent = self.path[-1]
        node = _Prefix(conjunct)
        if self._enter(conjunct, parent.size):
            node.size = len(self.atoms), len(self.clauses), len(self.trail), len(self.sat_trail)
            self.path.append(node)
        else:
            node.refuted = True
            node.result = _UNSAT
        parent.children[conjunct] = node
        return node

    def satisfies(self, witness: dict, nc: int) -> bool:
        """Whether clauses nc onward hold under `witness`, a total assignment
        of integers by key and booleans by variable, absent ones 0 or false."""
        val: dict[Formula, Optional[bool]] = {}
        for c in range(nc, len(self.clauses)):
            val.update((atom, _holds(atom, witness)) for atom in self.mentions[c] if atom not in val)
            if not any(_kleene(p, val) for p in self.clauses[c]):
                return False
        return True

    # -- search -------------------------------------------------------------

    def run(self) -> SatResult:
        """Search below the current node's propagated state, on a fresh
        budget, and restore that state."""
        self.steps = _Steps()
        try:
            status, model = self._search(0, 0)
        except _OutOfSteps:
            return SatResult("unknown", diagnostic=f"step budget of {_STEP_BUDGET} exhausted")
        finally:
            self._undo(*self.path[-1].size[2:])
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
            if free != 1 or type(unit) is tuple:
                return free > 0
            atom, value = (unit.arg, False) if type(unit) is Not else (unit, True)
            val[atom] = value
            self.trail.append(atom)
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
        """Search below the current assignment, whose atoms before position
        `nxt` are assigned and whose comparisons up to trail position
        `checked` passed a theory check."""
        val, atoms = self.val, self.atoms
        while nxt < len(atoms) and val[atoms[nxt]] is not None:
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
            val[atoms[nxt]] = value
            self.trail.append(atoms[nxt])
            if self._propagate(trail_mark):
                status, model = self._search(nxt + 1, checked)
                if status == "sat":
                    return status, model
                unknown = unknown or status == "unknown"
            self._undo(trail_mark, sat_mark)
        return ("unknown" if unknown else "unsat"), None

    def _theory(self, atom: Formula) -> Optional[_Theory]:
        """What the assigned literal of `atom` asks of the integers; None
        for a boolean variable."""
        return None if type(atom) is BoolRef else _theory_of(atom, self.val[atom])  # type: ignore[arg-type]

    def _constraints(self, assigned: Iterable[Formula]) -> tuple[Cons, list[_Diseq]]:
        """What the literals of the `assigned` atoms ask of the integers."""
        cons: Cons = {}
        diseqs: list[_Diseq] = []
        for atom in assigned:
            th = self._theory(atom)
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
        if not any((th := self._theory(atom)) and th[0] for atom in self.trail[checked:]):
            return False
        return _project(self._constraints(self.trail)[0], self.steps) is None

    def _leaf(self) -> tuple[str, Optional[Model]]:
        """The theory check of a leaf, whose assigned atoms are a prefix,
        and its model of every variable of the query: a boolean past the
        prefix is false, and an integer no assigned comparison constrains
        is 0.  The model is kept as `witness` too."""
        status, intmodel = self._split(*self._constraints(self.atoms[:len(self.trail)]))
        if status != "sat":
            return status, None
        assert intmodel is not None
        model: Model = {}
        ints: dict[_Key, Var] = {}
        self.witness = dict(intmodel)
        for atom in self.atoms:
            if type(atom) is BoolRef:
                model[atom.var] = self.witness[atom.var] = self.val[atom] is True  # type: ignore[attr-defined]
            else:
                ints.update(((v.name, v.primed), v) for v in atom_vars(atom))
        model.update((ints[k], intmodel.get(k, 0)) for k in sorted(ints))
        return "sat", model

    def _split(self, cons: Cons, diseqs: list[_Diseq]) -> tuple[str, Optional[dict[_Key, int]]]:
        """Decide `cons` and `diseqs` by solving `cons` alone and splitting
        only on a disequality its model violates, or, when `cons` is
        undecided, on the first one."""
        status, model = _search_linear(cons, self.steps)
        if status == "sat":
            assert model is not None
            d = next((d for d in diseqs if _dot(d[0], model) == d[1]), None)
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


@functools.cache
def _theory_of(atom: Cmp, value: bool) -> _Theory:
    """What the literal `atom` (negated unless `value`) asks of the integers."""
    diff: dict[_Key, int] = {}
    for v, c in atom.lhs.coeffs:
        diff[v.name, v.primed] = c
    for v, c in atom.rhs.coeffs:
        key = v.name, v.primed
        diff[key] = diff.get(key, 0) - c
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


# The trie of every built-in solver's queries, by step budget, as its one live
# context, whose `path` starts at the root.
_CONTEXTS: dict[int, _Query] = {}


def _reach(f: Formula) -> tuple[_Query, list[_Prefix]]:
    """The live context of the current step budget's trie, and the path from
    the root to the node of `f`'s conjuncts, pushing those the trie lacks,
    or to the first refuted node on the way."""
    query = _CONTEXTS.get(_STEP_BUDGET) or _CONTEXTS.setdefault(_STEP_BUDGET, _Query(_Prefix(None, {})))
    path = query.path[:1]
    for c in f.args if isinstance(f, And) else (f,):
        if path[-1].refuted:
            break
        child = path[-1].children.get(c)
        if child is None:
            query.goto(path)
            child = query.push(c)
        path.append(child)
    return query, path


class BuiltinSolver(Solver):
    """Self-contained decision procedure for booleans plus linear integer
    arithmetic.

    A solver keeps no state of its own: all built-in solvers of a process
    share one trie of queries per step budget and its live context.  A
    query enters only the conjuncts past the longest prefix that any solver
    entered before, and a query that any solver answered before is answered
    from its node."""

    def satisfiable(self, f: Formula) -> SatResult:
        query, path = _reach(f)
        node = path[-1]
        if node.result is None:
            query.goto(path)
            node.result = query.run()
            if node.result.status == "sat":
                node.witness = query.witness
        return node.result

    def feasible(self, f: Formula) -> bool:
        """As `satisfiable(f).status != "unsat"`, but first check the witness
        of the deepest prefix that has one against the clauses added since;
        only if it fails does the search run."""
        query, path = _reach(f)
        node = path[-1]
        if node.result is None and node.witness is None:
            w = next(n for n in reversed(path) if n.witness is not None)
            query.goto(path)
            if not query.satisfies(w.witness, w.size[1]):
                return self.satisfiable(f).status != "unsat"
            node.witness = w.witness
        return node.result is None or node.result.status != "unsat"


# ---------------------------------------------------------------------------
# External SMT-LIB backend
# ---------------------------------------------------------------------------

_SMT_TIMEOUT = 30.0  # seconds an external solver may take on one query

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

    def __init__(self, command: str) -> None:
        import shlex  # imported here, so that `import retrace` pays only for what every caller uses
        self.command = shlex.split(command)
        if not self.command:
            raise ValueError("empty solver command")
        self._memo: dict[Formula, SatResult] = {}

    def satisfiable(self, f: Formula) -> SatResult:
        hit = self._memo.get(f)
        if hit is None:
            hit = self._memo[f] = self._decide(f)
        return hit

    def _decide(self, f: Formula) -> SatResult:
        import subprocess  # as `shlex` in `__init__`
        script = to_smtlib(f)
        try:
            proc = subprocess.run(
                self.command,
                input=script,
                capture_output=True,
                text=True,
                timeout=_SMT_TIMEOUT,
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
