"""Forward symbolic execution of the proof rules.

Each procedure with a body is verified in isolation against its own
contract.  Execution states carry a symbolic store, a path constraint, and
a plain trace prefix, kept as a chain of regex pieces that forked states
share so that emitting an event costs O(1); conditional trace
specifications are split into plain cases eagerly, and unsatisfiable
branches are pruned.  At the end of an `if`, branch states that agree on
every live variable join into one, with the disjunction of what each branch
added to the path and a choice of their trace tails, when the variables of
those additions occur neither in the path before the `if` nor in a live
value: nothing later reads them, so the join is exact.  Loops go
through one modular rule (havoc, preserve, exit) with two annotation
modes: a full-history trace invariant that covers the whole prefix at the
loop head, or a `local` language that covers a single iteration.  Calls go
through the callee contract.
"""

from __future__ import annotations

from typing import Optional, Union

from . import regex as rx
from .formula import (
    FALSE,
    TRUE,
    And,
    BoolLit,
    BoolRef,
    Formula,
    Term,
    Var,
    conj,
    disj,
    free_vars,
    neg,
    render_formula,
    substitute,
)
from .lang import (
    Abort,
    Assign,
    Call,
    Command,
    Emit,
    Havoc,
    If,
    Procedure,
    Program,
    Seq,
    SpecStmt,
    Span,
    While,
    modified_in,
)
from .record import Record
from .solver import BuiltinSolver, Solver
from .tracespec import (
    TraceSpec,
    complete,
    inclusion_obligations,
    plain,
    subst_spec,
)

GUARD_CHECK = "guard-check"
ENTAILMENT = "entailment"
INVARIANT_PRESERVATION = "invariant-preservation"
TRACE_INCLUSION = "trace-inclusion"

VACUOUS_SPEC = "VacuousSpec"

SymValue = Union[Term, Formula]
Store = dict[str, SymValue]


class Obligation(Record):
    __slots__ = ("kind", "description", "holds", "span", "context", "lhs", "rhs", "witness", "model", "note",
                 "lhs_regex", "rhs_regex")

    def __init__(self, kind: str, description: str, holds: bool, span: Optional[Span] = None, context: str = "",
                 lhs: str = "", rhs: str = "", witness: Optional[tuple[str, ...]] = None,
                 model: Optional[dict[str, Union[bool, int]]] = None, note: Optional[str] = None,
                 lhs_regex: Optional[rx.Regex] = None, rhs_regex: Optional[rx.Regex] = None) -> None:
        self.kind, self.description, self.holds, self.span, self.context = kind, description, holds, span, context
        self.lhs, self.rhs, self.witness, self.model, self.note = lhs, rhs, witness, model, note
        # regex payloads of trace inclusions, for programmatic consumers
        self.lhs_regex, self.rhs_regex = lhs_regex, rhs_regex

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "holds": self.holds,
            "span": {"line": self.span.line, "col": self.span.col} if self.span else None,
            "context": self.context,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "witness": list(self.witness) if self.witness is not None else None,
            "model": {k: v for k, v in sorted(self.model.items())} if self.model else None,
            "note": self.note,
        }

    def describe(self) -> str:
        verdict = "ok" if self.holds else "FAIL"
        where = f"{self.span.line}:{self.span.col}" if self.span else "-"
        s = f"[{self.kind}] {where} {self.description}: {self.lhs} ⊑ {self.rhs}" \
            if self.kind == TRACE_INCLUSION else \
            f"[{self.kind}] {where} {self.description}: {self.rhs}"
        s += f" ... {verdict}"
        if self.witness is not None:
            s += f"  witness ⟨{', '.join(self.witness)}⟩"
        if self.note:
            s += f"  ({self.note})"
        return s


class ProcedureReport(Record):
    __slots__ = ("name", "obligations", "warnings")

    def __init__(self, name: str, obligations: Optional[list[Obligation]] = None,
                 warnings: Optional[list[str]] = None) -> None:
        self.name = name
        self.obligations = [] if obligations is None else obligations
        self.warnings = [] if warnings is None else warnings

    @property
    def verified(self) -> bool:
        return all(o.holds for o in self.obligations)

    @property
    def status(self) -> str:
        return "verified" if self.verified else "failed"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "obligations": [o.to_dict() for o in self.obligations],
            "warnings": list(self.warnings),
        }


class VerdictReport(Record):
    __slots__ = ("source", "procedures")

    def __init__(self, source: str, procedures: Optional[list[ProcedureReport]] = None) -> None:
        self.source = source
        self.procedures = [] if procedures is None else procedures

    @property
    def verified(self) -> bool:
        return all(p.verified for p in self.procedures)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "verified": self.verified,
            "procedures": [p.to_dict() for p in self.procedures],
        }


def _reads(*values: SymValue) -> frozenset[str]:
    """The program variables, primed or not, that the values mention."""
    return frozenset(x.name for v in values for x in free_vars(v))


def _guards(spec: TraceSpec) -> list[Formula]:
    return [o.guard for o in spec.options]


def _conjuncts(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, BoolLit):
        return () if f.value else (f,)
    return f.args if isinstance(f, And) else (f,)


# a trace prefix as a persistent snoc chain: None, or (earlier pieces, piece)
Pieces = Optional[tuple["Pieces", rx.Regex]]


class SymState:
    """A symbolic execution state: store, path constraint and trace prefix.

    The prefix is kept as a snoc chain of regex pieces that forks share, so
    appending to it is O(1); `prefix` builds the regex when an obligation
    needs it.
    """

    __slots__ = ("store", "path", "pieces")

    def __init__(self, store: Store, path: Formula, prefix: rx.Regex = rx.EPSILON) -> None:
        self.store = store
        self.path = path
        self.pieces: Pieces = None if prefix is rx.EPSILON else (None, prefix)

    @property
    def prefix(self) -> rx.Regex:
        return self.since(None)  # type: ignore[return-value]

    def since(self, base: Pieces) -> Optional[rx.Regex]:
        """The pieces appended after chain node `base`, concatenated; None
        when `base` is not on this state's chain."""
        pieces: list[rx.Regex] = []
        node = self.pieces
        while node is not base:
            if node is None:
                return None
            node, piece = node
            pieces.append(piece)
        pieces.reverse()
        return rx.concat(*pieces)

    def append(self, piece: rx.Regex) -> None:
        self.pieces = (self.pieces, piece)

    def fork(self) -> "SymState":
        return self.then(dict(self.store), self.path, rx.EPSILON)

    def then(self, store: Store, path: Formula, piece: rx.Regex) -> "SymState":
        """A successor state whose prefix is this one's followed by `piece`."""
        st = SymState(store, path)
        st.pieces = self.pieces if piece is rx.EPSILON else (self.pieces, piece)
        return st


class Verifier:
    def __init__(self, program: Program, solver: Optional[Solver] = None) -> None:
        self.p = program
        self.solver = solver if solver is not None else BuiltinSolver()
        self._fresh_count = 0
        # the variables live after each `If` of the procedure being verified,
        # by id; an `If` without an entry treats every variable as live
        self._live_after: dict[int, frozenset[str]] = {}

    # -- plumbing -----------------------------------------------------------

    def fresh(self, name: str, ty: str) -> SymValue:
        self._fresh_count += 1
        v = Var(f"{name}#{self._fresh_count}")
        return BoolRef(v) if ty == "bool" else Term(((v, 1),), 0)

    def fresh_store(self, proc: Procedure) -> Store:
        store: Store = {}
        for name, gv in self.p.variables.items():
            store[name] = self.fresh(name, gv.type)
        for name, ty in proc.locals.items():
            store[name] = self.fresh(name, ty)
        return store

    def havoc(self, store: Store, names: list[str], proc: Procedure) -> Store:
        out = dict(store)
        for name in names:
            ty = self.p.var_type(name, proc)
            if ty is not None:
                out[name] = self.fresh(name, ty)
        return out

    # -- obligations --------------------------------------------------------

    def _entailment(
        self,
        obs: list[Obligation],
        kind: str,
        desc: str,
        path: Formula,
        target: Formula,
        span: Optional[Span],
    ) -> None:
        if target == TRUE:
            return
        r = self.solver.entails(path, target)
        model = None
        note = None
        if r.status == "invalid" and r.model:
            model = {str(k): v for k, v in r.model.items()}  # type: ignore[misc]
        if r.status == "unknown":
            note = "solver answered unknown: " + (r.diagnostic or "")
        obs.append(
            Obligation(
                kind,
                desc,
                r.status == "valid",
                span=span,
                context=render_formula(path),
                rhs=render_formula(target),
                model=model,
                note=note,
            )
        )

    def _trace_inclusion(
        self,
        obs: list[Obligation],
        desc: str,
        state: SymState,
        spec: TraceSpec,
        span: Optional[Span],
    ) -> None:
        """Obligations for `state.path ==> state.prefix ⊑ spec`, where `spec`
        is completed and grounded."""
        cases = inclusion_obligations(
            state.path, plain(state.prefix), rx.EPSILON, spec, self.solver
        )
        for case in cases:
            obs.append(
                Obligation(
                    TRACE_INCLUSION,
                    desc,
                    case.holds,
                    span=span,
                    context=render_formula(case.context),
                    lhs=rx.render(case.lhs),
                    rhs=rx.render(case.rhs),
                    witness=case.witness,
                    note=case.note,
                    lhs_regex=case.lhs,
                    rhs_regex=case.rhs,
                )
            )

    # -- execution ----------------------------------------------------------

    def exec(
        self, c: Command, state: SymState, proc: Procedure,
        obs: list[Obligation], warnings: list[str],
    ) -> list[SymState]:
        if isinstance(c, Seq):
            states = [state]
            for s in c.stmts:
                nxt: list[SymState] = []
                for st in states:
                    nxt.extend(self.exec(s, st, proc, obs, warnings))
                states = nxt
            return states
        if isinstance(c, Emit):
            state.append(rx.symbol(c.event))
            return [state]
        if isinstance(c, Assign):
            state.store[c.var] = substitute(c.value, state.store)
            return [state]
        if isinstance(c, Havoc):
            ty = self.p.var_type(c.var, proc) or "int"
            state.store[c.var] = self.fresh(c.var, ty)
            return [state]
        if isinstance(c, If):
            t = substitute(c.test, state.store)
            out: list[SymState] = []
            for cond, branch in ((t, c.then), (neg(t), c.orelse)):
                path2 = conj(state.path, cond)
                if not self.solver.feasible(path2):
                    continue
                st = state.fork()
                st.path = path2
                out.extend(self.exec(branch, st, proc, obs, warnings))
            return self.join(c, state, out)
        if isinstance(c, While):
            return self.exec_while(c, state, proc, obs, warnings)
        if isinstance(c, Call):
            stmt = self.p.procedures[c.proc].spec_stmt(c.span)
            return self.exec_spec_stmt(stmt, state, proc, obs, f"call {c.proc}")
        if isinstance(c, SpecStmt):
            return self.exec_spec_stmt(c, state, proc, obs, "spec statement")
        if isinstance(c, Abort):
            self._entailment(obs, GUARD_CHECK, "abort unreachable", state.path, FALSE, c.span)
            return []
        raise ValueError(f"cannot execute {c!r}")

    def exec_spec_stmt(
        self, c: SpecStmt, state: SymState, proc: Procedure,
        obs: list[Obligation], what: str,
    ) -> list[SymState]:
        g = substitute(c.guard, state.store)
        if g != TRUE:
            self._entailment(obs, GUARD_CHECK, f"{what}: guard", state.path, g, c.span)
        pre_store = state.store
        post_store = self.havoc(pre_store, list(c.mods), proc)
        rel = substitute(c.rel, pre_store, post_store)
        path2 = conj(state.path, rel)
        out: list[SymState] = []
        for opt in complete(c.trace).options:
            phi = substitute(opt.guard, pre_store)
            path3 = conj(path2, phi)
            if not self.solver.feasible(path3):
                continue
            out.append(state.then(dict(post_store), path3, opt.regex))
        return out

    def exec_while(
        self, w: While, state: SymState, proc: Procedure,
        obs: list[Obligation], warnings: list[str],
    ) -> list[SymState]:
        inv = w.invariant
        self._entailment(
            obs, ENTAILMENT, "loop invariant established",
            state.path, substitute(inv, state.store), w.span,
        )
        mods = sorted(modified_in(w.body, self.p))
        hstore = self.havoc(state.store, mods, proc)
        # a loop with no trace annotation reads as `_(trace local ())`
        local = w.local_trace or not w.trace_inv.options
        if local:
            # a local annotation covers one iteration, so each starts from ε
            body_lang = w.trace_inv.options[0].regex if w.trace_inv.options else rx.EPSILON
            spec = complete(plain(body_lang))
            starts, post_desc = plain(rx.EPSILON), "loop body trace covered"
        else:
            # establishment: the accumulated prefix is covered by the invariant
            # evaluated at the loop head state
            spec = complete(w.trace_inv)
            self._trace_inclusion(
                obs, "loop trace invariant established",
                state, subst_spec(spec, state.store), w.span,
            )
            starts = subst_spec(spec, hstore)
            post_desc = "loop trace invariant preserved"
        # preservation: from an arbitrary state satisfying test and invariant,
        # with the prefix replaced by each satisfiable start case
        path_body = conj(substitute(inv, hstore), substitute(w.test, hstore))
        if self.solver.feasible(path_body):
            for opt in starts.options:
                case_path = conj(path_body, opt.guard)
                if not self.solver.feasible(case_path):
                    continue
                start = SymState(dict(hstore), case_path, opt.regex)
                for fin in self.exec(w.body, start, proc, obs, warnings):
                    self._entailment(
                        obs, INVARIANT_PRESERVATION, "loop invariant preserved",
                        fin.path, substitute(inv, fin.store), w.span,
                    )
                    self._trace_inclusion(
                        obs, post_desc, fin, subst_spec(spec, fin.store), w.span
                    )
        # continuation: exit states assume the invariant and the negated test
        cstore = self.havoc(state.store, mods, proc)
        cpath = conj(state.path, substitute(inv, cstore), neg(substitute(w.test, cstore)))
        if not self.solver.feasible(cpath):
            return []
        if local:
            # the loop contributes any number of body observations, framed onto
            # the prefix accumulated so far
            return [state.then(dict(cstore), cpath, rx.star(body_lang))]
        # the prefix becomes the invariant case that matches the exit state
        out: list[SymState] = []
        user_cases = 0
        for i, opt in enumerate(subst_spec(spec, cstore).options):
            path_exit = conj(cpath, opt.guard)
            if not self.solver.feasible(path_exit):
                continue
            if i < len(w.trace_inv.options):
                user_cases += 1
            out.append(SymState(dict(cstore), path_exit, opt.regex))
        if w.trace_inv.options and user_cases == 0:
            warnings.append(
                f"{VACUOUS_SPEC}: no loop trace case matches the exit state"
                + (f" at {w.span.line}:{w.span.col}" if w.span else "")
            )
        return out

    # -- joins ----------------------------------------------------------------

    def live_before(self, c: Command, live: frozenset[str]) -> frozenset[str]:
        """The variables whose values before `c` may be read, by `c` or
        after it, when `live` are live after it; records the live-out of
        every `If` in `c`."""
        if isinstance(c, Seq):
            for s in reversed(c.stmts):
                live = self.live_before(s, live)
            return live
        if isinstance(c, Assign):
            return (live - {c.var}) | _reads(c.value)
        if isinstance(c, Havoc):
            return live - {c.var}
        if isinstance(c, If):
            # a node built once and placed twice gets the union of its sites
            self._live_after[id(c)] = live | self._live_after.get(id(c), frozenset())
            return (_reads(c.test) | self.live_before(c.then, live)
                    | self.live_before(c.orelse, live))
        if isinstance(c, While):
            # body-end states only feed the preservation checks
            own = _reads(c.invariant, c.test, *_guards(c.trace_inv))
            return live | own | self.live_before(c.body, own)
        if isinstance(c, (Call, SpecStmt)):
            stmt = self.p.procedures[c.proc].spec_stmt() if isinstance(c, Call) else c
            return (live - set(stmt.mods)) | _reads(stmt.guard, stmt.rel, *_guards(stmt.trace))
        if isinstance(c, Abort):
            return frozenset()
        return live

    def join(self, c: If, pre: SymState, out: list[SymState]) -> list[SymState]:
        """Merge the states of `out`, the branch results of `c` run from
        `pre`, that agree on every variable live after `c` and whose
        branches nothing later can tell apart; the others stay as they are,
        in order."""
        if len(out) < 2:
            return out
        live = self._live_after.get(id(c))
        names = [n for n in out[0].store if live is None or n in live]
        groups: dict[tuple[SymValue, ...], list[SymState]] = {}
        for st in out:
            groups.setdefault(tuple(st.store[n] for n in names), []).append(st)
        if len(groups) == len(out):
            return out
        pre_syms = free_vars(pre.path)
        joined: dict[int, Optional[SymState]] = {}
        for group in groups.values():
            merged = self._merge(pre, group, names, pre_syms) if len(group) > 1 else None
            if merged is not None:
                joined.update((id(st), None) for st in group)
                joined[id(group[0])] = merged
        return [m for m in (joined.get(id(st), st) for st in out) if m is not None]

    @staticmethod
    def _merge(
        pre: SymState, group: list[SymState], names: list[str],
        pre_syms: frozenset[Var],
    ) -> Optional[SymState]:
        """One state for `group`, with path `pre.path ∧ (δ₁ ∨ … ∨ δₖ)` and
        prefix `pre`'s followed by a choice of the members' tails, or None
        when a δ's variables could be read later."""
        base = _conjuncts(pre.path)
        deltas: list[Formula] = []
        for st in group:
            full = _conjuncts(st.path)
            if full[:len(base)] != base:
                return None
            deltas.append(conj(*full[len(base):]))
        syms = frozenset().union(*map(free_vars, deltas))
        if syms & pre_syms or any(syms & free_vars(group[0].store[n]) for n in names):
            return None
        branched = TRUE if len(deltas) == 2 and deltas[1] == neg(deltas[0]) else disj(*deltas)
        store, path = group[0].store, conj(pre.path, branched)
        tails = [st.since(pre.pieces) for st in group]
        if all(t is not None for t in tails):
            return pre.then(store, path, rx.choice(*tails))
        # a full-history loop in a branch restarted that branch's prefix
        return SymState(store, path, rx.choice(*(st.prefix for st in group)))

    # -- procedure and program level ----------------------------------------

    def finalize_path(
        self, state: SymState, proc: Procedure, entry: Store,
        obs: list[Obligation],
    ) -> None:
        post = substitute(proc.ensures, entry, state.store)
        self._entailment(obs, ENTAILMENT, "postcondition", state.path, post, proc.span)
        contract = subst_spec(complete(proc.trace), state.store)
        self._trace_inclusion(obs, "contract trace", state, contract, proc.span)

    def verify_procedure(self, name: str) -> ProcedureReport:
        proc = self.p.procedures[name]
        if proc.body is None:
            raise ValueError(f"procedure {name!r} has no body")
        report = ProcedureReport(name=name)
        entry = self.fresh_store(proc)
        path0 = substitute(proc.requires, entry)
        if not self.solver.feasible(path0):
            report.warnings.append("precondition is unsatisfiable; contract holds vacuously")
            return report
        self._live_after = {}
        self.live_before(proc.body, _reads(proc.ensures, *_guards(proc.trace)))
        start = SymState(dict(entry), path0, rx.EPSILON)
        finals = self.exec(proc.body, start, proc, report.obligations, report.warnings)
        for st in finals:
            self.finalize_path(st, proc, entry, report.obligations)
        return report

    def verify_program(self) -> VerdictReport:
        report = VerdictReport(source=self.p.source)
        for name, proc in self.p.procedures.items():
            if proc.body is not None:
                report.procedures.append(self.verify_procedure(name))
        return report


def verify_program(p: Program, solver: Optional[Solver] = None) -> VerdictReport:
    """Verify every procedure with a body against its contract."""
    return Verifier(p, solver).verify_program()
