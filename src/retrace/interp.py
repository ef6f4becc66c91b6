"""Concrete big-step execution with trace collection, and a randomized
contract checker built on top of it.

Runs are deterministic for a given seed.  Nondeterminism (havoc, loop
exits, specification statements, bodiless procedures) is resolved by a
seeded generator; diverging runs are cut off by fuel, or by the depth of
Python's stack, and reported separately, never judged.

A program is specialised before it runs: `CompiledProgram` generates the
Python source of one function per procedure, per spec statement and per
bodiless procedure, and of the oracle check's pre-state sampler, and builds
it once with `compile` (the first Futamura projection of an interpreter).
Values are typed at the boundary: `run` checks the pre-state once, at
entry, and every value a run stores afterwards is typed by `resolve` or
sampled by its declared type, so the generated code reads unchecked.
"""

from __future__ import annotations

import random
from itertools import groupby
from typing import Any, Callable, Iterable, Optional, Union

from . import regex as rx
from .formula import (
    TRUE,
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
    Value,
    Var,
    typed,
)
from .lang import (
    Abort,
    Assign,
    Call,
    Command,
    Emit,
    Havoc,
    If,
    Program,
    Seq,
    SpecStmt,
    While,
)
from .record import Record
from .tracespec import TraceSpec, complete, union_of

_SPEC_RETRIES = 64
_PRE_ATTEMPTS = 500
_WORD_CAP = 8
_STOP_PROB = 0.4
# CPython rejects more than 20 nested loops or 100 indentation levels in
# one function: a statement nested `_MAX_DEPTH` deep, a loop counting as
# `_LOOP_DEPTH`, becomes a function of its own
_MAX_DEPTH = 40
_LOOP_DEPTH = 5
# CPython rejects an expression nested in more than 200 parentheses, and its
# compiler recurses once per operand of a chain of `+`: a subformula nested
# `_MAX_NESTING` deep becomes a function of its own, and a long sum is grouped
_MAX_NESTING = 50
_SUM_CHUNK = 64


class NoSatisfyingState(Exception):
    """Rejection sampling found no pre-state satisfying the precondition."""


class RunResult(Record):
    __slots__ = ("outcome", "state", "trace")

    def __init__(self, outcome: str, state: Optional[dict[str, Value]], trace: tuple[str, ...]) -> None:
        self.outcome, self.state, self.trace = outcome, state, trace  # outcome: "stopped" | "aborted" | "fuel"


class _Aborted(Exception):
    pass


class _OutOfFuel(Exception):
    pass


def _sample_word(
    r: rx.Regex, random: Callable[[], float], choice: Callable[[list[str]], str]
) -> Optional[list[str]]:
    """Random word of the language via a derivative walk; None when the
    language is empty."""
    out: list[str] = []
    while True:
        starts = sorted(rx.first(r))
        if rx.nullable(r) and (not starts or len(out) >= _WORD_CAP or random() < _STOP_PROB):
            return out
        if not starts:
            return None
        a = choice(starts)
        out.append(a)
        r = rx.derive(a, r)


class _Run:
    """The mutable part of one run: its generator's draws, fuel and trace,
    the globals, and the procedures, through which calls go."""

    __slots__ = ("random", "choice", "fuel", "trace", "globals", "procedures")

    def __init__(self, rng: random.Random, fuel: int, procedures: dict) -> None:
        self.random = rng.random
        self.choice = rng.choice
        self.fuel = fuel
        self.trace: list[str] = []
        self.globals: dict[str, Value] = {}
        self.procedures = procedures


class PySource:
    """Renders formulas and linear terms as Python expressions, the one
    formula compiler of the package.  `read(v)` is the expression that reads
    `v`.  Connectives short-circuit left to right and operands are read in
    order, as `formula.evaluate` reads them.  A subformula nested deeper
    than CPython accepts is rendered as a function of `params`, whose
    definition is appended to `defs`."""

    def __init__(self, read: Callable[[Var], str], params: str, defs: list[str]) -> None:
        self.read = read
        self.params = params
        self.defs = defs

    def __call__(self, e: Union[Formula, Term]) -> str:
        return self.term(e) if isinstance(e, Term) else self.formula(e)

    def term(self, t: Term) -> str:
        parts = [str(t.const)] if t.const or not t.coeffs else []
        for v, c in t.coeffs:
            x = self.read(v)
            parts.append(x if c == 1 else f"-{x}" if c == -1 else f"{c} * {x}")
        if len(parts) > _SUM_CHUNK:
            parts = ["(" + " + ".join(parts[k:k + _SUM_CHUNK]) + ")" for k in range(0, len(parts), _SUM_CHUNK)]
        return " + ".join(parts)

    def formula(self, f: Formula, depth: int = 0) -> str:
        if depth >= _MAX_NESTING:
            body = self.formula(f)
            name = f"_x{len(self.defs)}"
            self.defs.append(f"def {name}({self.params}):\n    return {body}")
            return f"{name}({self.params})"
        if isinstance(f, BoolLit):
            return "True" if f.value else "False"
        if isinstance(f, BoolRef):
            return self.read(f.var)
        if isinstance(f, Cmp):
            return f"({self.term(f.lhs)} {f.op} {self.term(f.rhs)})"
        if isinstance(f, Not):
            return f"(not {self.formula(f.arg, depth + 1)})"
        if isinstance(f, Implies):
            return f"(not {self.formula(f.lhs, depth + 1)} or {self.formula(f.rhs, depth + 1)})"
        assert isinstance(f, (And, Or))
        if not f.args:
            return "True" if isinstance(f, And) else "False"
        op = " and " if isinstance(f, And) else " or "
        return "(" + op.join(self.formula(a, depth + 1) for a in f.args) + ")"


def build(lines: list[str], namespace: dict[str, Any]) -> Any:
    """Run `lines` as the body of a function whose globals are `namespace`
    and return what it returns.  The functions it defines reach each other
    through closure cells, and `namespace` keeps none of them, so nothing
    built here is part of a reference cycle."""
    src = "def _make():\n" + "".join(f"    {ln}\n" for s in lines for ln in s.split("\n"))
    exec(compile(src, "<retrace>", "exec"), namespace)
    return namespace.pop("_make")()


_BURN = ("r.fuel -= 1", "if r.fuel < 0:", "    raise _OutOfFuel")


def _flat(c: Command) -> list[Command]:
    """The statements of `c`, nested sequences spliced in."""
    if not isinstance(c, Seq):
        return [c]
    return [s for t in c.stmts for s in _flat(t)]


class _Function:
    """The source of one generated function: its body, and which of the
    run's trace (`T`) and draws (`R`, `C`) the body uses."""

    def __init__(self, name: str, params: str, prelude: tuple[str, ...] = ()) -> None:
        self.name = name
        self.params = params
        self.prelude = prelude
        self.body: list[str] = []
        self.uses: set[str] = set()

    def emit(self, indent: int, *lines: str) -> None:
        self.body.extend("    " * indent + ln for ln in lines)

    def source(self, run: str = "r") -> str:
        """The definition; `run` is the parameter the trace and the draws
        are taken from."""
        bind = {"T": f"T = {run}.trace", "R": f"R = {run}.random", "C": f"C = {run}.choice"}
        lines = [*self.prelude, *(bind[u] for u in "TRC" if u in self.uses), *self.body]
        return f"def {self.name}({self.params}):" + "".join(f"\n    {ln}" for ln in lines or ["pass"])


class _Generator:
    """Writes the module of a program: one function per procedure, spec
    statement and bodiless procedure and, for an entry, the check's
    pre-state sampler, postcondition and contract language."""

    def __init__(self, p: Program) -> None:
        self.p = p
        self.defs: list[str] = []  # subformulas nested too deeply
        self.functions: list[str] = []
        self.count = 0
        self.bodiless: dict[str, str] = {}  # the functions of the called bodiless procedures
        self.reached: list[str] = []  # the procedures with a body to compile, each once
        self.namespace: dict[str, Any] = {
            "_Aborted": _Aborted,
            "_OutOfFuel": _OutOfFuel,
            "_word": _sample_word,
            "_D": range(p.int_domain[0], p.int_domain[1] + 1),
            "_P": p.int_pool,
            "_RETRY": range(_SPEC_RETRIES),
            "_ATTEMPTS": range(_PRE_ATTEMPTS),
        }

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value: Any) -> str:
        name = self.fresh("_k")
        self.namespace[name] = value
        return name

    def draw(self, fn: _Function, ty: str) -> str:
        """A value of type `ty`: a fair coin for a boolean; for an integer, a
        fair coin between the program's constants and its whole domain.
        `choice` over a range draws as `randint` does."""
        if ty == "bool":
            fn.uses.add("R")
            return "(R() < 0.5)"
        fn.uses.update("RC")
        return "(C(_P) if R() < 0.5 else C(_D))" if self.p.int_pool else "C(_D)"

    def type_of(self, name: str, local: dict[str, str]) -> str:
        return local.get(name) or self.p.var_type(name) or "int"

    def reader(self, local: dict[str, str], candidates: Optional[dict[str, str]] = None) -> PySource:
        """Reads from the frame `F` or the globals `G`, since locals cannot
        shadow globals; a primed variable among `candidates` reads the
        local holding its candidate value."""
        cands = candidates or {}

        def read(v: Var) -> str:
            if v.primed and v.name in cands:
                return cands[v.name]
            return f"F[{v.name!r}]" if v.name in local else f"G[{v.name!r}]"

        return PySource(read, ", ".join(["F", "G", *cands.values()]), self.defs)

    def union(self, spec: TraceSpec, render: PySource) -> tuple[str, Optional[rx.Regex]]:
        """The expression of the union of the options whose guards hold, fed
        by the tuple of the guards, and the union itself when every guard
        is a constant."""
        union = union_of(spec)
        if all(isinstance(o.guard, BoolLit) for o in spec.options):
            lang = union(tuple(o.guard == TRUE for o in spec.options))
            return self.const(lang), lang
        guards = "".join(render.formula(o.guard) + ", " for o in spec.options)
        return f"{self.const(union)}(({guards}))", None

    def procedures(self, roots: Iterable[str]) -> dict[str, str]:
        """The function of each procedure with a body among `roots`, which
        are distinct, or called from them, directly or not, in the order
        first reached."""
        self.reached.extend(name for name in roots if self.p.procedures[name].body is not None)
        return {name: self.procedure(name) for name in self.reached}  # grows as bodies call procedures

    def procedure(self, name: str) -> str:
        proc = self.p.procedures[name]
        assert proc.body is not None
        zero = {n: False if ty == "bool" else 0 for n, ty in proc.locals.items()}
        fn = _Function(
            self.fresh("_p"),
            "r, init",
            (f"F = {zero!r}", "if init:", "    F.update(init)", "G = r.globals"),
        )
        self.block(fn, proc.body, proc.locals, 0, 0)
        fn.emit(0, "return F")
        self.functions.append(fn.source())
        return fn.name

    def block(self, fn: _Function, c: Command, local: dict[str, str], indent: int, depth: int) -> None:
        stmts = _flat(c)
        if not stmts:
            fn.emit(indent, "pass")
        for kind, run in groupby(stmts, type):
            if kind is not Emit:
                for s in run:
                    self.statement(fn, s, local, indent, depth)
                continue
            # a run of emits is one extension of the trace by a constant, which
            # the namespace holds: a long tuple literal is slow to compile
            events = tuple(e.event for e in run)  # type: ignore[attr-defined]
            fn.uses.add("T")
            fn.emit(indent, f"T.append({events[0]!r})" if len(events) == 1 else f"T.extend({self.const(events)})")

    def statement(self, fn: _Function, c: Command, local: dict[str, str], indent: int, depth: int) -> None:
        """`depth` counts the compound statements around `c`, elifs and loops
        too; past `_MAX_DEPTH`, `c` goes into a function of its own."""
        render = self.reader(local)
        if isinstance(c, (If, While)) and depth >= _MAX_DEPTH:
            nested = _Function(self.fresh("_b"), "r, F, G")
            self.statement(nested, c, local, 0, 0)
            self.functions.append(nested.source())
            fn.emit(indent, f"{nested.name}(r, F, G)")
        elif isinstance(c, Assign):
            value = render(c.value)
            fn.emit(indent, f"{render.read(Var(c.var))} = {value}")
        elif isinstance(c, Havoc):
            value = self.draw(fn, self.type_of(c.var, local))
            fn.emit(indent, f"{render.read(Var(c.var))} = {value}")
        elif isinstance(c, If):
            keyword = "if"
            while True:
                fn.emit(indent, f"{keyword} {render.formula(c.test)}:")
                self.block(fn, c.then, local, indent + 1, depth + 1)
                orelse = _flat(c.orelse)
                depth += 1
                if len(orelse) == 1 and isinstance(orelse[0], If) and depth < _MAX_DEPTH:
                    c, keyword = orelse[0], "elif"
                    continue
                if orelse:
                    fn.emit(indent, "else:")
                    self.block(fn, c.orelse, local, indent + 1, depth)
                break
        elif isinstance(c, While):
            fn.emit(indent, f"while {render.formula(c.test)}:")
            fn.emit(indent + 1, *_BURN)
            self.block(fn, c.body, local, indent + 1, depth + _LOOP_DEPTH)
        elif isinstance(c, Call):
            fn.emit(indent, *_BURN)
            callee = self.p.procedures[c.proc]
            if callee.body is not None:
                if c.proc not in self.reached:
                    self.reached.append(c.proc)
                fn.emit(indent, f"r.procedures[{c.proc!r}](r, None)")
            else:
                if c.proc not in self.bodiless:
                    self.bodiless[c.proc] = self.spec(callee.spec_stmt(), {})
                fn.emit(indent, f"{self.bodiless[c.proc]}(r, F, G)")
        elif isinstance(c, SpecStmt):
            fn.emit(indent, f"{self.spec(c, local)}(r, F, G)")
        elif isinstance(c, Abort):
            fn.emit(indent, "raise _Aborted")
        else:
            raise ValueError(f"cannot execute {c!r}")

    def spec(self, c: SpecStmt, local: dict[str, str]) -> str:
        """The guard, the candidate draws and the relation, which reads a
        primed modified variable from its candidate and every other
        variable from the state before the statement; then the trace
        options, evaluated at that state, the update and the word."""
        fn = _Function(self.fresh("_s"), "r, F, G")
        render = self.reader(local)
        if c.guard != TRUE:
            fn.emit(0, f"if not {render.formula(c.guard)}:", "    raise _Aborted")
        cands: dict[str, str] = {}
        for m in c.mods:
            cands.setdefault(m, f"c{len(cands)}")
        rel = self.reader(local, cands).formula(c.rel)
        draws = [f"{cands[m]} = {self.draw(fn, self.type_of(m, local))}" for m in c.mods]
        if not draws:
            if rel != "True":
                fn.emit(0, f"if not {rel}:", "    raise _OutOfFuel  # no transition")
        elif rel == "True":
            fn.emit(0, *draws)
        else:
            fn.emit(0, "for _ in _RETRY:", *("    " + d for d in draws), f"    if {rel}:", "        break")
            fn.emit(0, "else:", "    raise _OutOfFuel  # no transition within the retry bound")
        lang, known = self.union(complete(c.trace), render)
        if known is not rx.EPSILON:
            fn.emit(0, f"L = {lang}")
        fn.emit(0, *(f"{render.read(Var(m))} = {cand}" for m, cand in cands.items()))
        if known is not rx.EPSILON:
            fn.uses.update("TRC")
            # an empty language leaves the statement stuck
            fn.emit(0, "w = _word(L, R, C)", "if w is None:", "    raise _OutOfFuel", "T.extend(w)")
        self.functions.append(fn.source())
        return fn.name

    def check(self, entry: str) -> str:
        """The check of `entry`: its pre-state sampler, which draws every
        global and then every local, by rejection against the precondition
        (None when `_PRE_ATTEMPTS` draws all fail); its postcondition over
        the pre-state `S` and the final state `Z`; and its completed
        contract language at `Z`."""
        proc = self.p.procedures[entry]
        pre = PySource(lambda v: f"S[{v.name!r}]", "S", self.defs)
        sample = _Function("_pre", "rng")
        typed = [(n, gv.type) for n, gv in self.p.variables.items()] + list(proc.locals.items())
        state = ", ".join(f"{n!r}: {self.draw(sample, ty)}" for n, ty in typed)
        sample.emit(0, "for _ in _ATTEMPTS:", f"    S = {{{state}}}")
        sample.emit(1, f"if {pre.formula(proc.requires)}:", "    return S")
        sample.emit(0, "return None")
        post = PySource(lambda v: f"Z[{v.name!r}]" if v.primed else f"S[{v.name!r}]", "S, Z", self.defs)
        final = PySource(lambda v: f"Z[{v.name!r}]", "Z", self.defs)
        lang, _ = self.union(complete(proc.trace), final)
        self.functions += [
            sample.source("rng"),
            f"def _post(S, Z):\n    return {post.formula(proc.ensures)}",
            f"def _lang(Z):\n    return {lang}",
        ]
        return "_pre, _post, _lang"


class CompiledProgram:
    """A program specialised for execution: one generated module, compiled
    once.  `procedures` maps each procedure with a body to its function;
    with `entry` given, only the procedures that `entry` reaches by calls
    are compiled, and `check` holds its pre-state sampler, postcondition
    and contract language, as `check_triple_random` uses them.  A bodiless
    procedure is compiled only where it is called."""

    def __init__(self, p: Program, entry: Optional[str] = None) -> None:
        self.program = p
        self.globals = tuple((n, gv.type == "bool", gv.init) for n, gv in p.variables.items())
        gen = _Generator(p)
        names = gen.procedures(p.procedures if entry is None else [entry])
        check = gen.check(entry) if entry is not None else "None"
        table = ", ".join(f"{name!r}: {fn}" for name, fn in names.items())
        self.procedures: dict[str, Callable[..., dict[str, Value]]]
        self.procedures, self.check = build(
            gen.defs + gen.functions + [f"return {{{table}}}, ({check})"], gen.namespace
        )


def run(
    p: Union[Program, CompiledProgram],
    entry: str,
    s0: GroundState,
    seed: Union[int, random.Random],
    fuel: int = 256,
) -> RunResult:
    """Execute `entry` from the pre-state `s0`, deterministically in `seed`:
    an int to seed a fresh generator, or a generator to draw from.

    `p` is a program, or one already compiled, as the oracle passes it to
    run many times.  `s0` must assign every global; entries for the
    procedure's locals are honored as their arbitrary initial values.  Each
    value `s0` gives a global or a local of `entry` is checked against the
    variable's type, here, whether or not the run reads it: None or a value
    of the other type raises `UnboundVariable`, as a read of it would.
    """
    code = p if isinstance(p, CompiledProgram) else CompiledProgram(p)
    enter = code.procedures.get(entry)
    if enter is None:
        raise ValueError(f"no executable procedure {entry!r}")
    r = _Run(seed if isinstance(seed, random.Random) else random.Random(seed), fuel, code.procedures)
    g = r.globals
    for name, boolean, init in code.globals:
        if name in s0:
            g[name] = typed(name, boolean, s0[name])
        elif init is not None:
            g[name] = init
        else:
            raise ValueError(f"pre-state misses global {name!r}")
    local = code.program.procedures[entry].locals
    frame_init = {k: typed(k, local[k] == "bool", v) for k, v in s0.items() if k in local}
    try:
        frame = enter(r, frame_init)
    except _Aborted:
        return RunResult("aborted", None, tuple(r.trace))
    except (_OutOfFuel, RecursionError):
        # a run deep enough to exhaust Python's stack is cut off like one that
        # exhausts its fuel
        return RunResult("fuel", None, tuple(r.trace))
    final = dict(g)
    final.update(frame)
    return RunResult("stopped", final, tuple(r.trace))


class Violation(Record):
    __slots__ = ("run", "pre_state", "trace", "reason", "detail")

    def __init__(self, run: int, pre_state: dict[str, Value], trace: tuple[str, ...], reason: str,
                 detail: str = "") -> None:
        self.run, self.pre_state, self.trace = run, pre_state, trace  # run: 0-based index within its check
        self.reason, self.detail = reason, detail  # reason: "postcondition" | "trace" | "aborted"


class OracleReport(Record):
    __slots__ = ("entry", "runs", "completed", "fuel_exhausted", "violations")

    def __init__(self, entry: str, runs: int, completed: int = 0, fuel_exhausted: int = 0,
                 violations: Optional[list[Violation]] = None) -> None:
        self.entry, self.runs, self.completed, self.fuel_exhausted = entry, runs, completed, fuel_exhausted
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "runs": self.runs,
            "completed": self.completed,
            "fuel_exhausted": self.fuel_exhausted,
            "violations": [
                {
                    "run": v.run,
                    "pre_state": dict(sorted(v.pre_state.items())),
                    "trace": list(v.trace),
                    "reason": v.reason,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


def check_triple_random(
    p: Program,
    entry: str,
    runs: int,
    seed: int,
    fuel: int = 256,
) -> OracleReport:
    """Randomized check of a procedure against its own contract.

    Pre-states satisfying the precondition are found by rejection sampling;
    each terminating run is checked against the postcondition and against
    membership of its trace in the contract's trace language evaluated at
    the final state.  Aborted runs count as violations; fuel-exhausted runs
    are reported but not judged.  The program and the contract are compiled
    once, before the first run.  All runs draw from one generator seeded with
    `seed`, in order, so violation `i` replays as the last of `runs=i+1`.
    """
    proc = p.procedures.get(entry)
    if proc is None or proc.body is None:
        raise ValueError(f"no executable procedure {entry!r}")
    code = CompiledProgram(p, entry)
    sample, ensures, contract = code.check
    report = OracleReport(entry=entry, runs=runs)
    rng = random.Random(seed)
    for i in range(runs):
        pre = sample(rng)
        if pre is None:
            raise NoSatisfyingState(
                f"no pre-state satisfying the precondition of {entry!r} "
                f"after {_PRE_ATTEMPTS} attempts"
            )
        result = run(code, entry, pre, rng, fuel)
        if result.outcome == "fuel":
            report.fuel_exhausted += 1
            continue
        if result.outcome == "aborted":
            report.violations.append(
                Violation(i, pre, result.trace, "aborted", "run aborted")
            )
            continue
        report.completed += 1
        assert result.state is not None
        final = result.state
        if not ensures(pre, final):
            report.violations.append(
                Violation(i, pre, result.trace, "postcondition",
                          f"final state {final}")
            )
            continue
        allowed = contract(final)
        if not rx.member(result.trace, allowed):
            report.violations.append(
                Violation(i, pre, result.trace, "trace",
                          f"not in {rx.render(allowed)}")
            )
    return report
