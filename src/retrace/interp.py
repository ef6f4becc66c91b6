"""Concrete big-step execution with trace collection, and a randomized
contract checker built on top of it.

Runs are deterministic for a given seed.  Nondeterminism (havoc, loop
exits, specification statements, bodiless procedures) is resolved by a
seeded generator; diverging runs are cut off by fuel, or by the depth of
Python's stack, and reported separately, never judged.

A program is compiled to closures before it runs (Feeley and Lapalme,
"Using closures for code generation", 1987), and the oracle compiles it
once for all of its runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from . import regex as rx
from .formula import (
    Env,
    GroundState,
    Selector,
    Term,
    Value,
    Var,
    by_prime,
    compile_formula,
    compile_term,
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
    While,
)
from .tracespec import compile_spec, complete

_SPEC_RETRIES = 64
_WORD_CAP = 8
_STOP_PROB = 0.4


class NoSatisfyingState(Exception):
    """Rejection sampling found no pre-state satisfying the precondition."""


@dataclass
class RunResult:
    outcome: str  # "stopped" | "aborted" | "fuel"
    state: Optional[dict[str, Value]]
    trace: tuple[str, ...]


class _Aborted(Exception):
    pass


class _OutOfFuel(Exception):
    pass


def _sample_value(
    ty: str,
    rng: random.Random,
    domain: tuple[int, int],
    pool: tuple[int, ...] = (),
) -> Value:
    # integers mix a uniform draw with the program's own constants, so
    # branch boundaries are actually hit
    if ty == "bool":
        return rng.random() < 0.5
    if pool and rng.random() < 0.5:
        return pool[rng.randrange(len(pool))]
    return rng.randint(domain[0], domain[1])


def _sample_word(r: rx.Regex, rng: random.Random) -> Optional[tuple[str, ...]]:
    """Random word of the language via a derivative walk; None when the
    language is empty."""
    out: list[str] = []
    while True:
        starts = sorted(rx.first(r))
        if rx.nullable(r) and (
            not starts or len(out) >= _WORD_CAP or rng.random() < _STOP_PROB
        ):
            return tuple(out)
        if not starts:
            return None
        a = starts[rng.randrange(len(starts))]
        out.append(a)
        r = rx.derive(a, r)


class _Run:
    """The mutable part of one run: its generator, fuel and trace, and the
    globals."""

    __slots__ = ("rng", "fuel", "trace", "globals")

    def __init__(self, rng: random.Random, fuel: int) -> None:
        self.rng = rng
        self.fuel = fuel
        self.trace: list[str] = []
        self.globals: dict[str, Value] = {}


# A compiled command runs on a run and an environment `(frame, globals)`.
Code = Callable[[_Run, Env], None]


def _burn(r: _Run) -> None:
    r.fuel -= 1
    if r.fuel < 0:
        raise _OutOfFuel()


def _selector(local: dict[str, str], post: Optional[tuple[str, ...]] = None) -> Selector:
    """Where a command of a procedure with locals `local` reads a variable:
    the frame (0) or the globals (1), since locals cannot shadow globals.  A
    primed variable reads the third mapping, which only a relation has; with
    `post` given, only the primed variables it names do."""

    def select(v: Var) -> int:
        if v.primed and (post is None or v.name in post):
            return 2
        return 0 if v.name in local else 1

    return select


class CompiledProgram:
    """A program compiled for execution: every command of every procedure
    becomes a closure, its statement type tested once, here, and each
    variable resolved to the frame or the globals."""

    def __init__(self, p: Program) -> None:
        self.program = p
        self.procedures: dict[str, Callable[..., dict[str, Value]]] = {}
        for name, proc in p.procedures.items():
            self.procedures[name] = self._procedure(proc)

    def _procedure(self, proc: Procedure) -> Callable[..., dict[str, Value]]:
        if proc.body is None:
            spec = self._spec(proc.spec_stmt(), {})

            def bodiless(r: _Run) -> dict[str, Value]:
                spec(r, ({}, r.globals))
                return {}

            return bodiless
        zero = {name: False if ty == "bool" else 0 for name, ty in proc.locals.items()}
        body = self._command(proc.body, proc.locals)

        def bodied(r: _Run, frame_init: Optional[dict] = None) -> dict[str, Value]:
            frame = dict(zero)
            if frame_init:
                frame.update({k: v for k, v in frame_init.items() if k in frame})
            body(r, (frame, r.globals))
            return frame

        return bodied

    def _command(self, c: Command, local: dict[str, str]) -> Code:
        select = _selector(local)
        if isinstance(c, Seq):
            stmts = tuple(self._command(s, local) for s in c.stmts)

            def seq(r: _Run, env: Env) -> None:
                for s in stmts:
                    s(r, env)

            return seq
        if isinstance(c, Emit):
            event = c.event
            return lambda r, env: r.trace.append(event)
        if isinstance(c, Assign):
            i, var = select(Var(c.var)), c.var
            value = (
                compile_term(c.value, select)
                if isinstance(c.value, Term)
                else compile_formula(c.value, select)
            )

            def assign(r: _Run, env: Env) -> None:
                env[i][var] = value(env)

            return assign
        if isinstance(c, Havoc):
            i, var = select(Var(c.var)), c.var
            ty = local.get(var) or self.program.var_type(var) or "int"
            domain, pool = self.program.int_domain, self.program.int_pool

            def havoc(r: _Run, env: Env) -> None:
                env[i][var] = _sample_value(ty, r.rng, domain, pool)

            return havoc
        if isinstance(c, If):
            test = compile_formula(c.test, select)
            then, orelse = self._command(c.then, local), self._command(c.orelse, local)

            def if_(r: _Run, env: Env) -> None:
                (then if test(env) else orelse)(r, env)

            return if_
        if isinstance(c, While):
            test = compile_formula(c.test, select)
            body = self._command(c.body, local)

            def while_(r: _Run, env: Env) -> None:
                while test(env):
                    _burn(r)
                    body(r, env)

            return while_
        if isinstance(c, Call):
            procedures, callee = self.procedures, c.proc

            def call(r: _Run, env: Env) -> None:
                _burn(r)
                procedures[callee](r)

            return call
        if isinstance(c, SpecStmt):
            return self._spec(c, local)
        if isinstance(c, Abort):
            def abort(r: _Run, env: Env) -> None:
                raise _Aborted()

            return abort
        raise ValueError(f"cannot execute {c!r}")

    def _spec(self, c: SpecStmt, local: dict[str, str]) -> Code:
        """Guard, relation and completed trace options compiled once.  The
        relation reads a primed modified variable from the candidate
        values, the third mapping of its environment, and every other
        variable from the state before the statement."""
        p = self.program
        select = _selector(local)
        guard = compile_formula(c.guard, select)
        rel = compile_formula(c.rel, _selector(local, c.mods))
        lang = compile_spec(complete(c.trace), select)
        mods = tuple(
            (m, select(Var(m)), local.get(m) or p.var_type(m) or "int") for m in c.mods
        )
        retries = _SPEC_RETRIES if mods else 1
        domain, pool = p.int_domain, p.int_pool

        def spec(r: _Run, env: Env) -> None:
            if not guard(env):
                raise _Aborted()
            for _ in range(retries):
                candidate = {m: _sample_value(ty, r.rng, domain, pool) for m, _, ty in mods}
                if rel((env[0], env[1], candidate)):
                    break
            else:
                raise _OutOfFuel()  # no transition found within the retry bound
            allowed = lang(env)  # at the state before the update
            for m, i, _ in mods:
                env[i][m] = candidate[m]
            word = _sample_word(allowed, r.rng)
            if word is None:
                raise _OutOfFuel()  # no trace permitted here: the statement is stuck
            r.trace.extend(word)

        return spec


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
    procedure's locals are honored as their arbitrary initial values.
    """
    code = p if isinstance(p, CompiledProgram) else CompiledProgram(p)
    prog = code.program
    proc = prog.procedures.get(entry)
    if proc is None or proc.body is None:
        raise ValueError(f"no executable procedure {entry!r}")
    r = _Run(seed if isinstance(seed, random.Random) else random.Random(seed), fuel)
    for name, gv in prog.variables.items():
        if name in s0:
            r.globals[name] = s0[name]
        elif gv.init is not None:
            r.globals[name] = gv.init
        else:
            raise ValueError(f"pre-state misses global {name!r}")
    frame_init = {k: v for k, v in s0.items() if k in proc.locals}
    enter = code.procedures[entry]
    try:
        frame = enter(r, frame_init)
    except _Aborted:
        return RunResult("aborted", None, tuple(r.trace))
    except (_OutOfFuel, RecursionError):
        # a run deep enough to exhaust Python's stack is cut off like one that
        # exhausts its fuel
        return RunResult("fuel", None, tuple(r.trace))
    final = dict(r.globals)
    final.update(frame)
    return RunResult("stopped", final, tuple(r.trace))
@dataclass
class Violation:
    run: int  # the run's 0-based index within its check
    pre_state: dict[str, Value]
    trace: tuple[str, ...]
    reason: str  # "postcondition" | "trace" | "aborted"
    detail: str = ""


@dataclass
class OracleReport:
    entry: str
    runs: int
    completed: int = 0
    fuel_exhausted: int = 0
    violations: list[Violation] = field(default_factory=list)

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


def _sample_pre_state(
    p: Program,
    proc: Procedure,
    requires: Callable[[tuple], bool],
    rng: random.Random,
    attempts: int = 500,
) -> dict[str, Value]:
    for _ in range(attempts):
        state: dict[str, Value] = {}
        for name, gv in p.variables.items():
            state[name] = _sample_value(gv.type, rng, p.int_domain, p.int_pool)
        for name, ty in proc.locals.items():
            state[name] = _sample_value(ty, rng, p.int_domain, p.int_pool)
        if requires((state, None)):
            return state
    raise NoSatisfyingState(
        f"no pre-state satisfying the precondition of {proc.name!r} "
        f"after {attempts} attempts"
    )


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
    code = CompiledProgram(p)
    requires = compile_formula(proc.requires, by_prime)
    ensures = compile_formula(proc.ensures, by_prime)
    contract_lang = compile_spec(complete(proc.trace), by_prime)
    report = OracleReport(entry=entry, runs=runs)
    rng = random.Random(seed)
    for i in range(runs):
        pre = _sample_pre_state(p, proc, requires, rng)
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
        if not ensures((pre, final)):
            report.violations.append(
                Violation(i, pre, result.trace, "postcondition",
                          f"final state {final}")
            )
            continue
        allowed = contract_lang((final, None))
        if not rx.member(result.trace, allowed):
            report.violations.append(
                Violation(i, pre, result.trace, "trace",
                          f"not in {rx.render(allowed)}")
            )
    return report
