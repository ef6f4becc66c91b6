"""Concrete big-step execution with trace collection, and a randomized
contract checker built on top of it.

Runs are deterministic for a given seed.  Nondeterminism (havoc, loop
exits, specification statements, bodiless procedures) is resolved by a
seeded generator; diverging runs are cut off by fuel and reported
separately, never judged.
"""

from __future__ import annotations

import random
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Optional, Union

from . import regex as rx
from .formula import GroundState, Term, eval_term, evaluate
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
from .tracespec import complete, eval_at

_SPEC_RETRIES = 64
_WORD_CAP = 8
_STOP_PROB = 0.4


class NoSatisfyingState(Exception):
    """Rejection sampling found no pre-state satisfying the precondition."""


@dataclass
class RunResult:
    outcome: str  # "stopped" | "aborted" | "fuel"
    state: Optional[dict[str, Union[bool, int]]]
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
) -> Union[bool, int]:
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


class _Exec:
    def __init__(self, p: Program, rng: random.Random, fuel: int) -> None:
        self.p = p
        self.rng = rng
        self.fuel = fuel
        self.trace: list[str] = []
        self.globals: dict[str, Union[bool, int]] = {}

    def burn(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise _OutOfFuel()

    def state_view(self, frame: dict) -> ChainMap:
        return ChainMap(frame, self.globals)

    def set_var(self, name: str, value: Union[bool, int], frame: dict) -> None:
        if name in frame:
            frame[name] = value
        else:
            self.globals[name] = value

    def exec_proc(
        self, proc: Procedure, frame_init: Optional[dict] = None
    ) -> dict[str, Union[bool, int]]:
        if proc.body is None:
            self.exec_spec(proc.spec_stmt(), {})
            return {}
        frame: dict[str, Union[bool, int]] = {
            name: False if ty == "bool" else 0 for name, ty in proc.locals.items()
        }
        if frame_init:
            frame.update({k: v for k, v in frame_init.items() if k in frame})
        self.exec(proc.body, frame)
        return frame

    def exec(self, c: Command, frame: dict) -> None:
        if isinstance(c, Seq):
            for s in c.stmts:
                self.exec(s, frame)
        elif isinstance(c, Emit):
            self.trace.append(c.event)
        elif isinstance(c, Assign):
            view = self.state_view(frame)
            if isinstance(c.value, Term):
                self.set_var(c.var, eval_term(c.value, view), frame)
            else:
                self.set_var(c.var, evaluate(c.value, view), frame)
        elif isinstance(c, Havoc):
            ty = "bool" if isinstance(self.state_view(frame).get(c.var), bool) else "int"
            self.set_var(c.var, _sample_value(ty, self.rng, self.p.int_domain, self.p.int_pool), frame)
        elif isinstance(c, If):
            if evaluate(c.test, self.state_view(frame)):
                self.exec(c.then, frame)
            else:
                self.exec(c.orelse, frame)
        elif isinstance(c, While):
            while evaluate(c.test, self.state_view(frame)):
                self.burn()
                self.exec(c.body, frame)
        elif isinstance(c, Call):
            self.burn()
            self.exec_proc(self.p.procedures[c.proc])
        elif isinstance(c, SpecStmt):
            self.exec_spec(c, frame)
        elif isinstance(c, Abort):
            raise _Aborted()
        else:
            raise ValueError(f"cannot execute {c!r}")

    def exec_spec(self, c: SpecStmt, frame: dict) -> None:
        view = self.state_view(frame)
        if not evaluate(c.guard, view):
            raise _Aborted()
        pre = dict(view)
        if c.mods:
            for _ in range(_SPEC_RETRIES):
                candidate = {}
                for m in c.mods:
                    ty = self.p.var_type(m)
                    if ty is None:
                        ty = "bool" if isinstance(view.get(m), bool) else "int"
                    candidate[m] = _sample_value(ty, self.rng, self.p.int_domain, self.p.int_pool)
                post = dict(pre)
                post.update(candidate)
                if evaluate(c.rel, pre, post):
                    for m, v in candidate.items():
                        self.set_var(m, v, frame)
                    break
            else:
                raise _OutOfFuel()  # no transition found within the retry bound
        else:
            if not evaluate(c.rel, pre, pre):
                raise _OutOfFuel()
        lang = eval_at(complete(c.trace), pre)
        word = _sample_word(lang, self.rng)
        if word is None:
            raise _OutOfFuel()  # no trace permitted here: the statement is stuck
        self.trace.extend(word)


def run(
    p: Program,
    entry: str,
    s0: GroundState,
    seed: int,
    fuel: int = 256,
) -> RunResult:
    """Execute `entry` from the pre-state `s0`, deterministically in `seed`.

    `s0` must assign every global; entries for the procedure's locals are
    honored as their arbitrary initial values.
    """
    proc = p.procedures.get(entry)
    if proc is None or proc.body is None:
        raise ValueError(f"no executable procedure {entry!r}")
    ex = _Exec(p, random.Random(seed), fuel)
    for name, gv in p.variables.items():
        if name in s0:
            ex.globals[name] = s0[name]
        elif gv.init is not None:
            ex.globals[name] = gv.init
        else:
            raise ValueError(f"pre-state misses global {name!r}")
    frame_init = {k: v for k, v in s0.items() if k in proc.locals}
    try:
        frame = ex.exec_proc(proc, frame_init)
    except _Aborted:
        return RunResult("aborted", None, tuple(ex.trace))
    except _OutOfFuel:
        return RunResult("fuel", None, tuple(ex.trace))
    final = dict(ex.globals)
    final.update(frame)
    return RunResult("stopped", final, tuple(ex.trace))


@dataclass
class Violation:
    run_seed: int
    pre_state: dict[str, Union[bool, int]]
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
                    "seed": v.run_seed,
                    "pre_state": dict(sorted(v.pre_state.items())),
                    "trace": list(v.trace),
                    "reason": v.reason,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


def _sample_pre_state(
    p: Program, proc: Procedure, rng: random.Random, attempts: int = 500
) -> dict[str, Union[bool, int]]:
    for _ in range(attempts):
        state: dict[str, Union[bool, int]] = {}
        for name, gv in p.variables.items():
            state[name] = _sample_value(gv.type, rng, p.int_domain, p.int_pool)
        for name, ty in proc.locals.items():
            state[name] = _sample_value(ty, rng, p.int_domain, p.int_pool)
        if evaluate(proc.requires, state):
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
    are reported but not judged.
    """
    proc = p.procedures.get(entry)
    if proc is None or proc.body is None:
        raise ValueError(f"no executable procedure {entry!r}")
    report = OracleReport(entry=entry, runs=runs)
    contract_lang = complete(proc.trace)
    for i in range(runs):
        run_seed = seed * 1_000_003 + i
        rng = random.Random(run_seed)
        pre = _sample_pre_state(p, proc, rng)
        result = run(p, entry, pre, run_seed ^ 0x5EED, fuel)
        if result.outcome == "fuel":
            report.fuel_exhausted += 1
            continue
        if result.outcome == "aborted":
            report.violations.append(
                Violation(run_seed, pre, result.trace, "aborted", "run aborted")
            )
            continue
        report.completed += 1
        assert result.state is not None
        final = result.state
        if not evaluate(proc.ensures, pre, final):
            report.violations.append(
                Violation(run_seed, pre, result.trace, "postcondition",
                          f"final state {final}")
            )
            continue
        allowed = eval_at(contract_lang, final)
        if not rx.member(result.trace, allowed):
            report.violations.append(
                Violation(run_seed, pre, result.trace, "trace",
                          f"not in {rx.render(allowed)}")
            )
    return report
