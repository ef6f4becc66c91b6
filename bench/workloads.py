"""Benchmark inputs: one list of programs, with their known verdicts, per workload.

Every expectation here comes from the corpus registry or from how a generated
program was built, never from the verifier under test.  Generators are pure
functions of the workload seed, so the same seed gives byte-identical sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

# oracle runs per input; the cross-check of the verification families is
# kept small so that `interp` does the work only on `oracle`
CHECK_RUNS = 16
ORACLE_RUNS = 3000
FUEL = 256

BRANCH_SIZES = (8, 9, 10)
TRACE_SIZES = (1000, 1200, 1400)
EVENTS = ("a", "b", "c", "d")

Word = tuple[str, ...]


@dataclass(frozen=True)
class Input:
    """One operation of a pass: verify `source`, then run the oracle on it."""

    id: str
    source: str
    verified: bool  # the expected verdict
    oracle_runs: int
    # for generated mutants: the one word of the program that the contract
    # excludes, which must be the witness of the only failed obligation
    excluded: Optional[Word] = None
    # straight-line mutants violate on every run, so the oracle must see it
    oracle_must_violate: bool = False
    paths: Optional[int] = None  # symbolic paths by construction


def corpus_inputs(seed: int, runs: int = CHECK_RUNS) -> list[Input]:
    """The 5 registry programs and their 10 mutants; the seed only feeds the
    oracle cross-check."""
    from retrace.corpus import CORPUS, MUTANTS, path

    inputs = []
    for name in list(CORPUS) + list(MUTANTS):
        with open(path(name), encoding="utf-8") as fh:
            source = fh.read()
        inputs.append(Input(f"corpus/{name}", source, name in CORPUS, runs))
    return inputs


def oracle_inputs(seed: int) -> list[Input]:
    return [replace(i, id=i.id.replace("corpus/", "oracle/"))
            for i in corpus_inputs(seed, ORACLE_RUNS) if i.verified]


def _program(events: Word, trace: str, body: list[str]) -> str:
    lines = [f"events {', '.join(sorted(set(events)))};", "", "proc main()",
             f"  _(trace {trace})", "{"]
    lines += ["  " + s for s in body]
    lines.append("}")
    return "\n".join(lines) + "\n"


def branches_program(n: int, rng: random.Random) -> tuple[str, str, Word]:
    """`n` sequential ifs on fresh nondet() values, each arm emitting its own
    event.  Returns the source whose contract accepts all 2^n words, the
    source whose contract excludes exactly one of them, and that word."""
    arms = [tuple(rng.sample(EVENTS, 2)) for _ in range(n)]
    excluded = tuple(arm[rng.getrandbits(1)] for arm in arms)
    body = []
    for i, (then, orelse) in enumerate(arms):
        body.append(f"bool x{i} = nondet();")
        body.append(f"if (x{i}) {{ _(emit {then}) }} else {{ _(emit {orelse}) }}")
    anyword = [f"({t} | {e})" for t, e in arms]
    # words differing from `excluded` first at position i
    others = []
    for i, (then, orelse) in enumerate(arms):
        other = orelse if excluded[i] == then else then
        others.append("(" + " ".join([*excluded[:i], other, *anyword[i + 1:]]) + ")")
    return (
        _program(EVENTS, " ".join(anyword), body),
        _program(EVENTS, " | ".join(others), body),
        excluded,
    )


def branches_inputs(seed: int) -> list[Input]:
    rng = random.Random(f"branches/{seed}")
    inputs = []
    for n in BRANCH_SIZES:
        ok, bad, excluded = branches_program(n, rng)
        inputs.append(Input(f"branches/ifs-{n}", ok, True, CHECK_RUNS, paths=2**n))
        inputs.append(Input(f"branches/ifs-{n}-mutant", bad, False, CHECK_RUNS,
                            excluded=excluded, paths=2**n))
    return inputs


def trace_program(n: int, period: Word) -> tuple[str, str, Word]:
    """A straight line of about `n` emits repeating `period`, with the
    contract `(period)*`.  Returns that source, the source with one extra
    event at the end, and the mutant's whole word."""
    word = period * (n // len(period))
    extra = word + period[:1]
    trace = "(" + " ".join(period) + ")*"

    def source(w: Word) -> str:
        return _program(EVENTS, trace, [f"_(emit {e})" for e in w])

    return source(word), source(extra), extra


def trace_inputs(seed: int) -> list[Input]:
    # distinct events and one period for all sizes, so that only the names,
    # not the cost, depend on the seed
    period = tuple(random.Random(f"trace/{seed}").sample(EVENTS, 3))
    inputs = []
    for n in TRACE_SIZES:
        ok, bad, extra = trace_program(n, period)
        inputs.append(Input(f"trace/emits-{n}", ok, True, 1, paths=1))
        inputs.append(Input(f"trace/emits-{n}-mutant", bad, False, 1,
                            excluded=extra, oracle_must_violate=True, paths=1))
    return inputs


def verify_inputs(seed: int) -> list[Input]:
    """The three verification families in one pass, `trace` last so that its
    large regex heap does not slow the others.  Input ids start with the
    family name, which the traced run splits by."""
    return corpus_inputs(seed) + branches_inputs(seed) + trace_inputs(seed)


MAKERS: dict[str, Callable[[int], list[Input]]] = {
    "verify": verify_inputs,
    "oracle": oracle_inputs,
}
