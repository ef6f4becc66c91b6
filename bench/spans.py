"""In-memory spans around calls into retrace's layers, for the traced passes.

Spans are recorded from the benchmark's side only: the tracer swaps module
attributes for wrappers while a pass runs and restores them afterwards, so
nothing under src/ knows it is being traced.  A span's self time is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

import retrace.interp
import retrace.regex
import retrace.verifier
from retrace.solver import BuiltinSolver, SatResult, Solver

SOLVER = "solver.query"
TRACESPEC = "tracespec.inclusion_obligations"
INCLUDED = "regex.included"
MEMBER = "regex.member"
VERIFY = "verifier.verify_program"
LOAD = "lang.load"
RUN = "interp.run"
CHECK = "interp.check_triple_random"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, input id]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.input: Optional[str] = None
        self.counts: Counter[tuple[str, Optional[str]]] = Counter()

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.input]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name, self.input] += n

    def current(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def solver(self) -> Solver:
        return TracedSolver(self)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Route the layers' public entry points through this tracer."""
        verifier, rx, interp = retrace.verifier, retrace.regex, retrace.interp
        inclusions, run = verifier.inclusion_obligations, interp.run
        finalize = verifier.Verifier.finalize_path

        def traced_inclusions(context, left, emitted, right, solver):
            self.count("tracespec.pairs", len(left.options) * len(right.options))
            cases = self.call(TRACESPEC, inclusions, context, left, emitted, right, solver)
            self.count("tracespec.cases", len(cases))
            return cases

        def traced_run(*args):
            result = self.call(RUN, run, *args)
            if result.outcome == "fuel":
                self.count("interp.fuel_exhausted")
            return result

        def counted_finalize(*args):
            self.count("verifier.paths")
            return finalize(*args)

        patches = [
            (verifier, "inclusion_obligations", traced_inclusions),
            (interp, "run", traced_run),
            (verifier.Verifier, "finalize_path", counted_finalize),
            (rx, "included", self._spanned(INCLUDED, rx.included)),
            (rx, "member", self._spanned(MEMBER, rx.member)),
            # far too many calls for a span each: counted, time stays with the caller
            (rx, "derive", self._counted("regex.derive", rx.derive)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _spanned(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args):
            return self.call(name, fn, *args)
        return traced

    def _counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def counted(*args):
            if self._stack:  # not the benchmark's own witness checks
                counts[name, self.input] += 1
            return fn(*args)
        return counted

    def per_input(self, name: str) -> dict[str, int]:
        return {inp: n for (key, inp), n in self.counts.items() if key == name and inp}

    def layer_metrics(self, family: Optional[str] = None) -> dict[str, float]:
        """Per-layer totals, over every input or only over the inputs whose
        id starts with `family` and a slash."""
        def wanted(inp: Optional[str]) -> bool:
            return family is None or (inp or "").startswith(family + "/")

        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        longest: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, inp) in enumerate(self.spans):
            if not wanted(inp):
                continue
            d = end - start
            calls[name] += 1
            total[name] += d
            own[name] += d - child[i]
            longest[name] = max(longest[name], d)
        counts: Counter[str] = Counter()
        for (name, inp), n in self.counts.items():
            if wanted(inp):
                counts[name] += n
        pairs = counts["tracespec.pairs"]
        return {
            "solver.queries": calls[SOLVER],
            "solver.memo_hits": counts["solver.memo_hits"],
            "solver.busy_s": total[SOLVER],
            "solver.max_query_s": longest[SOLVER],
            "solver.unknown": counts["solver.unknown"],
            "solver.queries_from_tracespec": counts["solver.queries_from_tracespec"],
            "tracespec.calls": calls[TRACESPEC],
            "tracespec.pairs": pairs,
            "tracespec.cases": counts["tracespec.cases"],
            "tracespec.useful_share": counts["tracespec.cases"] / pairs if pairs else 0.0,
            "tracespec.self_s": own[TRACESPEC],
            "regex.inclusions": calls[INCLUDED],
            "regex.included_s": total[INCLUDED],
            "regex.max_included_s": longest[INCLUDED],
            "regex.derive_calls": counts["regex.derive"],
            "regex.member_s": total[MEMBER],
            "verifier.self_s": own[VERIFY],
            "verifier.paths": counts["verifier.paths"],
            "verifier.obligations": counts["verifier.obligations"],
            "verifier.failed_obligations": counts["verifier.failed_obligations"],
            "lang.load_s": total[LOAD],
            "lang.loads": calls[LOAD],
            "interp.runs": calls[RUN],
            "interp.run_s": total[RUN],
            "interp.runs_per_s": calls[RUN] / total[RUN] if total[RUN] else 0.0,
            "interp.fuel_exhausted": counts["interp.fuel_exhausted"],
            "interp.check_self_s": own[CHECK],
        }


class TracedSolver(Solver):
    """A fresh BuiltinSolver whose every query is a span.

    `entails` is inherited from Solver and goes through `satisfiable`, so
    each query is seen once.  A formula asked again counts as a memo hit,
    because the built-in memo is per instance and never evicts.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.inner = BuiltinSolver()
        self.seen: set[Any] = set()

    def satisfiable(self, f) -> SatResult:
        t = self.tracer
        if f in self.seen:
            t.count("solver.memo_hits")
        else:
            self.seen.add(f)
        if t.current() == TRACESPEC:
            t.count("solver.queries_from_tracespec")
        result = t.call(SOLVER, self.inner.satisfiable, f)
        if result.status == "unknown":
            t.count("solver.unknown")
        return result
