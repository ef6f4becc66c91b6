"""Deductive verification of regular-expression event-trace contracts."""

from .formula import Formula, GroundState, Term, Var, evaluate, substitute
from .interp import OracleReport, RunResult, check_triple_random, run
from .lang import Program, SourceError, load, load_file, parse, pretty, resolve
from .regex import Regex, derive, equivalent, included, member, nullable
from .solver import BuiltinSolver, SmtLibSolver, make_solver
from .tracespec import TraceSpec, complete, eval_at, inclusion_obligations
from .verifier import VerdictReport, Verifier, verify_program

__version__ = "0.1.0"

__all__ = [
    "BuiltinSolver",
    "Formula",
    "GroundState",
    "OracleReport",
    "Program",
    "Regex",
    "RunResult",
    "SmtLibSolver",
    "SourceError",
    "Term",
    "TraceSpec",
    "Var",
    "VerdictReport",
    "Verifier",
    "check_triple_random",
    "complete",
    "derive",
    "equivalent",
    "eval_at",
    "evaluate",
    "included",
    "inclusion_obligations",
    "load",
    "load_file",
    "make_solver",
    "member",
    "nullable",
    "parse",
    "pretty",
    "resolve",
    "run",
    "substitute",
    "verify_program",
]
