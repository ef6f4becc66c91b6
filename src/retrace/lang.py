"""The while-language: AST, concrete syntax, parser, and static checks.

Programs declare a finite event alphabet, integer constants, typed global
variables, and procedures whose contracts carry pre-/postconditions and
trace specifications.  Loops take invariant and trace annotations.  The
concrete syntax is C-like; auxiliary material lives inside `_(...)`
annotations and `//` starts a line comment.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import Any, Callable, NamedTuple, Optional, Union

from . import regex as rx
from .formula import (
    FALSE,
    TRUE,
    BoolRef,
    Cmp,
    Formula,
    BoolLit,
    Term,
    Var,
    atom_vars,
    atoms,
    cmp,
    conj,
    disj,
    implies,
    neg,
    render_formula,
    tconst,
    term_sum,
    tvar,
)
from .record import Frozen, Record, set_field
from .tracespec import TraceOption, TraceSpec


class SourceError(Exception):
    """Error with an optional source position."""

    def __init__(self, msg: str, line: Optional[int] = None, col: Optional[int] = None):
        self.msg = msg
        self.line = line
        self.col = col
        where = f"{line}:{col}: " if line is not None else ""
        super().__init__(where + msg)


class ParseError(SourceError):
    pass


class UndeclaredEvent(SourceError):
    pass


class UndeclaredVariable(SourceError):
    pass


class DuplicateName(SourceError):
    pass


class TypeMismatch(SourceError):
    pass


class UnboundName(SourceError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Span(Frozen):
    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        set_field(self, "line", line)
        set_field(self, "col", col)


class Command(Frozen):
    __slots__ = ()
    _uncompared = ("span",)


class SpecStmt(Command):
    """Atomic specification statement: when `guard` holds, update `mods` to
    values related by `rel` (primed = new) while emitting a trace of
    `trace`; aborts when the guard fails."""

    __slots__ = ("mods", "guard", "rel", "trace", "span")

    def __init__(self, mods: tuple[str, ...], guard: Formula, rel: Formula, trace: TraceSpec,
                 span: Optional[Span] = None) -> None:
        set_field(self, "mods", mods)
        set_field(self, "guard", guard)
        set_field(self, "rel", rel)
        set_field(self, "trace", trace)
        set_field(self, "span", span)


class Emit(Command):
    __slots__ = ("event", "span")

    def __init__(self, event: str, span: Optional[Span] = None) -> None:
        set_field(self, "event", event)
        set_field(self, "span", span)


class Assign(Command):
    __slots__ = ("var", "value", "span")

    def __init__(self, var: str, value: Union[Term, Formula], span: Optional[Span] = None) -> None:
        set_field(self, "var", var)
        set_field(self, "value", value)
        set_field(self, "span", span)


class Havoc(Command):
    __slots__ = ("var", "span")

    def __init__(self, var: str, span: Optional[Span] = None) -> None:
        set_field(self, "var", var)
        set_field(self, "span", span)


class Seq(Command):
    __slots__ = ("stmts",)

    def __init__(self, stmts: tuple[Command, ...] = ()) -> None:
        set_field(self, "stmts", stmts)


class If(Command):
    __slots__ = ("test", "then", "orelse", "span")

    def __init__(self, test: Formula, then: Command, orelse: Command, span: Optional[Span] = None) -> None:
        set_field(self, "test", test)
        set_field(self, "then", then)
        set_field(self, "orelse", orelse)
        set_field(self, "span", span)


class While(Command):
    __slots__ = ("test", "invariant", "trace_inv", "body", "local_trace", "span")

    def __init__(self, test: Formula, invariant: Formula, trace_inv: TraceSpec, body: Command,
                 local_trace: bool = False, span: Optional[Span] = None) -> None:
        set_field(self, "test", test)
        set_field(self, "invariant", invariant)
        set_field(self, "trace_inv", trace_inv)
        set_field(self, "body", body)
        set_field(self, "local_trace", local_trace)
        set_field(self, "span", span)


class Call(Command):
    __slots__ = ("proc", "span")

    def __init__(self, proc: str, span: Optional[Span] = None) -> None:
        set_field(self, "proc", proc)
        set_field(self, "span", span)


class Abort(Command):
    """Unconditional guard failure, `<-: false ~> true | ()>`."""

    __slots__ = ("span",)

    def __init__(self, span: Optional[Span] = None) -> None:
        set_field(self, "span", span)


class GlobalVar(Frozen):
    __slots__ = ("name", "type", "init")

    def __init__(self, name: str, type: str, init: Optional[Union[bool, int]] = None) -> None:
        set_field(self, "name", name)
        set_field(self, "type", type)  # "bool" | "int"
        set_field(self, "init", init)


class Procedure(Record):
    __slots__ = ("name", "requires", "ensures", "trace", "modifies", "locals", "body", "span", "implicit", "mod_set")
    _uncompared = ("span", "implicit", "mod_set")

    def __init__(self, name: str, requires: Formula = TRUE, ensures: Formula = TRUE, trace: TraceSpec = TraceSpec(),
                 modifies: tuple[str, ...] = (), locals: Optional[dict[str, str]] = None,
                 body: Optional[Command] = None, span: Optional[Span] = None, implicit: bool = False,
                 mod_set: Optional[frozenset[str]] = None) -> None:
        self.name, self.requires, self.ensures, self.trace, self.modifies = name, requires, ensures, trace, modifies
        self.locals = {} if locals is None else locals
        self.body, self.span, self.implicit, self.mod_set = body, span, implicit, mod_set

    @property
    def writes(self) -> frozenset[str]:
        """The globals a call may write: the resolved mod set, or before
        resolution the declared `modifies`."""
        return self.mod_set if self.mod_set is not None else frozenset(self.modifies)

    def spec_stmt(self, span: Optional[Span] = None) -> SpecStmt:
        """The contract as one spec statement, as a call or a bodiless
        procedure runs it."""
        return SpecStmt(tuple(sorted(self.writes)), self.requires, self.ensures, self.trace, span=span)


class Program(Record):
    __slots__ = ("events", "consts", "variables", "procedures", "source", "entry", "int_domain", "int_pool")
    _uncompared = ("source", "entry", "int_domain", "int_pool")

    def __init__(self, events: tuple[str, ...] = (), consts: Optional[dict[str, int]] = None,
                 variables: Optional[dict[str, GlobalVar]] = None, procedures: Optional[dict[str, Procedure]] = None,
                 source: str = "<input>", entry: Optional[str] = None, int_domain: tuple[int, int] = (-8, 8),
                 int_pool: tuple[int, ...] = ()) -> None:
        self.events = events
        self.consts = {} if consts is None else consts
        self.variables = {} if variables is None else variables
        self.procedures = {} if procedures is None else procedures
        self.source, self.entry, self.int_domain, self.int_pool = source, entry, int_domain, int_pool

    def var_type(self, name: str, proc: Optional[Procedure] = None) -> Optional[str]:
        if proc is not None and name in proc.locals:
            return proc.locals[name]
        gv = self.variables.get(name)
        return gv.type if gv else None


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "events", "const", "bool", "int", "proc", "if", "else", "while",
    "true", "false", "nondet", "requires", "ensures", "trace", "invariant",
    "emit", "modifies", "local",
}

_SYMBOLS = [
    "==>", "==", "!=", "<=", ">=", "&&", "||", "_(",
    "(", ")", "{", "}", ";", ",", "=", "!", "<", ">", "+", "-", "*", "|",
]

# One match per token: a gap of blanks, newlines and `//` comments, then one
# group per token kind.  Blanks are spelled out because `\s` would also skip a
# form feed or a no-break space, which are unexpected characters.  A primed
# name keeps its prime, so the text alone tells keywords and symbols from any
# other token.  Integers are Unicode decimal digits, which int() accepts; `\w`
# also matches other digits, such as '²', and a word that starts with one is
# an unexpected character.  A comment on the last line belongs to `eof`, which
# sits where that line's code ends.  An unexpected character takes the rest of
# the input, so it is always the last token before an empty `eof`.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*(?=\n))*"
    r"(?:(?P<int>\d+)"
    r"|(?P<sym>" + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))) + ")"
    r"|(?P<pident>\w+')"
    r"|(?P<ident>\w+)"
    r"|(?P<eof>(?://[^\n]*)?\Z)"
    r"|(?P<bad>(?s:.+)))"
)

_Tok = tuple[str, str, int]  # kind, text, character offset


def _spans(src: str) -> Callable[[int], Span]:
    """Maps a character offset of `src` to its 1-based line and column, by
    bisecting the offsets at which lines start."""
    starts = list(accumulate(map((1).__add__, map(len, src.split("\n"))), initial=0))

    def span(off: int) -> Span:
        line = bisect_right(starts, off)
        return Span(line, off - starts[line - 1] + 1)

    return span


def _lex(src: str) -> list[_Tok]:
    """`(kind, text, offset)` for each token of `src`, the last one `eof`."""
    toks = [(k := m.lastgroup, m[k], m.start(k)) for m in _TOKEN.finditer(src)]
    last = toks.pop()
    if toks and toks[-1][0] in ("eof", "bad"):
        last = toks.pop()  # followed by an empty match at the end of the input
    bad = last if last[0] == "bad" else None
    if not src.isascii():  # only then can a word start with a digit
        words = (t for t in toks if t[0] in ("ident", "pident"))
        bad = next((t for t in words if not (t[1][0].isalpha() or t[1][0] == "_")), bad)
    if bad:
        raise ParseError(f"unexpected character {bad[1][0]!r}", *_at(_spans(src)(bad[2])))
    toks.append(("eof", "", last[2]))  # without the comment its match may hold
    return toks


class Token(NamedTuple):
    kind: str  # ident | pident | int | sym | eof
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """The tokens of `src` with their positions; a primed name's text is
    the name without its prime."""
    span = _spans(src)
    return [Token(t[0], _word(t), *_at(span(t[2]))) for t in _lex(src)]


def _word(t: _Tok) -> str:
    """A token's text as messages show it: a name without its prime."""
    return t[1].rstrip("'")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")

# Binding powers of the binary operators; `==>` is right-associative, the
# others left-associative, and comparisons do not chain.
_BINDING = {"==>": 0, "||": 1, "&&": 2, **dict.fromkeys(_COMPARISONS, 3), "+": 4, "-": 4, "*": 5}
# the operators that continue a run built as one node, not re-flattened per operator
_RUNS = {"&&": ("&&",), "||": ("||",), "+": ("+", "-"), "-": ("+", "-")}


class _Parser:
    """Recursive descent over `(kind, text, offset)` tokens; a position is
    computed from the offset only for a span or an error."""

    def __init__(self, src: str, source: str = "<input>") -> None:
        self.toks = _lex(src)
        self.span = _spans(src)
        self.pos = 0
        self.source = source
        self.events: dict[str, None] = {}  # in declaration order
        self.consts: dict[str, int] = {}
        self.globals: dict[str, GlobalVar] = {}
        self.procs: dict[str, Procedure] = {}
        self.cur_locals: dict[str, str] = {}
        self.allow_primed = False

    # token plumbing

    def error(self, msg: str, t: _Tok, cls: type[SourceError] = ParseError) -> SourceError:
        return cls(msg, *_at(self.span(t[2])))

    def accept(self, text: str) -> bool:
        if self.toks[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Tok:
        t = self.toks[self.pos]
        if t[1] != text:
            raise self.error(f"expected {text!r}, found {_word(t)!r}", t)
        self.pos += 1
        return t

    def ident(self, what: str = "identifier") -> _Tok:
        t = self.toks[self.pos]
        if t[0] != "ident" or t[1] in KEYWORDS:
            raise self.error(f"expected {what}, found {_word(t)!r}", t)
        self.pos += 1
        return t

    def event(self) -> str:
        t = self.toks[self.pos]
        if t[1] not in self.events:  # declared events are names, so only a name can be one
            self.ident("event name")
            raise self.error(f"event {t[1]!r} not declared", t, UndeclaredEvent)
        self.pos += 1
        return t[1]

    def clause(self, keywords: tuple[str, ...]) -> Optional[str]:
        """The keyword of an annotation `_(kw ...` with `kw` in `keywords`,
        consumed with its `_(`, or None."""
        toks, pos = self.toks, self.pos
        kw = toks[pos + 1][1] if toks[pos][1] == "_(" else None
        if kw not in keywords:
            return None
        self.pos = pos + 2
        return kw

    # declarations

    def parse_program(self) -> Program:
        toks = self.toks
        while (t := toks[self.pos])[0] != "eof":
            rule = self.DECLARATIONS.get(t[1])
            if rule is None:
                raise self.error(f"expected a declaration, found {_word(t)!r}", t)
            rule(self)
        return Program(
            events=tuple(self.events),
            consts=self.consts,
            variables=self.globals,
            procedures=self.procs,
            source=self.source,
        )

    def _check_fresh(self, t: _Tok) -> None:
        name = t[1]
        if (
            name in self.events
            or name in self.consts
            or name in self.globals
            or name in self.procs
        ):
            raise self.error(f"name {name!r} already declared", t, DuplicateName)

    def parse_events(self) -> None:
        self.pos += 1
        while True:
            t = self.ident("event name")
            self._check_fresh(t)
            self.events[t[1]] = None
            if not self.accept(","):
                break
        self.expect(";")

    def parse_const(self) -> None:
        self.pos += 1
        t = self.ident("constant name")
        self._check_fresh(t)
        self.expect("=")
        negate = self.accept("-")
        num = self.toks[self.pos]
        if num[0] != "int":
            raise self.error("constant initializer must be an integer literal", num)
        self.pos += 1
        self.expect(";")
        self.consts[t[1]] = -int(num[1]) if negate else int(num[1])

    def parse_global(self) -> None:
        ty = self.toks[self.pos][1]
        self.pos += 1
        t = self.ident("variable name")
        self._check_fresh(t)
        init: Optional[Union[bool, int]] = None
        if self.accept("="):
            val = self.parse_expression()
            if _type(val) != ty:
                raise self.error(f"initializer for {ty} variable {t[1]!r} has type {_type(val)}", t, TypeMismatch)
            if isinstance(val, Term) and val.is_const():
                init = val.const
            elif isinstance(val, BoolLit):
                init = val.value
            else:
                raise self.error("global initializer must be constant", t)
        self.expect(";")
        self.globals[t[1]] = GlobalVar(t[1], ty, init)

    def parse_proc(self) -> None:
        sp = self.span(self.toks[self.pos][2])
        self.pos += 1
        t = self.ident("procedure name")
        self._check_fresh(t)
        self.expect("(")
        self.expect(")")
        self.cur_locals = {}
        requires: list[Formula] = []
        ensures: list[Formula] = []
        options: list[TraceOption] = []
        modifies: list[str] = []
        while kw := self.clause(("requires", "ensures", "trace", "modifies")):
            if kw == "requires":
                requires.append(self.parse_formula())
            elif kw == "ensures":
                self.allow_primed = True
                try:
                    ensures.append(self.parse_formula())
                finally:
                    self.allow_primed = False
            elif kw == "modifies":
                modifies.append(self.ident("variable name")[1])
                while self.accept(","):
                    modifies.append(self.ident("variable name")[1])
            else:
                if (t2 := self.toks[self.pos])[1] == "local":
                    raise self.error("'local' trace annotations belong on loops", t2)
                options.append(self.parse_trace_option())
            self.expect(")")
        body = None if self.accept(";") else self.parse_block()
        self.procs[t[1]] = Procedure(
            t[1], requires=conj(*requires), ensures=conj(*ensures),
            trace=TraceSpec(tuple(options)), modifies=tuple(modifies),
            locals=dict(self.cur_locals), body=body, span=sp,
        )

    # statements

    def parse_block(self) -> Seq:
        self.expect("{")
        toks, rules = self.toks, self.STATEMENTS
        stmts: list[Command] = []
        while (t := toks[self.pos])[1] != "}":
            if t[0] == "eof":
                raise self.error("unterminated block", t)
            s = rules.get(t[1], _Parser.parse_simple)(self)
            if s is not None:
                stmts.append(s)
        self.pos += 1
        return Seq(tuple(stmts))

    def parse_simple(self) -> Command:
        """`x = e;`, `x = nondet();` or `p();`."""
        toks, pos = self.toks, self.pos
        t = toks[pos]
        if t[0] != "ident" or t[1] in KEYWORDS:
            raise self.error(f"expected a statement, found {_word(t)!r}", t)
        sp = self.span(t[2])
        if toks[pos + 1][1] == "(":
            self.pos = pos + 2
            self.expect(")")
            self.expect(";")
            return Call(t[1], span=sp)
        self.pos = pos + 1
        self.expect("=")
        stmt = self.parse_assign_rhs(t, sp)
        self.expect(";")
        return stmt

    def parse_emit(self) -> Emit:
        toks, pos = self.toks, self.pos
        kw = toks[pos + 1]
        if kw[1] != "emit":
            raise self.error(f"unexpected annotation {_word(kw)!r} in statement position", kw)
        self.pos = pos + 2
        ev = self.event()
        self.expect(")")
        return Emit(ev, self.span(toks[pos][2]))

    def parse_local_decl(self) -> Optional[Command]:
        ty = self.toks[self.pos][1]
        self.pos += 1
        t = self.ident("variable name")
        if t[1] in self.cur_locals or t[1] in self.globals:
            raise self.error(f"variable {t[1]!r} already declared", t, DuplicateName)
        self._check_fresh(t)
        self.cur_locals[t[1]] = ty
        stmt = self.parse_assign_rhs(t, self.span(t[2])) if self.accept("=") else None
        self.expect(";")
        return stmt

    def parse_assign_rhs(self, name: _Tok, sp: Span) -> Command:
        ty = self._var_type(name[1], name)
        if self.accept("nondet"):
            self.expect("(")
            self.expect(")")
            return Havoc(name[1], span=sp)
        val = self.parse_expression()
        if _type(val) != ty:
            raise self.error(
                f"cannot assign {_type(val)} expression to {ty} variable {name[1]!r}",
                name,
                TypeMismatch,
            )
        return Assign(name[1], val, span=sp)

    def parse_if(self) -> If:
        sp = self.span(self.toks[self.pos][2])
        self.pos += 1
        test = self._test()
        then = self._branch()
        return If(test, then, self._branch() if self.accept("else") else Seq(()), span=sp)

    def _test(self) -> Formula:
        self.expect("(")
        test = self.parse_formula()
        self.expect(")")
        return test

    def _branch(self) -> Command:
        s = self.STATEMENTS.get(self.toks[self.pos][1], _Parser.parse_simple)(self)
        if isinstance(s, Seq):
            return s
        return Seq(() if s is None else (s,))

    def parse_while(self) -> While:
        sp = self.span(self.toks[self.pos][2])
        self.pos += 1
        test = self._test()
        invariants: list[Formula] = []
        options: list[TraceOption] = []
        local_flag = False
        while kw := self.clause(("invariant", "trace")):
            if kw == "invariant":
                invariants.append(self.parse_formula())
            else:
                is_local = self.accept("local")
                option = self.parse_trace_option(is_local)
                t = self.toks[self.pos]
                if options and local_flag != is_local:
                    raise self.error("cannot mix local and full-history trace annotations", t)
                if options and is_local:
                    raise self.error("at most one 'local' trace annotation per loop", t)
                local_flag = is_local
                options.append(option)
            self.expect(")")
        body = self._branch()
        return While(
            test,
            conj(*invariants),
            TraceSpec(tuple(options)),
            body,
            local_trace=local_flag,
            span=sp,
        )

    def parse_trace_option(self, local: bool = False) -> TraceOption:
        """A trace clause `R (if F)?`; a `local` loop clause takes no guard."""
        r = self.parse_regex()
        if not self.accept("if"):
            return TraceOption(r, TRUE)
        if local:
            raise self.error("'local' trace annotations take no guard", self.toks[self.pos])
        return TraceOption(r, self.parse_formula())

    # regular expressions

    def parse_regex(self) -> rx.Regex:
        parts = [self._re_cat()]
        while self.accept("|"):
            parts.append(self._re_cat())
        return rx.choice(*parts)

    def _re_cat(self) -> rx.Regex:
        parts = [self._re_rep()]
        while (t := self.toks[self.pos])[1] == "(" or (t[0] == "ident" and t[1] not in KEYWORDS):
            parts.append(self._re_rep())
        return rx.concat(*parts)

    def _re_rep(self) -> rx.Regex:
        r = self._re_atom()
        while True:
            if self.accept("*"):
                r = rx.star(r)
            elif self.accept("+"):
                r = rx.plus(r)
            else:
                return r

    def _re_atom(self) -> rx.Regex:
        t = self.toks[self.pos]
        if t[0] == "ident" and t[1] not in KEYWORDS:
            return rx.symbol(self.event())
        if self.accept("("):
            if self.accept(")"):
                return rx.EPSILON
            r = self.parse_regex()
            self.expect(")")
            return r
        raise self.error(f"expected a regular expression, found {_word(t)!r}", t)

    # expressions and formulas

    def parse_formula(self) -> Formula:
        t = self.toks[self.pos]
        return self._as_bool(self.parse_expression(), t, "expression")

    def parse_expression(self, min_bp: int = 0) -> Union[Term, Formula]:
        """Precedence climbing over `_BINDING`.  `&&`, `||`, `+` and `-` check
        their left operand at the operator before parsing the right one; the
        other operators check both operands after it."""
        toks = self.toks
        lhs = self._unary()
        while (bp := _BINDING.get((t := toks[self.pos])[1], -1)) >= min_bp:
            self.pos += 1
            check = self._as_bool if bp < 3 else self._as_int
            if t[1] in _RUNS:
                check(lhs, t)
            rhs = self.parse_expression(bp if t[1] == "==>" else bp + 1)
            args = [check(lhs, t), _signed(t, check(rhs, t))]
            while (u := toks[self.pos])[1] in _RUNS.get(t[1], ()):  # one node per run
                self.pos += 1
                args.append(_signed(u, check(self.parse_expression(bp + 1), u)))
            lhs = self._binary(t, *args)
            if bp == 3 and (t2 := toks[self.pos])[1] in _COMPARISONS:
                raise self.error("comparisons cannot be chained", t2)
        return lhs

    def _unary(self) -> Union[Term, Formula]:
        t = self.toks[self.pos]
        if self.accept("!"):
            return neg(self._as_bool(self._unary(), t))
        if self.accept("-"):
            return -self._as_int(self._unary(), t)
        return self._primary()

    def _primary(self) -> Union[Term, Formula]:
        t = kind, text, _ = self.toks[self.pos]
        if kind == "int":
            self.pos += 1
            return tconst(int(text))
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if text == "nondet":
            raise self.error("nondet() is only allowed as the right-hand side of an assignment", t)
        if self.accept("("):
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if kind in ("ident", "pident"):
            if kind == "ident" and text in KEYWORDS:
                raise self.error(f"unexpected keyword {text!r}", t)
            self.pos += 1
            primed = kind == "pident"
            name = _word(t)
            if primed and not self.allow_primed:
                raise self.error("primed variables are only allowed in ensures clauses", t)
            if not primed and name in self.consts:
                return tconst(self.consts[name])
            if self._var_type(name, t) == "bool":
                return BoolRef(Var(name, primed))
            return tvar(name, primed)
        raise self.error(f"expected an expression, found {_word(t)!r}", t)

    def _var_type(self, name: str, t: _Tok) -> str:
        ty = self.cur_locals.get(name)
        if ty is None and name in self.globals:
            ty = self.globals[name].type
        if ty is None:
            raise self.error(f"variable {name!r} not declared", t, UndeclaredVariable)
        return ty

    def _as_bool(self, e: Union[Term, Formula], t: _Tok, what: str = "operand") -> Formula:
        if not isinstance(e, Formula):
            raise self.error(f"expected a boolean {what}", t, TypeMismatch)
        return e

    def _as_int(self, e: Union[Term, Formula], t: _Tok) -> Term:
        if not isinstance(e, Term):
            raise self.error("expected an integer operand", t, TypeMismatch)
        return e

    def _binary(self, t: _Tok, a: Any, b: Any, *more: Any) -> Union[Term, Formula]:
        """`a op b` for the operator token `t`, on operands of the checked type."""
        op = t[1]
        if op == "==>":
            return implies(a, b)
        if op in ("||", "&&"):
            return (disj if op == "||" else conj)(a, b, *more)
        if op in ("+", "-"):  # the operands come signed
            return term_sum((a, b, *more))
        if op == "*":
            if a.is_const():
                return b.scaled(a.const)
            if b.is_const():
                return a.scaled(b.const)
            raise self.error("only linear terms are supported", t)
        if op in (">", ">="):  # a > b is b < a
            op, a, b = op.replace(">", "<"), b, a
        return cmp(op, a, b)

    # one rule per leading token text
    DECLARATIONS = {
        "events": parse_events, "const": parse_const, "bool": parse_global, "int": parse_global, "proc": parse_proc,
    }
    STATEMENTS = {
        "{": parse_block, "if": parse_if, "while": parse_while, "_(": parse_emit,
        "bool": parse_local_decl, "int": parse_local_decl,
    }


def _signed(t: _Tok, e: Any) -> Any:
    """An operand of `t` with the sign it adds under: negated after `-`."""
    return -e if t[1] == "-" else e


def _type(e: Union[Term, Formula]) -> str:
    return "int" if isinstance(e, Term) else "bool"


def parse(src: str, source: str = "<input>") -> Program:
    """Parse a program; raises SourceError subclasses with positions."""
    return _Parser(src, source).parse_program()


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def _pp_trace(spec: TraceSpec, kw: str, pad: str, out: list[str]) -> None:
    for o in spec.options:
        guard = "" if o.guard == TRUE else f" if {render_formula(o.guard)}"
        out.append(f"{pad}_({kw} {rx.render(o.regex)}{guard})")


def _pp_stmt(c: Command, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(c, Seq):
        out.append(pad + "{")
        for s in c.stmts:
            _pp_stmt(s, indent + 1, out)
        out.append(pad + "}")
    elif isinstance(c, Emit):
        out.append(pad + f"_(emit {c.event})")
    elif isinstance(c, Assign):
        out.append(pad + f"{c.var} = {c.value};")
    elif isinstance(c, Havoc):
        out.append(pad + f"{c.var} = nondet();")
    elif isinstance(c, Call):
        out.append(pad + f"{c.proc}();")
    elif isinstance(c, If):
        out.append(pad + f"if ({render_formula(c.test)})")
        _pp_stmt(c.then, indent, out)
        if isinstance(c.orelse, Seq) and not c.orelse.stmts:
            return
        out.append(pad + "else")
        _pp_stmt(c.orelse, indent, out)
    elif isinstance(c, While):
        out.append(pad + f"while ({render_formula(c.test)})")
        if c.invariant != TRUE:
            out.append(pad + f"  _(invariant {render_formula(c.invariant)})")
        _pp_trace(c.trace_inv, "trace local" if c.local_trace else "trace", pad + "  ", out)
        _pp_stmt(c.body, indent, out)
    elif isinstance(c, (SpecStmt, Abort)):
        raise ValueError(f"{type(c).__name__} has no concrete syntax")
    else:
        raise ValueError(f"cannot print {c!r}")


def pretty(p: Program) -> str:
    """Deterministic concrete syntax for a program; parsing it back yields
    an equal AST."""
    out: list[str] = []
    if p.events:
        out.append("events " + ", ".join(p.events) + ";")
        out.append("")
    for name, val in p.consts.items():
        out.append(f"const {name} = {val};")
    if p.consts:
        out.append("")
    for gv in p.variables.values():
        if gv.init is None:
            out.append(f"{gv.type} {gv.name};")
        elif gv.type == "bool":
            out.append(f"{gv.type} {gv.name} = {'true' if gv.init else 'false'};")
        else:
            out.append(f"{gv.type} {gv.name} = {gv.init};")
    if p.variables:
        out.append("")
    for proc in p.procedures.values():
        if proc.implicit:
            continue
        out.append(f"proc {proc.name}()")
        if proc.requires != TRUE:
            out.append(f"  _(requires {render_formula(proc.requires)})")
        if proc.ensures != TRUE:
            out.append(f"  _(ensures {render_formula(proc.ensures)})")
        if proc.modifies:
            out.append("  _(modifies " + ", ".join(proc.modifies) + ")")
        _pp_trace(proc.trace, "trace", "  ", out)
        if proc.body is None:
            out.append(";")
        else:
            body = proc.body
            assert isinstance(body, Seq)
            decls = [f"  {ty} {name};" for name, ty in proc.locals.items()]
            out.append("{")
            out.extend(decls)
            for s in body.stmts:
                _pp_stmt(s, 1, out)
            out.append("}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


# ---------------------------------------------------------------------------
# Resolution and static checks
# ---------------------------------------------------------------------------


class _Resolver:
    def __init__(self, p: Program) -> None:
        self.p = p
        self.ints: set[int] = set()

    def run(self) -> Program:
        p = self.p
        names: set[str] = set()
        for name in (
            list(p.events) + list(p.consts) + list(p.variables) + list(p.procedures)
        ):
            if name in names:
                raise DuplicateName(f"name {name!r} declared more than once")
            names.add(name)
        if "abort" not in p.procedures:
            p.procedures["abort"] = Procedure(
                "abort", requires=TRUE, ensures=FALSE, implicit=True
            )
        self.ints.update(p.consts.values())
        for gv in p.variables.values():
            if isinstance(gv.init, int) and not isinstance(gv.init, bool):
                self.ints.add(gv.init)
        for proc in p.procedures.values():
            self.check_proc(proc)
        self.compute_mod_sets()
        lo = min(self.ints, default=0)
        hi = max(self.ints, default=0)
        p.int_domain = (min(-8, lo - 4), max(8, hi + 4))
        pool = set(self.ints) | {0, 1, -1}
        pool.update(v + d for v in self.ints for d in (-1, 1))
        p.int_pool = tuple(sorted(pool))
        if p.entry is None:
            bodied = [q.name for q in p.procedures.values() if q.body is not None]
            if "main" in bodied:
                p.entry = "main"
            elif bodied:
                p.entry = bodied[0]
        return p

    def check_proc(self, proc: Procedure) -> None:
        p = self.p
        for name, ty in list(proc.locals.items()):
            if ty not in ("bool", "int"):
                raise TypeMismatch(f"bad type {ty!r} for local {name!r}", *_at(proc.span))
        self.check_formula(proc.requires, proc, primed_ok=False)
        self.check_formula(proc.ensures, proc, primed_ok=True)
        self.check_spec(proc.trace, proc, primed_ok=False)
        for m in proc.modifies:
            if p.var_type(m, proc) is None:
                raise UndeclaredVariable(f"modifies lists unknown variable {m!r}", *_at(proc.span))
        if proc.body is not None:
            self.check_cmd(proc.body, proc)

    def check_spec(self, spec: TraceSpec, proc: Procedure, primed_ok: bool) -> None:
        for o in spec.options:
            for ev in rx.alphabet(o.regex):
                if ev not in self.p.events:
                    raise UndeclaredEvent(f"event {ev!r} not declared", *_at(proc.span))
            self.check_formula(o.guard, proc, primed_ok)

    def check_formula(self, f: Formula, proc: Procedure, primed_ok: bool) -> None:
        kinds: dict[Var, str] = {}
        for a in atoms(f):
            if isinstance(a, Cmp):
                self.ints.update((a.lhs.const, a.rhs.const))
            for v in atom_vars(a):
                kinds.setdefault(v, "bool" if isinstance(a, BoolRef) else "int")
        for v in sorted(kinds):
            if v.primed and not primed_ok:
                raise TypeMismatch(f"primed variable {v} not allowed here", *_at(proc.span))
            ty = self.p.var_type(v.name, proc)
            if ty is None:
                raise UndeclaredVariable(f"variable {v.name!r} not declared", *_at(proc.span))
            if kinds[v] != ty:
                raise TypeMismatch(f"variable {v} used as {kinds[v]}, declared {ty}", *_at(proc.span))

    def check_cmd(self, c: Command, proc: Procedure) -> None:
        p = self.p
        if isinstance(c, Seq):
            for s in c.stmts:
                self.check_cmd(s, proc)
        elif isinstance(c, Emit):
            if c.event not in p.events:
                raise UndeclaredEvent(f"event {c.event!r} not declared", *_at(c.span))
        elif isinstance(c, Assign):
            ty = p.var_type(c.var, proc)
            if ty is None:
                raise UndeclaredVariable(f"variable {c.var!r} not declared", *_at(c.span))
            if isinstance(c.value, Term):
                if ty != "int":
                    raise TypeMismatch(f"assigning int expression to {ty} variable {c.var!r}", *_at(c.span))
                self.ints.add(c.value.const)
                for v, _ in c.value.coeffs:
                    if p.var_type(v.name, proc) != "int" or v.primed:
                        raise TypeMismatch(f"bad variable {v} in integer expression", *_at(c.span))
            else:
                if ty != "bool":
                    raise TypeMismatch(f"assigning bool expression to {ty} variable {c.var!r}", *_at(c.span))
                self.check_formula(c.value, proc, primed_ok=False)
        elif isinstance(c, Havoc):
            if p.var_type(c.var, proc) is None:
                raise UndeclaredVariable(f"variable {c.var!r} not declared", *_at(c.span))
        elif isinstance(c, If):
            self.check_formula(c.test, proc, primed_ok=False)
            self.check_cmd(c.then, proc)
            self.check_cmd(c.orelse, proc)
        elif isinstance(c, While):
            self.check_formula(c.test, proc, primed_ok=False)
            self.check_formula(c.invariant, proc, primed_ok=False)
            self.check_spec(c.trace_inv, proc, primed_ok=False)
            if c.local_trace and (
                len(c.trace_inv.options) > 1
                or (c.trace_inv.options and c.trace_inv.options[0].guard != TRUE)
            ):
                raise TypeMismatch("a 'local' loop takes a single unguarded trace", *_at(c.span))
            self.check_cmd(c.body, proc)
        elif isinstance(c, Call):
            if c.proc not in p.procedures:
                raise UnboundName(f"call to undeclared procedure {c.proc!r}", *_at(c.span))
        elif isinstance(c, SpecStmt):
            self.check_formula(c.guard, proc, primed_ok=False)
            self.check_formula(c.rel, proc, primed_ok=True)
            self.check_spec(c.trace, proc, primed_ok=False)
            for m in c.mods:
                if p.var_type(m, proc) is None:
                    raise UndeclaredVariable(f"spec statement modifies unknown variable {m!r}", *_at(c.span))
        elif isinstance(c, Abort):
            pass
        else:
            raise TypeMismatch(f"unknown command {c!r}")

    def compute_mod_sets(self) -> None:
        p = self.p
        base: dict[str, set[str]] = {}
        calls: dict[str, set[str]] = {}
        for name, proc in p.procedures.items():
            mods: set[str] = set(proc.modifies)
            callees: set[str] = set()
            if proc.body is not None:
                _assigned(proc.body, mods, callees)
            base[name] = {m for m in mods if m in p.variables}
            calls[name] = callees
        changed = True
        while changed:
            changed = False
            for name in p.procedures:
                for callee in calls[name]:
                    extra = base.get(callee, set()) - base[name]
                    if extra:
                        base[name] |= extra
                        changed = True
        for name, proc in p.procedures.items():
            proc.mod_set = frozenset(base[name])


def _at(span: Optional[Span]) -> tuple[Optional[int], Optional[int]]:
    return (span.line, span.col) if span else (None, None)


def _assigned(c: Command, mods: set[str], callees: set[str]) -> None:
    if isinstance(c, Seq):
        for s in c.stmts:
            _assigned(s, mods, callees)
    elif isinstance(c, (Assign, Havoc)):
        mods.add(c.var)
    elif isinstance(c, If):
        _assigned(c.then, mods, callees)
        _assigned(c.orelse, mods, callees)
    elif isinstance(c, While):
        _assigned(c.body, mods, callees)
    elif isinstance(c, Call):
        callees.add(c.proc)
    elif isinstance(c, SpecStmt):
        mods.update(c.mods)


def modified_in(c: Command, p: Program) -> set[str]:
    """Variables a command may write, including globals touched by calls."""
    mods: set[str] = set()
    callees: set[str] = set()
    _assigned(c, mods, callees)
    for q in callees:
        proc = p.procedures.get(q)
        if proc is not None:
            mods |= proc.writes
    return mods


def resolve(p: Program) -> Program:
    """Validate names, types, and events; compute per-procedure write sets,
    the sampling domain for integers, and the entry point."""
    return _Resolver(p).run()


def load(src: str, source: str = "<input>") -> Program:
    return resolve(parse(src, source))


def load_file(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return load(fh.read(), path)
