"""The while-language: AST, concrete syntax, parser, and static checks.

Programs declare a finite event alphabet, integer constants, typed global
variables, and procedures whose contracts carry pre-/postconditions and
trace specifications.  Loops take invariant and trace annotations.  The
concrete syntax is C-like; auxiliary material lives inside `_(...)`
annotations and `//` starts a line comment.
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple, Optional, Union

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
# an unexpected character.  `eof` is an empty group where the code of the last
# line ends, before the comment its match may hold.  An unexpected character
# takes the rest of the input, so it is always the last token before `eof`.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*(?=\n))*"
    r"(?:(?P<int>\d+)"
    r"|(?P<sym>" + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))) + ")"
    r"|(?P<pident>\w+')"
    r"|(?P<ident>\w+)"
    r"|(?P<eof>)(?://[^\n]*)?\Z"
    r"|(?P<bad>(?s:.+)))"
)


class _Lines:
    """The 1-based line and column of character offsets of `src`.  It counts
    newlines on from the offset asked before, so offsets asked in increasing
    order read the source once; an earlier offset counts from the start."""

    __slots__ = ("src", "off", "line", "start")

    def __init__(self, src: str) -> None:
        self.src = src
        self.off, self.line, self.start = 0, 1, 0  # the offset asked before, its line, where that starts

    def at(self, off: int) -> Span:
        if off < self.off:
            self.off, self.line, self.start = 0, 1, 0
        if newlines := self.src.count("\n", self.off, off):
            self.line += newlines
            self.start = self.src.rfind("\n", self.off, off) + 1
        self.off = off
        return Span(self.line, off - self.start + 1)


def _unexpected(src: str) -> Optional[ParseError]:
    """The error for the first character of `src` that starts no token: the
    one the other kinds leave to `bad`, or a word's first character when it
    is not a letter or `_`."""
    for m in _TOKEN.finditer(src):
        kind, off = m.lastgroup, m.start(m.lastindex)  # type: ignore[arg-type]
        if kind == "bad" or (kind in ("ident", "pident") and not _is_name(src[off])):
            return ParseError(f"unexpected character {src[off]!r}", *_at(_Lines(src).at(off)))
    return None


def _is_name(word: str) -> bool:
    """Whether a word token starts with a letter or `_`, as a name does."""
    return word[0].isalpha() or word[0] == "_"


class Token(NamedTuple):
    kind: str  # ident | pident | int | sym | eof
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """The tokens of `src`, as the parser reads them, with their positions;
    a primed name's text is the name without its prime."""
    if error := _unexpected(src):
        raise error
    p, toks = _Parser(src), []
    while not toks or toks[-1].kind != "eof":
        toks.append(Token(p.kind, _word(p.text), *_at(p.where(p.m))))
        p.advance()
    return toks


def _word(text: str) -> str:
    """A token's text as messages show it: a name without its prime."""
    return text.rstrip("'")


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
    """Recursive descent over the `_TOKEN` matches, read as the parser moves:
    it sees the current token, as its match `m`, `kind` and `text`, and the
    next one's match `m1`.  A token kept for a later error is kept as its
    match, whose position is computed only for a span or an error.  A word
    that starts with neither a letter nor `_` is an unexpected character,
    which `parse` reports; `ident` and `parse_simple`, the rules that take a
    name without looking it up, reject it, so none is ever accepted."""

    def __init__(self, src: str, source: str = "<input>") -> None:
        self.matches = _TOKEN.finditer(src)
        self.lines = _Lines(src)
        self.m1 = next(self.matches)
        self.advance()
        self.source = source
        self.events: dict[str, None] = {}  # in declaration order
        self.consts: dict[str, int] = {}
        self.globals: dict[str, GlobalVar] = {}
        self.procs: dict[str, Procedure] = {}
        self.cur_locals: dict[str, str] = {}
        self.allow_primed = False

    # token plumbing

    def advance(self) -> None:
        """Make the next token current and read the one after it; past the
        end, the `eof` token stays in view."""
        self.m = m = self.m1
        self.kind = kind = m.lastgroup
        self.text = m[kind]
        self.m1 = next(self.matches, m)

    def peek(self) -> str:
        """The next token's text."""
        m = self.m1
        return m[m.lastindex]

    def where(self, m: re.Match) -> Span:
        return self.lines.at(m.start(m.lastindex))  # type: ignore[arg-type]

    def error(self, msg: str, m: re.Match, cls: type[SourceError] = ParseError) -> SourceError:
        return cls(msg, *_at(self.where(m)))

    def unexpected(self, what: str) -> SourceError:
        return self.error(f"expected {what}, found {_word(self.text)!r}", self.m)

    def accept(self, text: str) -> bool:
        if self.text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> None:
        if self.text != text:
            raise self.unexpected(repr(text))
        self.advance()

    def ident(self, what: str = "identifier") -> str:
        name = self.text
        if self.kind != "ident" or name in KEYWORDS or not _is_name(name):
            raise self.unexpected(what)
        self.advance()
        return name

    def event(self) -> str:
        name = self.text
        if name not in self.events:  # declared events are names, so only a name can be one
            m = self.m
            self.ident("event name")
            raise self.error(f"event {name!r} not declared", m, UndeclaredEvent)
        self.advance()
        return name

    def clause(self, keywords: tuple[str, ...]) -> Optional[str]:
        """The keyword of an annotation `_(kw ...` with `kw` in `keywords`,
        consumed with its `_(`, or None."""
        kw = self.peek() if self.text == "_(" else None
        if kw not in keywords:
            return None
        self.advance()
        self.advance()
        return kw

    # declarations

    def parse_program(self) -> Program:
        while self.kind != "eof":
            rule = self.DECLARATIONS.get(self.text)
            if rule is None:
                raise self.unexpected("a declaration")
            rule(self)
        return Program(
            events=tuple(self.events),
            consts=self.consts,
            variables=self.globals,
            procedures=self.procs,
            source=self.source,
        )

    def fresh(self, what: str) -> tuple[str, re.Match]:
        """A name, read by `ident`, that names nothing declared yet, and its match."""
        m = self.m
        name = self.ident(what)
        if (
            name in self.events
            or name in self.consts
            or name in self.globals
            or name in self.procs
        ):
            raise self.error(f"name {name!r} already declared", m, DuplicateName)
        return name, m

    def parse_events(self) -> None:
        self.advance()
        while True:
            self.events[self.fresh("event name")[0]] = None
            if not self.accept(","):
                break
        self.expect(";")

    def parse_const(self) -> None:
        self.advance()
        name, _ = self.fresh("constant name")
        self.expect("=")
        negate = self.accept("-")
        if self.kind != "int":
            raise self.error("constant initializer must be an integer literal", self.m)
        value = int(self.text)
        self.advance()
        self.expect(";")
        self.consts[name] = -value if negate else value

    def parse_global(self) -> None:
        ty = self.text
        self.advance()
        name, m = self.fresh("variable name")
        init: Optional[Union[bool, int]] = None
        if self.accept("="):
            val = self.parse_expression()
            if _type(val) != ty:
                raise self.error(f"initializer for {ty} variable {name!r} has type {_type(val)}", m, TypeMismatch)
            if isinstance(val, Term) and val.is_const():
                init = val.const
            elif isinstance(val, BoolLit):
                init = val.value
            else:
                raise self.error("global initializer must be constant", m)
        self.expect(";")
        self.globals[name] = GlobalVar(name, ty, init)

    def parse_proc(self) -> None:
        sp = self.where(self.m)
        self.advance()
        name, _ = self.fresh("procedure name")
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
                modifies.append(self.ident("variable name"))
                while self.accept(","):
                    modifies.append(self.ident("variable name"))
            else:
                if self.text == "local":
                    raise self.error("'local' trace annotations belong on loops", self.m)
                options.append(self.parse_trace_option())
            self.expect(")")
        body = None if self.accept(";") else self.parse_block()
        self.procs[name] = Procedure(
            name, requires=conj(*requires), ensures=conj(*ensures),
            trace=TraceSpec(tuple(options)), modifies=tuple(modifies),
            locals=dict(self.cur_locals), body=body, span=sp,
        )

    # statements

    def parse_block(self) -> Seq:
        self.expect("{")
        rules = self.STATEMENTS
        stmts: list[Command] = []
        while (text := self.text) != "}":
            if self.kind == "eof":
                raise self.error("unterminated block", self.m)
            s = rules.get(text, _Parser.parse_simple)(self)
            if s is not None:
                stmts.append(s)
        self.advance()
        return Seq(tuple(stmts))

    def parse_simple(self) -> Command:
        """`x = e;`, `x = nondet();` or `p();`."""
        m, name = self.m, self.text
        if self.kind != "ident" or name in KEYWORDS or not _is_name(name):
            raise self.unexpected("a statement")
        sp = self.where(m)
        if self.peek() == "(":
            self.advance()
            self.advance()
            self.expect(")")
            self.expect(";")
            return Call(name, span=sp)
        self.advance()
        self.expect("=")
        stmt = self.parse_assign_rhs(name, m, sp)
        self.expect(";")
        return stmt

    def parse_emit(self) -> Emit:
        m = self.m
        if (kw := self.peek()) != "emit":
            raise self.error(f"unexpected annotation {_word(kw)!r} in statement position", self.m1)
        self.advance()
        self.advance()
        ev = self.event()
        self.expect(")")
        return Emit(ev, self.where(m))

    def parse_local_decl(self) -> Optional[Command]:
        ty = self.text
        self.advance()
        if self.text in self.cur_locals or self.text in self.globals:  # only names are declared
            raise self.error(f"variable {self.text!r} already declared", self.m, DuplicateName)
        name, m = self.fresh("variable name")
        self.cur_locals[name] = ty
        stmt = self.parse_assign_rhs(name, m, self.where(m)) if self.accept("=") else None
        self.expect(";")
        return stmt

    def parse_assign_rhs(self, name: str, m: re.Match, sp: Span) -> Command:
        ty = self._var_type(name, m)
        if self.accept("nondet"):
            self.expect("(")
            self.expect(")")
            return Havoc(name, span=sp)
        val = self.parse_expression()
        if _type(val) != ty:
            raise self.error(
                f"cannot assign {_type(val)} expression to {ty} variable {name!r}",
                m,
                TypeMismatch,
            )
        return Assign(name, val, span=sp)

    def parse_if(self) -> If:
        sp = self.where(self.m)
        self.advance()
        test = self._test()
        then = self._branch()
        return If(test, then, self._branch() if self.accept("else") else Seq(()), span=sp)

    def _test(self) -> Formula:
        self.expect("(")
        test = self.parse_formula()
        self.expect(")")
        return test

    def _branch(self) -> Command:
        s = self.STATEMENTS.get(self.text, _Parser.parse_simple)(self)
        if isinstance(s, Seq):
            return s
        return Seq(() if s is None else (s,))

    def parse_while(self) -> While:
        sp = self.where(self.m)
        self.advance()
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
                if options and local_flag != is_local:
                    raise self.error("cannot mix local and full-history trace annotations", self.m)
                if options and is_local:
                    raise self.error("at most one 'local' trace annotation per loop", self.m)
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
            raise self.error("'local' trace annotations take no guard", self.m)
        return TraceOption(r, self.parse_formula())

    # regular expressions

    def parse_regex(self) -> rx.Regex:
        parts = [self._re_cat()]
        while self.accept("|"):
            parts.append(self._re_cat())
        return rx.choice(*parts)

    def _re_cat(self) -> rx.Regex:
        parts = [self._re_rep()]
        while self.text == "(" or (self.kind == "ident" and self.text not in KEYWORDS):
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
        if self.kind == "ident" and self.text not in KEYWORDS:
            return rx.symbol(self.event())
        if self.accept("("):
            if self.accept(")"):
                return rx.EPSILON
            r = self.parse_regex()
            self.expect(")")
            return r
        raise self.unexpected("a regular expression")

    # expressions and formulas

    def parse_formula(self) -> Formula:
        m = self.m
        return self._as_bool(self.parse_expression(), m, "expression")

    def parse_expression(self, min_bp: int = 0) -> Union[Term, Formula]:
        """Precedence climbing over `_BINDING`.  `&&`, `||`, `+` and `-` check
        their left operand at the operator before parsing the right one; the
        other operators check both operands after it."""
        lhs = self._unary()
        while (bp := _BINDING.get(op := self.text, -1)) >= min_bp:
            m = self.m
            self.advance()
            check = self._as_bool if bp < 3 else self._as_int
            if op in _RUNS:
                check(lhs, m)
            rhs = self.parse_expression(bp if op == "==>" else bp + 1)
            args = [check(lhs, m), _signed(op, check(rhs, m))]
            while (more := self.text) in _RUNS.get(op, ()):  # one node per run
                mu = self.m
                self.advance()
                args.append(_signed(more, check(self.parse_expression(bp + 1), mu)))
            lhs = self._binary(op, m, *args)
            if bp == 3 and self.text in _COMPARISONS:
                raise self.error("comparisons cannot be chained", self.m)
        return lhs

    def _unary(self) -> Union[Term, Formula]:
        m = self.m
        if self.accept("!"):
            return neg(self._as_bool(self._unary(), m))
        if self.accept("-"):
            return -self._as_int(self._unary(), m)
        return self._primary()

    def _primary(self) -> Union[Term, Formula]:
        m, kind, text = self.m, self.kind, self.text
        if kind == "int":
            self.advance()
            return tconst(int(text))
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if text == "nondet":
            raise self.error("nondet() is only allowed as the right-hand side of an assignment", m)
        if self.accept("("):
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if kind in ("ident", "pident"):
            if kind == "ident" and text in KEYWORDS:
                raise self.error(f"unexpected keyword {text!r}", m)
            self.advance()
            primed = kind == "pident"
            name = _word(text)
            if primed and not self.allow_primed:
                raise self.error("primed variables are only allowed in ensures clauses", m)
            if not primed and name in self.consts:
                return tconst(self.consts[name])
            if self._var_type(name, m) == "bool":
                return BoolRef(Var(name, primed))
            return tvar(name, primed)
        raise self.unexpected("an expression")

    def _var_type(self, name: str, m: re.Match) -> str:
        ty = self.cur_locals.get(name)
        if ty is None and name in self.globals:
            ty = self.globals[name].type
        if ty is None:
            raise self.error(f"variable {name!r} not declared", m, UndeclaredVariable)
        return ty

    def _as_bool(self, e: Union[Term, Formula], m: re.Match, what: str = "operand") -> Formula:
        if not isinstance(e, Formula):
            raise self.error(f"expected a boolean {what}", m, TypeMismatch)
        return e

    def _as_int(self, e: Union[Term, Formula], m: re.Match) -> Term:
        if not isinstance(e, Term):
            raise self.error("expected an integer operand", m, TypeMismatch)
        return e

    def _binary(self, op: str, m: re.Match, a: Any, b: Any, *more: Any) -> Union[Term, Formula]:
        """`a op b` for the operator `op` at match `m`, on operands of the checked type."""
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
            raise self.error("only linear terms are supported", m)
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


def _signed(op: str, e: Any) -> Any:
    """An operand of `op` with the sign it adds under: negated after `-`."""
    return -e if op == "-" else e


def _type(e: Union[Term, Formula]) -> str:
    return "int" if isinstance(e, Term) else "bool"


def parse(src: str, source: str = "<input>") -> Program:
    """Parse a program; raises SourceError subclasses with positions, one for
    nesting too deep for the recursion limit too.  As when the whole source
    was lexed first, a character that starts no token is the error
    reported, wherever parsing stopped."""
    parser = _Parser(src, source)
    try:
        return parser.parse_program()
    except SourceError as exc:
        raise _unexpected(src) or exc
    except RecursionError:
        raise _unexpected(src) or parser.error("nesting too deep", parser.m) from None


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
        writes = {name: self.check_proc(proc) for name, proc in p.procedures.items()}
        self.compute_mod_sets(writes)
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

    def check_proc(self, proc: Procedure) -> tuple[set[str], set[str]]:
        """Check `proc`; the variables it writes, declared or assigned, and
        the procedures it calls."""
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
        mods, callees = set(proc.modifies), set()
        if proc.body is not None:
            self.check_cmd(proc.body, proc, mods, callees)
        return mods, callees

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

    def check_cmd(self, c: Command, proc: Procedure, mods: set[str], callees: set[str]) -> None:
        """Check `c`, adding the variables it assigns to `mods` and the
        procedures it calls to `callees`."""
        p = self.p
        _writes(c, mods, callees)
        if isinstance(c, Seq):
            for s in c.stmts:
                self.check_cmd(s, proc, mods, callees)
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
            self.check_cmd(c.then, proc, mods, callees)
            self.check_cmd(c.orelse, proc, mods, callees)
        elif isinstance(c, While):
            self.check_formula(c.test, proc, primed_ok=False)
            self.check_formula(c.invariant, proc, primed_ok=False)
            self.check_spec(c.trace_inv, proc, primed_ok=False)
            if c.local_trace and (
                len(c.trace_inv.options) > 1
                or (c.trace_inv.options and c.trace_inv.options[0].guard != TRUE)
            ):
                raise TypeMismatch("a 'local' loop takes a single unguarded trace", *_at(c.span))
            self.check_cmd(c.body, proc, mods, callees)
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

    def compute_mod_sets(self, writes: dict[str, tuple[set[str], set[str]]]) -> None:
        """Each procedure's mod set: the globals it writes, or a procedure it
        calls, directly or not, writes; `writes` is `check_proc`'s."""
        p = self.p
        base = {name: {m for m in mods if m in p.variables} for name, (mods, _) in writes.items()}
        changed = True
        while changed:
            changed = False
            for name, (_, callees) in writes.items():
                for callee in callees:
                    extra = base.get(callee, set()) - base[name]
                    if extra:
                        base[name] |= extra
                        changed = True
        for name, proc in p.procedures.items():
            proc.mod_set = frozenset(base[name])


def _at(span: Optional[Span]) -> tuple[Optional[int], Optional[int]]:
    return (span.line, span.col) if span else (None, None)


def _writes(c: Command, mods: set[str], callees: set[str]) -> None:
    """Add the variables `c` itself writes, not counting the commands it
    holds, to `mods`, and the procedure it calls to `callees`."""
    if isinstance(c, (Assign, Havoc)):
        mods.add(c.var)
    elif isinstance(c, Call):
        callees.add(c.proc)
    elif isinstance(c, SpecStmt):
        mods.update(c.mods)


def _assigned(c: Command, mods: set[str], callees: set[str]) -> None:
    if isinstance(c, Seq):
        for s in c.stmts:
            _assigned(s, mods, callees)
    elif isinstance(c, If):
        _assigned(c.then, mods, callees)
        _assigned(c.orelse, mods, callees)
    elif isinstance(c, While):
        _assigned(c.body, mods, callees)
    else:
        _writes(c, mods, callees)


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


def _text(data: bytes) -> str:
    # UTF-8, with newlines read as text mode reads them
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def load_file(path: str) -> Program:
    """Load a UTF-8 source file; a byte that is not UTF-8 is a `ParseError`
    at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        src = _text(data)
    except UnicodeDecodeError as exc:
        head = _text(data[: exc.start])
        where = _at(_Lines(head).at(len(head)))
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", *where) from None
    return load(src, path)
