"""The while-language: AST, concrete syntax, parser, and static checks.

Programs declare a finite event alphabet, integer constants, typed global
variables, and procedures whose contracts carry pre-/postconditions and
trace specifications.  Loops take invariant and trace annotations.  The
concrete syntax is C-like; auxiliary material lives inside `_(...)`
annotations and `//` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Span:
    line: int
    col: int


class Command:
    __slots__ = ()


@dataclass(frozen=True)
class SpecStmt(Command):
    """Atomic specification statement: when `guard` holds, update `mods` to
    values related by `rel` (primed = new) while emitting a trace of
    `trace`; aborts when the guard fails."""

    mods: tuple[str, ...]
    guard: Formula
    rel: Formula
    trace: TraceSpec
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Emit(Command):
    event: str
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Assign(Command):
    var: str
    value: Union[Term, Formula]
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Havoc(Command):
    var: str
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Seq(Command):
    stmts: tuple[Command, ...] = ()


@dataclass(frozen=True)
class If(Command):
    test: Formula
    then: Command
    orelse: Command
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class While(Command):
    test: Formula
    invariant: Formula
    trace_inv: TraceSpec
    body: Command
    local_trace: bool = False
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Call(Command):
    proc: str
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Abort(Command):
    """Unconditional guard failure, `<-: false ~> true | ()>`."""

    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class GlobalVar:
    name: str
    type: str  # "bool" | "int"
    init: Optional[Union[bool, int]] = None


@dataclass
class Procedure:
    name: str
    requires: Formula = TRUE
    ensures: Formula = TRUE
    trace: TraceSpec = TraceSpec()
    modifies: tuple[str, ...] = ()
    locals: dict[str, str] = field(default_factory=dict)
    body: Optional[Command] = None
    span: Optional[Span] = field(default=None, compare=False)
    implicit: bool = field(default=False, compare=False)
    mod_set: Optional[frozenset[str]] = field(default=None, compare=False)

    @property
    def writes(self) -> frozenset[str]:
        """The globals a call may write: the resolved mod set, or before
        resolution the declared `modifies`."""
        return self.mod_set if self.mod_set is not None else frozenset(self.modifies)

    def spec_stmt(self, span: Optional[Span] = None) -> SpecStmt:
        """The contract as one spec statement, as a call or a bodiless
        procedure runs it."""
        return SpecStmt(tuple(sorted(self.writes)), self.requires, self.ensures, self.trace, span=span)


@dataclass
class Program:
    events: tuple[str, ...] = ()
    consts: dict[str, int] = field(default_factory=dict)
    variables: dict[str, GlobalVar] = field(default_factory=dict)
    procedures: dict[str, Procedure] = field(default_factory=dict)
    source: str = field(default="<input>", compare=False)
    entry: Optional[str] = field(default=None, compare=False)
    int_domain: tuple[int, int] = field(default=(-8, 8), compare=False)
    int_pool: tuple[int, ...] = field(default=(), compare=False)

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

# One group per token kind; blanks and `//` comments match none.  Integers are
# Unicode decimal digits, which int() accepts.  `\w` also matches other digits,
# such as '²', and a word that starts with one is an unexpected character.
_TOKEN = re.compile(
    r"[ \t\r]+|//[^\n]*"
    r"|(?P<newline>\n)"
    r"|(?P<int>\d+)"
    r"|(?P<sym>" + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))) + ")"
    r"|(?P<pident>\w+)'"
    r"|(?P<ident>\w+)"
    r"|(?P<bad>.)"
)


class Token(NamedTuple):
    kind: str  # ident | pident | int | sym | eof
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        text = m.group(kind)
        col = m.start() - line_start + 1
        if kind == "bad" or (kind in ("ident", "pident") and not (text[0].isalpha() or text[0] == "_")):
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        toks.append(Token(kind, text, line, col))
    # the end of input sits where the last line's code ends, before any comment
    end = src.find("//", line_start)
    toks.append(Token("eof", "", line, (len(src) if end < 0 else end) - line_start + 1))
    return toks


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
    def __init__(self, src: str, source: str = "<input>") -> None:
        self.toks = tokenize(src)
        self.pos = 0
        self.source = source
        self.events: list[str] = []
        self.consts: dict[str, int] = {}
        self.globals: dict[str, GlobalVar] = {}
        self.procs: dict[str, Procedure] = {}
        self.cur_locals: dict[str, str] = {}
        self.allow_primed = False

    # token plumbing

    def peek(self, off: int = 0) -> Token:
        return self.toks[self.pos + off]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("sym", "ident")

    def accept(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def span(self) -> Span:
        t = self.peek()
        return Span(t.line, t.col)

    def at_name(self) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text not in KEYWORDS

    def ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if not self.at_name():
            raise ParseError(f"expected {what}, found {t.text!r}", t.line, t.col)
        return self.next()

    def event(self) -> str:
        t = self.ident("event name")
        if t.text not in self.events:
            raise UndeclaredEvent(f"event {t.text!r} not declared", t.line, t.col)
        return t.text

    # declarations

    def parse_program(self) -> Program:
        while self.peek().kind != "eof":
            t = self.peek()
            if self.at("events"):
                self.parse_events()
            elif self.at("const"):
                self.parse_const()
            elif self.at("bool") or self.at("int"):
                self.parse_global()
            elif self.at("proc"):
                self.parse_proc()
            else:
                raise ParseError(f"expected a declaration, found {t.text!r}", t.line, t.col)
        return Program(
            events=tuple(self.events),
            consts=self.consts,
            variables=self.globals,
            procedures=self.procs,
            source=self.source,
        )

    def _check_fresh(self, tok: Token) -> None:
        name = tok.text
        if (
            name in self.events
            or name in self.consts
            or name in self.globals
            or name in self.procs
        ):
            raise DuplicateName(f"name {name!r} already declared", tok.line, tok.col)

    def parse_events(self) -> None:
        self.expect("events")
        while True:
            t = self.ident("event name")
            self._check_fresh(t)
            self.events.append(t.text)
            if not self.accept(","):
                break
        self.expect(";")

    def parse_const(self) -> None:
        self.expect("const")
        t = self.ident("constant name")
        self._check_fresh(t)
        self.expect("=")
        negate = self.accept("-") is not None
        num = self.peek()
        if num.kind != "int":
            raise ParseError("constant initializer must be an integer literal", num.line, num.col)
        self.next()
        self.expect(";")
        self.consts[t.text] = -int(num.text) if negate else int(num.text)

    def parse_global(self) -> None:
        ty = self.next().text
        t = self.ident("variable name")
        self._check_fresh(t)
        init: Optional[Union[bool, int]] = None
        if self.accept("="):
            val = self.parse_expression()
            if _type(val) != ty:
                raise TypeMismatch(f"initializer for {ty} variable {t.text!r} has type {_type(val)}", t.line, t.col)
            if isinstance(val, Term) and val.is_const():
                init = val.const
            elif isinstance(val, BoolLit):
                init = val.value
            else:
                raise ParseError("global initializer must be constant", t.line, t.col)
        self.expect(";")
        self.globals[t.text] = GlobalVar(t.text, ty, init)

    def parse_proc(self) -> None:
        sp = self.span()
        self.expect("proc")
        t = self.ident("procedure name")
        self._check_fresh(t)
        self.expect("(")
        self.expect(")")
        self.cur_locals = {}
        requires: list[Formula] = []
        ensures: list[Formula] = []
        options: list[TraceOption] = []
        modifies: list[str] = []
        while self.at("_("):
            kw = self.peek(1).text
            if kw not in ("requires", "ensures", "trace", "modifies"):
                break
            self.next()
            self.next()
            if kw == "requires":
                requires.append(self.parse_formula())
            elif kw == "ensures":
                self.allow_primed = True
                try:
                    ensures.append(self.parse_formula())
                finally:
                    self.allow_primed = False
            elif kw == "modifies":
                while True:
                    m = self.ident("variable name")
                    modifies.append(m.text)
                    if not self.accept(","):
                        break
            else:
                if self.at("local"):
                    t2 = self.peek()
                    raise ParseError("'local' trace annotations belong on loops", t2.line, t2.col)
                options.append(self.parse_trace_option())
            self.expect(")")
        body = None if self.accept(";") else self.parse_block()
        self.procs[t.text] = Procedure(
            t.text, requires=conj(*requires), ensures=conj(*ensures),
            trace=TraceSpec(tuple(options)), modifies=tuple(modifies),
            locals=dict(self.cur_locals), body=body, span=sp,
        )

    # statements

    def parse_block(self) -> Seq:
        self.expect("{")
        stmts: list[Command] = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                t = self.peek()
                raise ParseError("unterminated block", t.line, t.col)
            s = self.parse_statement()
            if s is not None:
                stmts.append(s)
        self.expect("}")
        return Seq(tuple(stmts))

    def parse_statement(self) -> Optional[Command]:
        t = self.peek()
        if self.at("{"):
            return self.parse_block()
        if self.at("if"):
            return self.parse_if()
        if self.at("while"):
            return self.parse_while()
        if self.at("_("):
            sp = self.span()
            self.next()
            kw = self.peek()
            if kw.text == "emit":
                self.next()
                ev = self.event()
                self.expect(")")
                return Emit(ev, span=sp)
            raise ParseError(f"unexpected annotation {kw.text!r} in statement position", kw.line, kw.col)
        if self.at("bool") or self.at("int"):
            return self.parse_local_decl()
        if self.at_name():
            sp = self.span()
            name = self.next()
            if self.accept("("):
                self.expect(")")
                self.expect(";")
                return Call(name.text, span=sp)
            self.expect("=")
            stmt = self.parse_assign_rhs(name, sp)
            self.expect(";")
            return stmt
        raise ParseError(f"expected a statement, found {t.text!r}", t.line, t.col)

    def parse_local_decl(self) -> Optional[Command]:
        ty = self.next().text
        t = self.ident("variable name")
        if t.text in self.cur_locals or t.text in self.globals:
            raise DuplicateName(f"variable {t.text!r} already declared", t.line, t.col)
        self._check_fresh(t)
        self.cur_locals[t.text] = ty
        stmt: Optional[Command] = None
        if self.accept("="):
            stmt = self.parse_assign_rhs(t, Span(t.line, t.col))
        self.expect(";")
        return stmt

    def parse_assign_rhs(self, name: Token, sp: Span) -> Command:
        ty = self._var_type(name)
        if self.at("nondet"):
            self.next()
            self.expect("(")
            self.expect(")")
            return Havoc(name.text, span=sp)
        val = self.parse_expression()
        if _type(val) != ty:
            raise TypeMismatch(
                f"cannot assign {_type(val)} expression to {ty} variable {name.text!r}",
                name.line,
                name.col,
            )
        return Assign(name.text, val, span=sp)

    def parse_if(self) -> If:
        sp = self.span()
        self.expect("if")
        self.expect("(")
        test = self.parse_formula()
        self.expect(")")
        then = self._branch()
        orelse: Command = Seq(())
        if self.accept("else"):
            orelse = self._branch()
        return If(test, then, orelse, span=sp)

    def _branch(self) -> Command:
        s = self.parse_statement()
        if isinstance(s, Seq):
            return s
        return Seq(() if s is None else (s,))

    def parse_while(self) -> While:
        sp = self.span()
        self.expect("while")
        self.expect("(")
        test = self.parse_formula()
        self.expect(")")
        invariants: list[Formula] = []
        options: list[TraceOption] = []
        local_flag = False
        while self.at("_(") and self.peek(1).text in ("invariant", "trace"):
            self.next()
            kw = self.next().text
            if kw == "invariant":
                invariants.append(self.parse_formula())
            else:
                is_local = self.accept("local") is not None
                option = self.parse_trace_option(is_local)
                t = self.peek()
                if options and local_flag != is_local:
                    raise ParseError("cannot mix local and full-history trace annotations", t.line, t.col)
                if options and is_local:
                    raise ParseError("at most one 'local' trace annotation per loop", t.line, t.col)
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
            t = self.peek()
            raise ParseError("'local' trace annotations take no guard", t.line, t.col)
        return TraceOption(r, self.parse_formula())

    # regular expressions

    def parse_regex(self) -> rx.Regex:
        parts = [self._re_cat()]
        while self.accept("|"):
            parts.append(self._re_cat())
        return rx.choice(*parts)

    def _re_cat(self) -> rx.Regex:
        parts = [self._re_rep()]
        while self.at_name() or self.at("("):
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
        t = self.peek()
        if self.at_name():
            return rx.symbol(self.event())
        if self.accept("("):
            if self.accept(")"):
                return rx.EPSILON
            r = self.parse_regex()
            self.expect(")")
            return r
        raise ParseError(f"expected a regular expression, found {t.text!r}", t.line, t.col)

    # expressions and formulas

    def parse_formula(self) -> Formula:
        t = self.peek()
        return self._as_bool(self.parse_expression(), t, "expression")

    def parse_expression(self, min_bp: int = 0) -> Union[Term, Formula]:
        """Precedence climbing over `_BINDING`.  `&&`, `||`, `+` and `-` check
        their left operand at the operator before parsing the right one; the
        other operators check both operands after it."""
        lhs = self._unary()
        while (bp := _BINDING.get(self.peek().text, -1)) >= min_bp:
            t = self.next()
            check = self._as_bool if bp < 3 else self._as_int
            if t.text in _RUNS:
                check(lhs, t)
            rhs = self.parse_expression(bp if t.text == "==>" else bp + 1)
            args = [check(lhs, t), _signed(t, check(rhs, t))]
            while (u := self.peek()).text in _RUNS.get(t.text, ()):  # one node per run
                self.next()
                args.append(_signed(u, check(self.parse_expression(bp + 1), u)))
            lhs = _binary(t, *args)
            t2 = self.peek()
            if bp == 3 and t2.text in _COMPARISONS:
                raise ParseError("comparisons cannot be chained", t2.line, t2.col)
        return lhs

    def _unary(self) -> Union[Term, Formula]:
        t = self.peek()
        if self.accept("!"):
            return neg(self._as_bool(self._unary(), t))
        if self.accept("-"):
            return -self._as_int(self._unary(), t)
        return self._primary()

    def _primary(self) -> Union[Term, Formula]:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return tconst(int(t.text))
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if self.at("nondet"):
            raise ParseError("nondet() is only allowed as the right-hand side of an assignment", t.line, t.col)
        if self.accept("("):
            inner = self.parse_expression()
            self.expect(")")
            return inner
        if t.kind in ("ident", "pident"):
            if t.kind == "ident" and t.text in KEYWORDS:
                raise ParseError(f"unexpected keyword {t.text!r}", t.line, t.col)
            self.next()
            primed = t.kind == "pident"
            if primed and not self.allow_primed:
                raise ParseError("primed variables are only allowed in ensures clauses", t.line, t.col)
            if not primed and t.text in self.consts:
                return tconst(self.consts[t.text])
            if self._var_type(t) == "bool":
                return BoolRef(Var(t.text, primed))
            return tvar(t.text, primed)
        raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)

    def _var_type(self, name: Token) -> str:
        ty = self.cur_locals.get(name.text)
        if ty is None and name.text in self.globals:
            ty = self.globals[name.text].type
        if ty is None:
            raise UndeclaredVariable(f"variable {name.text!r} not declared", name.line, name.col)
        return ty

    def _as_bool(self, e: Union[Term, Formula], t: Token, what: str = "operand") -> Formula:
        if not isinstance(e, Formula):
            raise TypeMismatch(f"expected a boolean {what}", t.line, t.col)
        return e

    def _as_int(self, e: Union[Term, Formula], t: Token) -> Term:
        if not isinstance(e, Term):
            raise TypeMismatch("expected an integer operand", t.line, t.col)
        return e


def _signed(t: Token, e: Any) -> Any:
    """An operand of `t` with the sign it adds under: negated after `-`."""
    return -e if t.text == "-" else e


def _type(e: Union[Term, Formula]) -> str:
    return "int" if isinstance(e, Term) else "bool"


def _binary(t: Token, a: Any, b: Any, *more: Any) -> Union[Term, Formula]:
    """`a op b` for the operator token `t`, on operands of the checked type."""
    op = t.text
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
        raise ParseError("only linear terms are supported", t.line, t.col)
    if op in (">", ">="):  # a > b is b < a
        op, a, b = op.replace(">", "<"), b, a
    return cmp(op, a, b)


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
