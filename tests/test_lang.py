import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from retrace import regex as rx
from retrace.corpus import CORPUS, MUTANTS, path
from retrace.formula import TRUE, BoolRef, Var, cmp, neg, render_formula, tconst, tvar
from helpers import random_formula, reference_tokenize
from retrace.lang import (
    KEYWORDS,
    Assign,
    Call,
    DuplicateName,
    Havoc,
    If,
    ParseError,
    Seq,
    SourceError,
    TypeMismatch,
    _SYMBOLS,
    UnboundName,
    UndeclaredEvent,
    UndeclaredVariable,
    While,
    load,
    modified_in,
    parse,
    pretty,
    resolve,
    Token,
    tokenize,
)
from retrace.tracespec import TraceOption


def parse_one(body: str, header: str = "events a, b;\n") -> object:
    return parse(header + body)


# -- shapes -------------------------------------------------------------------


def test_even_odd_shape():
    p = parse(open(path("even_odd")).read())
    proc = p.procedures["even_odd"]
    assert proc.locals == {"b": "bool", "nd": "bool"}
    body = proc.body
    assert isinstance(body, Seq)
    loop = body.stmts[-1]
    assert isinstance(loop, While)
    assert len(loop.trace_inv.options) == 2
    ee_star = rx.star(rx.concat(rx.symbol("even"), rx.symbol("odd")))
    assert loop.trace_inv.options[0] == TraceOption(ee_star, neg(BoolRef(Var("b"))))
    assert loop.trace_inv.options[1] == TraceOption(
        rx.concat(ee_star, rx.symbol("even")), BoolRef(Var("b"))
    )
    assert not loop.local_trace


def test_plus_and_guard_annotation():
    p = parse(
        "events letter, at;\n"
        "int state;\n"
        "proc q() _(trace letter+ at if state == 2) ;\n"
    )
    opt = p.procedures["q"].trace.options[0]
    letter = rx.symbol("letter")
    assert opt.regex is rx.concat(letter, rx.star(letter), rx.symbol("at"))
    assert opt.guard == cmp("==", tvar("state"), tconst(2))


def test_no_trace_clause_is_empty_spec():
    p = parse("events a;\nproc q() { }\n")
    assert p.procedures["q"].trace.options == ()


def test_empty_word_and_grouping():
    p = parse("events a, b;\nproc q() _(trace ()) _(trace (a | b)* a) ;\n")
    opts = p.procedures["q"].trace.options
    assert opts[0].regex is rx.EPSILON
    ab = rx.choice(rx.symbol("a"), rx.symbol("b"))
    assert opts[1].regex is rx.concat(rx.star(ab), rx.symbol("a"))


def test_nondet_becomes_havoc():
    p = parse_one("proc q() { bool x = nondet(); int y; y = nondet(); }")
    stmts = p.procedures["q"].body.stmts
    assert stmts[0] == Havoc("x")
    assert stmts[1] == Havoc("y")


def test_abort_is_bodiless_call_with_false_postcondition():
    p = load("events a;\nproc q() { abort(); }\n")
    assert p.procedures["q"].body.stmts[0] == Call("abort")
    ab = p.procedures["abort"]
    assert ab.body is None
    assert ab.ensures.value is False


def test_local_trace_flag():
    p = parse_one("proc q() { while (true) _(trace local (a | b)) { } }")
    loop = p.procedures["q"].body.stmts[0]
    assert loop.local_trace
    assert loop.trace_inv.options[0].guard == TRUE


def test_else_if_chain():
    p = parse_one(
        "int x;\n"
        "proc q() { if (x == 0) { x = 1; } else if (x == 1) { x = 2; } else { } }"
    )
    top = p.procedures["q"].body.stmts[0]
    assert isinstance(top, If)
    nested = top.orelse.stmts[0]
    assert isinstance(nested, If)
    assert nested.then.stmts[0] == Assign("x", tconst(2))


def test_consts_fold_into_formulas():
    p = parse(
        "events a;\nconst K = 3;\nint x;\nproc q() { if (x == K) { x = K - 1; } }"
    )
    top = p.procedures["q"].body.stmts[0]
    assert top.test == cmp("==", tvar("x"), tconst(3))
    assert top.then.stmts[0] == Assign("x", tconst(2))


def test_comparison_normalization():
    p = parse_one("int x;\nproc q() { if (x > 3) { } if (x >= 3) { } }")
    s = p.procedures["q"].body.stmts
    assert s[0].test == cmp("<", tconst(3), tvar("x"))
    assert s[1].test == cmp("<=", tconst(3), tvar("x"))


def test_primed_in_ensures_only():
    p = parse_one("int x;\nproc q() _(modifies x) _(ensures x' == x + 1) ;")
    ens = p.procedures["q"].ensures
    assert ens == cmp("==", tvar("x", True), tvar("x") + tconst(1))
    with pytest.raises(ParseError):
        parse_one("int x;\nproc q() _(requires x' == 0) ;")


# -- errors -------------------------------------------------------------------


def test_undeclared_event():
    with pytest.raises(UndeclaredEvent):
        parse("events a;\nproc q() { _(emit zz) }")
    with pytest.raises(UndeclaredEvent):
        parse("events a;\nproc q() _(trace zz) ;")


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        parse("events a;\nproc q() { x = 1; }")


def test_duplicate_names():
    with pytest.raises(DuplicateName):
        parse("events a, a;\n")
    with pytest.raises(DuplicateName):
        parse("events a;\nint a;\n")
    with pytest.raises(DuplicateName):
        parse("events e;\nproc q() { int x; bool x; }")


def test_call_to_undeclared_procedure_is_unbound():
    with pytest.raises(UnboundName):
        load("events a;\nproc q() { check(); }")


def test_int_loop_test_is_type_error():
    with pytest.raises(TypeMismatch):
        load("events a;\nint x;\nproc q() { while (x) { } }")


def test_bool_int_mixing_is_type_error():
    with pytest.raises(TypeMismatch):
        parse("events a;\nbool f;\nint x;\nproc q() { x = f; }")
    with pytest.raises(TypeMismatch):
        parse("events a;\nbool f;\nproc q() { if (f < 3) { } }")


def test_rendered_formulas_parse_back():
    # pins precedence and associativity: a right-associative `-` would misread
    # `x - y - z`, a left-associative `==>` would misread `a ==> b ==> c`
    rng = random.Random(11)
    for _ in range(2000):
        f = random_formula(rng, ["x", "y", "z"], depth=4)
        src = f"int x; int y; int z;\nproc q() _(requires {render_formula(f)}) ;"
        assert parse(src).procedures["q"].requires == f, render_formula(f)


def test_long_sum_parses_in_linear_time():
    # a run of `+` and `-` is summed in one pass; folding it pairwise took
    # seconds at this size, re-sorting the growing term at every operator
    n = 4000
    terms = " ".join(f"{'+' if i % 2 == 0 else '-'} v{i}" for i in range(1, n))
    src = (
        "".join(f"int v{i};\n" for i in range(n))
        + f"proc q() _(requires v0 {terms} + 2 * v0 - 7 == 0) ;"
    )
    start = time.perf_counter()
    f = parse(src).procedures["q"].requires
    assert time.perf_counter() - start < 1.0
    want = {Var(f"v{i}"): 1 if i % 2 == 0 else -1 for i in range(n)}
    want[Var("v0")] = 3
    assert (f.op, f.rhs) == ("==", tconst(0))
    assert dict(f.lhs.coeffs) == want and f.lhs.const == -7
    assert [v for v, _ in f.lhs.coeffs] == sorted(want)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse("events a;\nproc q() { emit }")
    assert exc.value.line == 2


def test_chained_comparison_rejected():
    with pytest.raises(ParseError):
        parse_one("int x;\nproc q() { if (0 < x < 5) { } }")


def test_nonlinear_rejected():
    with pytest.raises(ParseError):
        parse_one("int x;\nint y;\nproc q() { if (x * y == 0) { } }")


def test_local_trace_rejected_in_contract():
    with pytest.raises(ParseError):
        parse_one("proc q() _(trace local a) ;")


def test_mixed_local_and_full_history_rejected():
    with pytest.raises(ParseError):
        parse_one(
            "proc q() { while (true) _(trace local a) _(trace a* if true) { } }"
        )


# Every raise site of the lexer and the parser, with the exception class and
# `str(exc)` ("line:col: msg") that the parser gave when this table was made.
# Regenerate after a deliberate change with `PYTHONPATH=src python tests/test_lang.py`,
# which prints the table for the current source.  The last seven rows each pair
# a wrongly typed left operand with a missing right one, so they pin when each
# operator checks its operands: `&&`, `||`, `+` and `-` at the operator, and
# `==>`, the comparisons and `*` after parsing the right operand.
PARSE_ERRORS = [
    ('events a, b;\nproc q() { @ }', ParseError, "2:12: unexpected character '@'"),
    ('events a; #', ParseError, "1:11: unexpected character '#'"),
    ('events a, b;\nint x;\nproc q() { x = 1 . 2; }', ParseError, "3:18: unexpected character '.'"),
    ('foo', ParseError, "1:1: expected a declaration, found 'foo'"),
    ("proc'", ParseError, "1:1: expected a declaration, found 'proc'"),
    ('events a, b;\nfoo', ParseError, "2:1: expected a declaration, found 'foo'"),
    ('events a, b;\nint x;\n\tproc q() { }\n 7', ParseError, "4:2: expected a declaration, found '7'"),
    ('events a;\nproc p( { }\n', ParseError, "2:9: expected ')', found '{'"),
    ('events 1;', ParseError, "1:8: expected event name, found '1'"),
    ('events if;', ParseError, "1:8: expected event name, found 'if'"),
    ('events a // no semicolon', ParseError, "1:10: expected ';', found ''"),
    ('events a;\nproc q() _(trace a) // no body', ParseError, "2:21: expected '{', found ''"),
    ('events a;\nproc q() { }\nproc', ParseError, "3:5: expected procedure name, found ''"),
    ('events a, a;', DuplicateName, "1:11: name 'a' already declared"),
    ('events a, b;\nint a;', DuplicateName, "2:5: name 'a' already declared"),
    ('events a, b;\nproc q() { }\nproc q() { }', DuplicateName, "3:6: name 'q' already declared"),
    ('const K = x;', ParseError, '1:11: constant initializer must be an integer literal'),
    ('const K = -;', ParseError, '1:12: constant initializer must be an integer literal'),
    ('bool b = 1;', TypeMismatch, "1:6: initializer for bool variable 'b' has type int"),
    ('int x;\nint y = x;', ParseError, '2:5: global initializer must be constant'),
    ('bool b;\nbool c = !b;', ParseError, '2:6: global initializer must be constant'),
    ('int x = 3 + ;', ParseError, "1:13: expected an expression, found ';'"),
    ('events a, b;\nproc q() _(trace local a) ;', ParseError, "2:18: 'local' trace annotations belong on loops"),
    ('events a, b;\nproc q() _(trace zz) ;', UndeclaredEvent, "2:18: event 'zz' not declared"),
    ('events a, b;\nproc q() _(trace |) ;', ParseError, "2:18: expected a regular expression, found '|'"),
    ('events a, b;\nproc q() _(trace a if 3) ;', TypeMismatch, '2:23: expected a boolean expression'),
    ('events a, b;\nproc q() _(trace a b* if) ;', ParseError, "2:25: expected an expression, found ')'"),
    ('events a, b;\nint x;\nproc q() _(requires x) ;', TypeMismatch, '3:21: expected a boolean expression'),
    ("events a, b;\nint x;\nproc q() _(requires x' == 0) ;", ParseError, '3:21: primed variables are only allowed in ensures clauses'),
    ('events a, b;\nint x;\nproc q() _(modifies 1) ;', ParseError, "3:21: expected variable name, found '1'"),
    ("events a, b;\nint x;\nproc q() _(ensures x' == x) _(trace (a | b) (a) ;", ParseError, "3:49: expected ')', found ';'"),
    ('events a, b;\nproc q() _(invariant true) ;', ParseError, "2:10: expected '{', found '_('"),
    ('events a, b;\nproc q() { ', ParseError, '2:12: unterminated block'),
    ('events a, b;\nproc q() { _(emit zz) }', UndeclaredEvent, "2:19: event 'zz' not declared"),
    ('events a, b;\nproc q() { _(trace a) }', ParseError, "2:14: unexpected annotation 'trace' in statement position"),
    ('events a, b;\nproc q() { 1; }', ParseError, "2:12: expected a statement, found '1'"),
    ('events a, b;\nproc q() { if; }', ParseError, "2:14: expected '(', found ';'"),
    ('events a, b;\nproc q() { int x; bool x; }', DuplicateName, "2:24: variable 'x' already declared"),
    ('events a, b;\nint x;\nproc q() { int x; }', DuplicateName, "3:16: variable 'x' already declared"),
    ('events a, b;\nproc q() { int a; }', DuplicateName, "2:16: name 'a' already declared"),
    ('events a, b;\nproc q() { x = 1; }', UndeclaredVariable, "2:12: variable 'x' not declared"),
    ('events a, b;\nbool f;\nint x;\nproc q() { x = f; }', TypeMismatch, "4:12: cannot assign bool expression to int variable 'x'"),
    ('events a, b;\nint x;\nproc q() { x = nondet(1); }', ParseError, "3:23: expected ')', found '1'"),
    ('events a, b;\nproc q() { r(; }', ParseError, "2:14: expected ')', found ';'"),
    ('events a, b;\nproc q() { while (true) _(trace local a if true) { } }', ParseError, "2:44: 'local' trace annotations take no guard"),
    ('events a, b;\nproc q() { while (true) _(trace local a) _(trace a* if true) { } }', ParseError, '2:60: cannot mix local and full-history trace annotations'),
    ('events a, b;\nproc q() { while (true) _(trace a) _(trace local a) { } }', ParseError, '2:51: cannot mix local and full-history trace annotations'),
    ('events a, b;\nproc q() { while (true) _(trace local a) _(trace local b) { } }', ParseError, "2:57: at most one 'local' trace annotation per loop"),
    ('events a, b;\nproc q() { while (true) _(invariant 1) { } }', TypeMismatch, '2:37: expected a boolean expression'),
    ('events a, b;\nproc q() { while (true) _(trace a zz) { } }', UndeclaredEvent, "2:35: event 'zz' not declared"),
    ('events a, b;\nint x;\nproc q() { if (0 < x < 5) { } }', ParseError, '3:22: comparisons cannot be chained'),
    ('events a, b;\nint x;\nproc q() { if (x == 1 != 2) { } }', ParseError, '3:23: comparisons cannot be chained'),
    ('events a, b;\nint x;\nint y;\nproc q() { if (x * y == 0) { } }', ParseError, '4:18: only linear terms are supported'),
    ('events a, b;\nint x;\nproc q() { if (nondet()) { } }', ParseError, '3:16: nondet() is only allowed as the right-hand side of an assignment'),
    ('events a, b;\nproc q() { if (emit) { } }', ParseError, "2:16: unexpected keyword 'emit'"),
    ('events a, b;\nproc q() { if (y == 0) { } }', UndeclaredVariable, "2:16: variable 'y' not declared"),
    ('events a, b;\nproc q() { if () { } }', ParseError, "2:16: expected an expression, found ')'"),
    ('events a, b;\nint x;\nproc q() { if (x && true) { } }', TypeMismatch, '3:18: expected a boolean operand'),
    ('events a, b;\nint x;\nproc q() { if (true && x) { } }', TypeMismatch, '3:21: expected a boolean operand'),
    ('events a, b;\nint x;\nproc q() { if (true && true && x) { } }', TypeMismatch, '3:29: expected a boolean operand'),
    ('events a, b;\nint x;\nproc q() { if (x || true) { } }', TypeMismatch, '3:18: expected a boolean operand'),
    ('events a, b;\nint x;\nproc q() { if (true || x) { } }', TypeMismatch, '3:21: expected a boolean operand'),
    ('events a, b;\nint x;\nproc q() { if (true || true && x) { } }', TypeMismatch, '3:29: expected a boolean operand'),
    ('events a, b;\nint x;\nproc q() { if (x ==> true) { } }', TypeMismatch, '3:18: expected a boolean operand'),
    ('events a, b;\nint x;\nproc q() { if (true ==> x) { } }', TypeMismatch, '3:21: expected a boolean operand'),
    ('events a, b;\nint x;\nproc q() { if (!x) { } }', TypeMismatch, '3:16: expected a boolean operand'),
    ('events a, b;\nbool f;\nproc q() { if (f < 3) { } }', TypeMismatch, '3:18: expected an integer operand'),
    ('events a, b;\nbool f;\nint x;\nproc q() { x = f + 1; }', TypeMismatch, '4:18: expected an integer operand'),
    ('events a, b;\nbool f;\nint x;\nproc q() { x = 1 - f; }', TypeMismatch, '4:18: expected an integer operand'),
    ('events a, b;\nbool f;\nint x;\nproc q() { x = -f; }', TypeMismatch, '4:16: expected an integer operand'),
    ('events a, b;\nbool f;\nint x;\nproc q() { x = f * 2; }', TypeMismatch, '4:18: expected an integer operand'),
    ('events a, b;\nint x;\nproc q() { if ((x == 1) { } }', ParseError, "3:25: expected ')', found '{'"),
    ('events a;\r\nfoo', ParseError, "2:1: expected a declaration, found 'foo'"),
    ('events a;\n\t\tint x = 1 // one\n;\n@', ParseError, "4:1: unexpected character '@'"),
    ('events a;\nproc q() { a_(emit a) }', ParseError, "2:15: expected ')', found 'emit'"),
    ('events a;\nproc q() { __(emit a) }', ParseError, "2:15: expected ')', found 'emit'"),
    ('events a;\nproc q() { _ (emit a) }', ParseError, "2:15: expected ')', found 'emit'"),
    ('events é;\nproc q() { _(emit e) }', UndeclaredEvent, "2:19: event 'e' not declared"),
    ('events a, b;\nint x;\nproc q() { while (true) _(trace a if x) { } }', TypeMismatch, '3:38: expected a boolean expression'),
    ("events a, b;\nint x;\nproc q() { while (true) _(trace a) _(invariant x' == 0) { } }", ParseError, '3:48: primed variables are only allowed in ensures clauses'),
    ('events a, b;\nproc q() { while (true) _(trace a if true) _(trace local a) { } }', ParseError, '2:59: cannot mix local and full-history trace annotations'),
    ('events a, b;\nbool f;\nint x;\nproc q() { if (x && ) { } }', TypeMismatch, '4:18: expected a boolean operand'),
    ('events a, b;\nbool f;\nint x;\nproc q() { if (x || ) { } }', TypeMismatch, '4:18: expected a boolean operand'),
    ('events a, b;\nbool f;\nint x;\nproc q() { if (x ==> ) { } }', ParseError, "4:22: expected an expression, found ')'"),
    ('events a, b;\nbool f;\nint x;\nproc q() { if (f < ) { } }', ParseError, "4:20: expected an expression, found ')'"),
    ('events a, b;\nbool f;\nint x;\nproc q() { x = f + ; }', TypeMismatch, '4:18: expected an integer operand'),
    ('events a, b;\nbool f;\nint x;\nproc q() { x = f - ; }', TypeMismatch, '4:18: expected an integer operand'),
    ('events a, b;\nbool f;\nint x;\nproc q() { x = f * ; }', ParseError, "4:20: expected an expression, found ';'"),
]


@pytest.mark.parametrize("src,cls,msg", PARSE_ERRORS)
def test_parse_error_golden(src, cls, msg):
    with pytest.raises(SourceError) as exc:
        parse(src)
    assert (type(exc.value), str(exc.value)) == (cls, msg)


# a primed keyword after `_(` is a name, as it is everywhere else, so it
# starts no annotation
PRIMED_KEYWORD_ERRORS = [
    ("events a;\nproc main() { _(emit' a) }", "2:17: unexpected annotation 'emit' in statement position"),
    ("events a;\nint x;\nproc main() _(requires' x == 0) { }", "3:13: expected '{', found '_('"),
    ("events a;\nproc main() _(trace' a) { }", "2:13: expected '{', found '_('"),
    ("events a;\nproc main() { while (true) _(invariant' true) { } }",
     "2:30: unexpected annotation 'invariant' in statement position"),
]


@pytest.mark.parametrize("src,msg", PRIMED_KEYWORD_ERRORS)
def test_primed_keyword_starts_no_annotation(src, msg):
    with pytest.raises(SourceError) as exc:
        parse(src)
    assert (type(exc.value), str(exc.value)) == (ParseError, msg)


def test_non_decimal_digit_is_a_positioned_error():
    with pytest.raises(ParseError) as exc:
        parse("events a;\nint x = ²;")
    assert str(exc.value) == "2:9: unexpected character '²'"
    assert parse("events a;\nint x = ٣;").variables["x"].init == 3


# -- lexer against the reference loop -----------------------------------------

_FRAGMENTS = sorted(KEYWORDS) + list(_SYMBOLS) + [
    "x", "x1", "x'", "_x", "_", "_'", "__(", "a_(", "été", "Ω'", "变量", "x²",
    "0", "42", "007", "٣", "// note", "//", "/",
    " ", "\t", "\r", "\n", "\r\n",
    "@", "#", ".", "'", "²", "½", "\u00a0", "\x0c",
]
_source_st = st.lists(
    st.sampled_from(_FRAGMENTS) | st.text(alphabet="ab_1 '(/\n²", max_size=3), max_size=30
).map("".join)


@given(_source_st)
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_reference(src):
    try:
        want = reference_tokenize(src)
    except ParseError as e:
        want = str(e)
    try:
        got = tokenize(src)
    except ParseError as e:
        # the fixed bug: the reference starts an integer at a non-decimal
        # digit such as '²', which int() then rejects
        bad = e.msg[-2]
        assume(not (e.msg.startswith("unexpected character") and bad.isdigit() and not bad.isdecimal()))
        got = str(e)
    assert got == want


def _lexed(lex, src):
    try:
        return lex(src)
    except ParseError as e:
        return str(e)


_LONG = "".join(f"int v{i}; // {i}\r\n" if i % 2 else f"\tv{i}'\n" for i in range(10_000))


@pytest.mark.parametrize("src", [
    "events a;\r\nint x;\r\n  proc q() { }\r\n",
    "events a;\r\n\r\n\t@",
    "events a;\n\x0cint x;",
    "events a;\n\u00a0int x;",
    "events a;\nint x; // the end",
    "events a;\n  // only a comment",
    "events a; //",
    _LONG + "  last",
    _LONG + "\x0c",
], ids=["crlf", "crlf-bad", "form-feed", "nbsp", "comment-last", "comment-only-last", "comment-eol", "10k", "10k-bad"])
def test_tokenize_edge_cases_match_reference(src):
    assert _lexed(tokenize, src) == _lexed(reference_tokenize, src)


def test_comment_on_last_line_fixes_eof_column():
    assert tokenize("events a;\nint x; // the end")[-1] == Token("eof", "", 2, 8)
    assert tokenize(_LONG + "x // y")[-2:] == [Token("ident", "x", 10_001, 1), Token("eof", "", 10_001, 3)]


def test_word_starting_with_non_decimal_digit():
    # the reference reads '²' as the start of an integer; the lexer rejects it there
    src = "events a;\n  int x = ²abc;"
    where = next(t for t in reference_tokenize(src) if t.text == "²")
    with pytest.raises(ParseError) as exc:
        tokenize(src)
    assert (exc.value.msg, exc.value.line, exc.value.col) == ("unexpected character '²'", where.line, where.col)


# -- resolve ------------------------------------------------------------------


def test_resolve_casino_constants():
    p = load(open(path("casino")).read())
    loop = p.procedures["main"].body.stmts[-1]
    guards = [o.guard for o in loop.trace_inv.options]
    assert guards[0] == cmp("==", tvar("state"), tconst(0))
    assert guards[1] == cmp("==", tvar("state"), tconst(1))
    assert guards[2] == cmp("==", tvar("state"), tconst(2))


def test_resolve_entry_and_domain():
    p = load(open(path("matcher")).read())
    assert p.entry == "lex"  # first bodied procedure; no main here
    lo, hi = p.int_domain
    assert lo <= -5 and hi >= 126


def test_resolve_mod_sets_transitive():
    p = load(
        "events a;\nint x;\nint y;\n"
        "proc inner() _(modifies x) ;\n"
        "proc mid() { inner(); y = 1; }\n"
        "proc outer() { mid(); }\n"
    )
    assert p.procedures["inner"].mod_set == {"x"}
    assert p.procedures["mid"].mod_set == {"x", "y"}
    assert p.procedures["outer"].mod_set == {"x", "y"}


def test_resolve_recursive_mod_sets():
    p = load(open(path("casino_rec")).read())
    for name in ("game_idle", "game_available", "game_placed", "main"):
        assert p.procedures[name].mod_set == {"pot"}


def test_modified_in_includes_calls():
    p = load(open(path("matcher")).read())
    loop = p.procedures["lex"].body.stmts[-1]
    assert modified_in(loop.body, p) == {"c", "state"}


def test_resolve_checks_hand_built_ast():
    p = parse("events a;\nproc q() { }")
    p.procedures["q"].trace = __import__("retrace.tracespec", fromlist=["plain"]).plain(
        rx.symbol("zz")
    )
    with pytest.raises(UndeclaredEvent):
        resolve(p)


# -- pretty printing ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS) + sorted(MUTANTS))
def test_pretty_roundtrip(name):
    src = open(path(name)).read()
    p1 = parse(src)
    assert parse(pretty(p1)) == p1


def test_pretty_is_stable():
    src = open(path("casino")).read()
    p1 = parse(src)
    once = pretty(p1)
    assert pretty(parse(once)) == once


if __name__ == "__main__":
    print("PARSE_ERRORS = [")
    for src, _, _ in PARSE_ERRORS:
        try:
            parse(src)
            print(f"    # no error: {src!r}")
        except SourceError as e:
            print(f"    ({src!r}, {type(e).__name__}, {str(e)!r}),")
    print("]")
