"""Regular expressions over a finite event alphabet.

Terms are kept in a canonical form and interned, so structurally equal
expressions are the same object:

- concatenation is right-nested, `Concat(head, tail)` with a head that is
  never itself a concatenation, so putting one factor in front of a long
  tail, and taking the derivative of a long concatenation, costs O(1);
- choice is a sorted duplicate-free set of options;
- stars are collapsed.

This makes the memoization keys of the inclusion check stable under
reordering and duplication of choices, which is what guarantees its
termination.  Every walk along a concatenation is a loop, and the inclusion
check is an explicit depth-first worklist, so neither depends on the
interpreter's recursion limit however long the expressions get.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .record import Frozen, set_field

Word = tuple[str, ...]


class Regex:
    """Base class for regex nodes.

    Instances are interned by the module-level constructors; equality and
    hashing are therefore identity-based and O(1).  Do not instantiate the
    node classes directly.
    """

    __slots__ = ("_str", "_nullable", "_first")

    def __init__(self, nullable: bool) -> None:
        self._str: Optional[str] = None
        self._nullable = nullable
        self._first: Optional[frozenset[str]] = None

    def __repr__(self) -> str:
        return render(self)


class Empty(Regex):
    __slots__ = ()


class Epsilon(Regex):
    __slots__ = ()


class Symbol(Regex):
    __slots__ = ("event",)

    def __init__(self, event: str) -> None:
        super().__init__(False)
        self.event = event


class Concat(Regex):
    # head is not Empty/Epsilon/Concat; tail is not Empty/Epsilon
    __slots__ = ("head", "tail")

    def __init__(self, head: Regex, tail: Regex) -> None:
        super().__init__(head._nullable and tail._nullable)
        self.head = head
        self.tail = tail


class Choice(Regex):
    # options: len >= 2, sorted by rendering, unique, no Empty/Choice children
    __slots__ = ("options",)

    def __init__(self, options: tuple[Regex, ...]) -> None:
        super().__init__(any(o._nullable for o in options))
        self.options = options


class Star(Regex):
    # inner is not Empty/Epsilon/Star
    __slots__ = ("inner",)

    def __init__(self, inner: Regex) -> None:
        super().__init__(True)
        self.inner = inner


EMPTY: Regex = Empty(False)
EPSILON: Regex = Epsilon(True)

# keys: (id(head), id(tail)) for concatenations, tagged tuples otherwise
_interned: dict[object, Regex] = {}


def symbol(event: str) -> Regex:
    """Single-event regex."""
    if not event:
        raise ValueError("event name must be nonempty")
    key = ("sym", event)
    r = _interned.get(key)
    if r is None:
        r = Symbol(event)
        _interned[key] = r
    return r


def _cons(head: Regex, tail: Regex) -> Regex:
    key = (id(head), id(tail))
    r = _interned.get(key)
    if r is None:
        r = Concat(head, tail)
        _interned[key] = r
    return r


def _spine(r: Regex) -> Iterator[Regex]:
    """The factors of a concatenation in order; any other regex is its own
    single factor."""
    while isinstance(r, Concat):
        yield r.head
        r = r.tail
    yield r


def concat(*parts: Regex) -> Regex:
    """Sequential composition; drops neutral factors, annihilates on the
    empty language.

    Folds right over the parts and splices every part but the last, so
    prepending a short part to a long concatenation costs O(1) in the
    length of the latter.
    """
    if EMPTY in parts:
        return EMPTY
    out = EPSILON
    for p in reversed(parts):
        if p is EPSILON:
            continue
        if out is EPSILON:
            out = p
            continue
        for f in reversed(list(_spine(p))):
            out = _cons(f, out)
    return out


def choice(*parts: Regex) -> Regex:
    """Union; the options form a flattened, sorted, duplicate-free set."""
    flat: list[Regex] = []
    for p in parts:
        if p is EMPTY:
            continue
        if isinstance(p, Choice):
            flat.extend(p.options)
        else:
            flat.append(p)
    seen: set[int] = set()
    uniq: list[Regex] = []
    for p in flat:
        if id(p) not in seen:
            seen.add(id(p))
            uniq.append(p)
    if not uniq:
        return EMPTY
    if len(uniq) == 1:
        return uniq[0]
    uniq.sort(key=render)
    key = ("alt", tuple(id(o) for o in uniq))
    r = _interned.get(key)
    if r is None:
        r = Choice(tuple(uniq))
        _interned[key] = r
    return r


def star(r: Regex) -> Regex:
    """Repetition; star of the empty word or empty language is the empty
    word, nested stars collapse."""
    if r is EMPTY or r is EPSILON:
        return EPSILON
    if isinstance(r, Star):
        return r
    key = ("star", id(r))
    s = _interned.get(key)
    if s is None:
        s = Star(r)
        _interned[key] = s
    return s


def plus(r: Regex) -> Regex:
    """One-or-more repetition, surface sugar for r followed by r*."""
    return concat(r, star(r))


def render(r: Regex) -> str:
    """Deterministic concrete syntax; used for display and for the stable
    ordering of choice options.

    The string is cached on `r` alone: caching it on every suffix of a long
    concatenation would take memory quadratic in its length.
    """
    if r._str is None:
        r._str = _render(r, 0)
    return r._str


def _render(r: Regex, prec: int) -> str:
    # precedence: choice 0, concat 1, star 2
    if r is EMPTY:
        return "∅"
    if r is EPSILON:
        return "()"
    if isinstance(r, Symbol):
        return r.event
    if isinstance(r, Choice):
        s = " | ".join(_render(o, 1) for o in r.options)
        return f"({s})" if prec > 0 else s
    if isinstance(r, Concat):
        s = " ".join(_render(f, 2) for f in _spine(r))
        return f"({s})" if prec > 1 else s
    assert isinstance(r, Star)
    inner = _render(r.inner, 3)
    return f"{inner}*"


def nullable(r: Regex) -> bool:
    """Whether the language contains the empty word (fixed at construction)."""
    return r._nullable


def is_empty(r: Regex) -> bool:
    """Whether the language is empty; canonical form reduces this to a
    single identity check."""
    return r is EMPTY


def first(r: Regex) -> frozenset[str]:
    """The exact set of events that begin some word of the language."""
    if r._first is None:
        if r is EMPTY or r is EPSILON:
            r._first = frozenset()
        elif isinstance(r, Symbol):
            r._first = frozenset((r.event,))
        elif isinstance(r, Choice):
            r._first = frozenset().union(*(first(o) for o in r.options))
        elif isinstance(r, Star):
            r._first = first(r.inner)
        else:
            out: set[str] = set()
            for f in _spine(r):
                out |= first(f)
                if not f._nullable:
                    break
            r._first = frozenset(out)
    return r._first


# (event, node) -> derivative; interned nodes hash by identity
_derivatives: dict[tuple[str, Regex], Regex] = {}


def derive(event: str, r: Regex) -> Regex:
    """Brzozowski derivative: the language of suffixes after a leading
    occurrence of `event`.

    Memoized on the canonical, interned node, so a term is derived by each
    event at most once (Owens, Reppy and Turon, 2009).
    """
    d = _derivatives.get((event, r))
    if d is None:
        d = _derivatives[event, r] = _derive(event, r)
    return d


def _derive(event: str, r: Regex) -> Regex:
    # subterms go through the module's `derive`, and so through its memo
    if r is EMPTY or r is EPSILON:
        return EMPTY
    if isinstance(r, Symbol):
        return EPSILON if r.event == event else EMPTY
    if isinstance(r, Choice):
        return choice(*(derive(event, o) for o in r.options))
    if isinstance(r, Star):
        return concat(derive(event, r.inner), r)
    assert isinstance(r, Concat)
    options = [concat(derive(event, r.head), r.tail)]
    # every head up to the first one that is not nullable may consume
    # `event`; a loop rather than recursion on the tail keeps the depth constant
    while r.head._nullable:
        r = r.tail
        if not isinstance(r, Concat):
            options.append(derive(event, r))
            break
        options.append(concat(derive(event, r.head), r.tail))
    return options[0] if len(options) == 1 else choice(*options)


def member(word: Word, r: Regex) -> bool:
    """Word membership via iterated derivatives."""
    for a in word:
        r = derive(a, r)
        if r is EMPTY:
            return False
    return r._nullable


def alphabet(r: Regex) -> frozenset[str]:
    """All events mentioned in the expression."""
    if isinstance(r, Symbol):
        return frozenset((r.event,))
    if isinstance(r, Concat):
        return frozenset().union(*(alphabet(f) for f in _spine(r)))
    if isinstance(r, Choice):
        return frozenset().union(*(alphabet(o) for o in r.options))
    if isinstance(r, Star):
        return alphabet(r.inner)
    return frozenset()


def shortest_word(r: Regex) -> Optional[Word]:
    """A shortest word of the language, or None when the language is empty."""
    if r is EMPTY:
        return None
    if r is EPSILON or isinstance(r, Star):
        return ()
    if isinstance(r, Symbol):
        return (r.event,)
    if isinstance(r, Concat):
        out: list[str] = []
        for f in _spine(r):
            w = shortest_word(f)
            assert w is not None  # canonical concat has no empty factor
            out.extend(w)
        return tuple(out)
    assert isinstance(r, Choice)
    best: Optional[Word] = None
    for o in r.options:
        w = shortest_word(o)
        if w is not None and (best is None or (len(w), w) < (len(best), best)):
            best = w
    return best


class InclusionResult(Frozen):
    """Outcome of a language-inclusion check; `witness` is a word of the
    left language missing from the right one when the check fails."""

    __slots__ = ("holds", "witness")

    def __init__(self, holds: bool, witness: Optional[Word] = None) -> None:
        set_field(self, "holds", holds)
        set_field(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.holds


def included(u: Regex, v: Regex) -> InclusionResult:
    """Decide L(u) ⊆ L(v) by simultaneous derivatives.

    A depth-first search over pairs of derivatives, taking the events of
    `first(u)` in sorted order.  The set of visited pairs acts as a
    simulation relation between the two expressions; canonical interning
    makes its keys stable, which bounds the search.  The search keeps its
    own stack, one frame per pair being expanded, so its depth is not tied
    to the recursion limit.  On failure the witness is the word that leads
    to the failing pair, followed by a shortest word left over there.
    """
    visited: set[tuple[Regex, Regex]] = set()
    # frames[i] expands a pair at depth i; path[i] is the event it took
    frames: list[tuple[Regex, Regex, Iterator[str]]] = []
    path: list[str] = []
    while True:
        if (u, v) not in visited:
            rest: Optional[Word] = None
            if v is EMPTY:
                if u is not EMPTY:
                    rest = shortest_word(u)
            elif u._nullable and not v._nullable:
                rest = ()
            else:
                visited.add((u, v))
                frames.append((u, v, iter(sorted(first(u)))))
            if rest is not None:
                return InclusionResult(False, tuple(path) + rest)
        while frames:
            fu, fv, events = frames[-1]
            a = next(events, None)
            if a is not None:
                break
            frames.pop()
        else:
            return InclusionResult(True)
        del path[len(frames) - 1:]
        path.append(a)
        u, v = derive(a, fu), derive(a, fv)


def equivalent(u: Regex, v: Regex) -> bool:
    """Language equality, i.e. inclusion both ways."""
    return included(u, v).holds and included(v, u).holds
