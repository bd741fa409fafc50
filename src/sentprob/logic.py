"""Propositional sentences over countably many atoms, with a total enumeration.

Concrete syntax (whitespace between tokens is ignored):

    sentence := '_|_'                      falsum
              | 'a' DIGITS                 atom, e.g. a0, a17
              | '!' sentence               negation
              | '(' sentence '&' sentence ')'
              | '(' sentence '|' sentence ')'
              | '(' sentence '->' sentence ')'

Binary connectives always carry their parentheses; negation does not.

The enumeration maps every natural number to a sentence and back. Index 0 is
falsum; any other index k is split as (k-1) = 5*payload + tag, where the tag
selects the constructor and the payload carries an atom index, a child index,
or a Cantor-paired child pair. Decoding is polynomial in the bit length of k.

Sentences nest without bound, so no walk recurses: `fold` is the one
post-order walker (`atoms_of`, `sentence_index` and `prover`'s walks are
folds), `sentence_at` decodes on the same kind of stack, and the parser
recurses only into parentheses, whose nesting past the interpreter's limit
is a ParseError. Importing this module changes no interpreter setting.

Nodes are immutable and interned: building a node equal to a live one returns
that node. The pipeline rebuilds the same sentences over and over, some
thousands of levels deep, and with one object per sentence equality is
identity and the hash is the object's, so no memo lookup walks a tree. The
intern tables are plain dicts of weak references, read by C-level calls
alone, so a node nothing else holds is freed.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Any, Callable, NamedTuple, Union
from weakref import ref

from .bits import SlottedRecord


class _Ref(ref):
    # A weakref.KeyedRef without its Python-level __new__ and __init__.
    __slots__ = ("key",)


class _Node(SlottedRecord):
    """Base of the six node classes. A subclass lists its parts in
    ``__slots__``, in constructor order, and gets its own intern table from
    a node's parts (the part itself for one-part nodes, which saves a tuple
    per atom and negation) to a ``_Ref`` of the live node built from them,
    whose callback drops the entry unless a rebuilt node holds it by then."""

    __slots__ = ("__weakref__",)
    _interned: dict
    __eq__, __hash__ = object.__eq__, object.__hash__  # interned: equal is identical

    def __init_subclass__(cls) -> None:
        cls._interned = table = {}
        cls._forget = staticmethod(lambda r: table.get(r.key) is r and table.pop(r.key))

    def __new__(cls, *parts):
        key = parts[0] if len(parts) == 1 else parts
        r = cls._interned.get(key)
        node = None if r is None else r()
        if node is None:
            if len(parts) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes parts {cls.__slots__}, got {len(parts)}")
            node = object.__new__(cls)
            for name, part in zip(cls.__slots__, parts):
                object.__setattr__(node, name, part)
            r = cls._interned[key] = _Ref(node, cls._forget)
            r.key = key
        return node

    def __deepcopy__(self, memo) -> "_Node":
        return self


class Bottom(_Node):
    __slots__ = ()


class Atom(_Node):
    __slots__ = ("index",)
    index: int


class Not(_Node):
    __slots__ = ("inner",)
    inner: "Sentence"


class And(_Node):
    __slots__ = ("left", "right")
    left: "Sentence"
    right: "Sentence"


class Or(_Node):
    __slots__ = ("left", "right")
    left: "Sentence"
    right: "Sentence"


class Implies(_Node):
    __slots__ = ("left", "right")
    left: "Sentence"
    right: "Sentence"


Sentence = Union[Bottom, Atom, Not, And, Or, Implies]

BOTTOM = Bottom()

_TAG_ATOM, _TAG_NOT, _TAG_AND, _TAG_OR, _TAG_IMPLIES = range(5)
# The constructor of each binary tag, and the tag of each binary constructor.
_BINARY = (None, None, And, Or, Implies)
_BINARY_TAG = {And: _TAG_AND, Or: _TAG_OR, Implies: _TAG_IMPLIES}


def fold(s: Sentence, atom: Callable, bottom: Any, negate: Callable, binary: Callable) -> Any:
    """The post-order fold of s: ``atom(node)`` at an atom, ``bottom`` at
    falsum, ``negate(v)`` at a negation whose part folds to v, and
    ``binary(t, l, r)`` at a node of binary type t whose parts fold to l and
    r, the left part folded first. Iterative, so nesting depth costs no
    Python frames: a compound node pushes its type as a marker under its
    parts, and the marker pops once their folds are on the value stack."""
    values: list = []
    stack: list = [s]
    while stack:
        item = stack.pop()
        t = type(item)
        if t is Atom:
            values.append(atom(item))
        elif t is type:
            if item is Not:
                values.append(negate(values.pop()))
            else:
                right = values.pop()
                values.append(binary(item, values.pop(), right))
        elif t is Not:
            stack += (Not, item.inner)
        elif t is Bottom:
            values.append(bottom)
        elif t in _BINARY_TAG:
            stack += (t, item.right, item.left)
        else:
            raise TypeError(f"not a sentence: {item!r}")
    return values[0]


def _pair(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def _unpair(z: int) -> tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


@lru_cache(maxsize=1 << 17)
def sentence_at(k: int) -> Sentence:
    """Sentence with enumeration index k (total; the inverse of sentence_index).
    Decoded on an explicit stack like `fold`: a compound index pushes its
    constructor as a marker under its parts' indexes, and the marker pops
    once the parts are built."""
    if k < 0:
        raise ValueError("index must be a natural number")
    values: list[Sentence] = []
    stack: list = [k]
    while stack:
        item = stack.pop()
        if type(item) is type:
            if item is Not:
                values.append(Not(values.pop()))
            else:
                right = values.pop()
                values.append(item(values.pop(), right))
        elif not item:
            values.append(BOTTOM)
        else:
            payload, tag = divmod(item - 1, 5)
            if tag == _TAG_ATOM:
                values.append(Atom(payload))
            elif tag == _TAG_NOT:
                stack += (Not, payload)
            else:
                a, b = _unpair(payload)
                stack += (_BINARY[tag], b, a)
    return values[0]


@lru_cache(maxsize=1 << 17)
def sentence_index(s: Sentence) -> int:
    return fold(
        s,
        lambda a: 1 + 5 * a.index + _TAG_ATOM,
        0,
        lambda inner: 1 + 5 * inner + _TAG_NOT,
        lambda t, left, right: 1 + 5 * _pair(left, right) + _BINARY_TAG[t],
    )


@lru_cache(maxsize=1 << 16)
def atoms_of(s: Sentence) -> frozenset[int]:
    return frozenset(fold(s, lambda a: {a.index}, frozenset(), lambda v: v, _merge_atoms))


def _merge_atoms(t: type, a: set, b: set) -> set:
    """The atoms of both parts, the smaller set merged into the larger, so
    a chain of depth d costs O(d log d) element copies, not O(d**2). Each
    nonempty set is its own part's fresh set; the empty one is the shared
    frozenset of falsum, never merged into."""
    if len(a) < len(b):
        a, b = b, a
    if b:
        a |= b
    return a


class ParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def sentence(self) -> Sentence:
        """The sentence at the current position. A run of '!' is read in a
        loop; only parentheses recurse, one frame per level."""
        self.skip_ws()
        negations = 0
        while self.peek() == "!":
            self.pos += 1
            negations += 1
            self.skip_ws()
        c = self.peek()
        if c == "_":
            self.expect("_|_")
            s: Sentence = BOTTOM
        elif c == "a":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise ParseError("expected atom index", start)
            s = Atom(int(self.text[start : self.pos]))
        elif c == "(":
            self.pos += 1
            left = self.sentence()
            self.skip_ws()
            op = self.peek()
            if op == "&":
                self.pos += 1
                ctor: Callable[[Sentence, Sentence], Sentence] = And
            elif op == "|":
                self.pos += 1
                ctor = Or
            elif op == "-":
                self.expect("->")
                ctor = Implies
            else:
                raise ParseError("expected connective '&', '|' or '->'", self.pos)
            right = self.sentence()
            self.skip_ws()
            self.expect(")")
            s = ctor(left, right)
        else:
            raise ParseError("expected sentence", self.pos)
        for _ in range(negations):
            s = Not(s)
        return s


def parse_sentence(text: str) -> Sentence:
    p = _Parser(text)
    try:
        s = p.sentence()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", p.pos) from None
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input", p.pos)
    return s


@lru_cache(maxsize=1 << 16)
def render_sentence(s: Sentence) -> str:
    # Iterative so that deeply nested sentences never hit the recursion limit.
    parts: list[str] = []
    stack: list[object] = [s]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Bottom):
            parts.append("_|_")
        elif isinstance(item, Atom):
            parts.append(f"a{item.index}")
        elif isinstance(item, Not):
            parts.append("!")
            stack.append(item.inner)
        elif isinstance(item, And):
            stack += (")", item.right, " & ", item.left, "(")
        elif isinstance(item, Or):
            stack += (")", item.right, " | ", item.left, "(")
        elif isinstance(item, Implies):
            stack += (")", item.right, " -> ", item.left, "(")
        else:
            raise TypeError(f"not a sentence: {item!r}")
    return "".join(parts)


TOP = Implies(BOTTOM, BOTTOM)


class Theory(NamedTuple):
    """A deterministic total axiom list. axiom_at(i) must be defined for all i."""

    name: str
    axiom_at: Callable[[int], Sentence]


EMPTY_THEORY = Theory("empty", lambda i: TOP)
