"""Arithmetization: finite sequences, finite sets, and the symbol codec.

Sequences are digit strings in little-endian base 4 over the digit alphabet
{1, 2, 3}: each entry is written as its binary expansion least-significant
bit first (bit 0 -> digit 1, bit 1 -> digit 2) followed by the terminator
digit 3. Every digit is nonzero, so any contiguous substring of a code is
numerically at most the whole code; projections therefore never exceed the
sequence code.

Symbol strings use the same positional idea in base 16 with all symbol
codes >= 1, so a subformula's code never exceeds its host's. Unbounded
constant and variable indices ride behind an escape symbol as base-4 digit
runs closed by a terminator symbol.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import get_type_hints

from . import syntax as sx
from .elements import Std


class CodingError(Exception):
    pass


class InvalidCode(CodingError):
    pass


class NotWellFormed(CodingError):
    pass


class NotEncodable(CodingError):
    """Symbolic constants and lazy families have no standard code."""


# ---------------------------------------------------------------------------
# finite sequences


@dataclass(frozen=True)
class SeqCode:
    code: int

    def __post_init__(self):
        if self.code < 0:
            raise InvalidCode("sequence codes are naturals")


def _seq_digits(code: int) -> list[int]:
    # base 4 is two bits per digit; go through the binary string for
    # linear-time conversion on large codes
    if code == 0:
        return []
    bits = bin(code)[2:]
    if len(bits) % 2:
        bits = "0" + bits
    return [int(bits[i - 2:i], 2) for i in range(len(bits), 0, -2)]


def _entry_digits(n: int) -> list[int]:
    ds = []
    while n:
        n, b = divmod(n, 2)
        ds.append(b + 1)
    ds.append(3)
    return ds


def _digits_to_int(digits: list[int], bits_per: int) -> int:
    if not digits:
        return 0
    chunks = [format(d, f"0{bits_per}b") for d in reversed(digits)]
    return int("".join(chunks), 2)


def seq_encode(items: list[int]) -> SeqCode:
    digits: list[int] = []
    for n in items:
        if n < 0:
            raise CodingError("sequence entries are naturals")
        digits.extend(_entry_digits(n))
    return SeqCode(_digits_to_int(digits, 2))


def seq_decode(s: SeqCode) -> list[int]:
    digits = _seq_digits(s.code)
    if s.code and digits[-1] != 3:
        raise InvalidCode(f"{s.code} is not a sequence code")
    items: list[int] = []
    bits: list[int] = []
    for d in digits:
        if d == 0:
            raise InvalidCode(f"{s.code} has a zero digit")
        if d == 3:
            if bits and bits[-1] == 0:
                raise InvalidCode(f"{s.code} has a non-canonical entry")
            items.append(sum(b << i for i, b in enumerate(bits)))
            bits = []
        else:
            bits.append(d - 1)
    return items


def seq_len(s: SeqCode) -> int:
    return sum(1 for d in _seq_digits(s.code) if d == 3)


def proj(s: SeqCode, i: int) -> int:
    """[x]_i with the least-z clause: out-of-range projections are 0."""
    items = seq_decode(s)
    if 0 <= i < len(items):
        return items[i]
    return 0


def seq_concat(a: SeqCode, b: SeqCode) -> SeqCode:
    return seq_encode(seq_decode(a) + seq_decode(b))


# ---------------------------------------------------------------------------
# finite sets (characteristic bitsets: x in y iff bit x of y)


@dataclass(frozen=True)
class SetCode:
    code: int

    def __post_init__(self):
        if self.code < 0:
            raise InvalidCode("set codes are naturals")


EMPTY_SET = SetCode(0)


def set_member(x: int, s: SetCode) -> bool:
    return x >= 0 and (s.code >> x) & 1 == 1


def set_singleton(x: int) -> SetCode:
    if x < 0:
        raise CodingError("set members are naturals")
    return SetCode(1 << x)


def set_union(a: SetCode, b: SetCode) -> SetCode:
    return SetCode(a.code | b.code)


def set_intersection(a: SetCode, b: SetCode) -> SetCode:
    return SetCode(a.code & b.code)


def set_difference(a: SetCode, b: SetCode) -> SetCode:
    return SetCode(a.code & ~b.code)


def set_members(s: SetCode) -> frozenset[int]:
    out, code, i = set(), s.code, 0
    while code:
        if code & 1:
            out.add(i)
        code >>= 1
        i += 1
    return frozenset(out)


def set_of(members: frozenset[int] | set[int]) -> SetCode:
    code = 0
    for m in members:
        code |= 1 << m
    return SetCode(code)


# ---------------------------------------------------------------------------
# symbol codec for terms and formulas

BASE = 16

SYM_ZERO = 1
SYM_SC = 2
SYM_ADD = 3
SYM_MUL = 4
SYM_EQ = 5
SYM_NOT = 6
SYM_OR = 7
SYM_EXISTS = 8
SYM_CONST = 9
SYM_VAR = 10
SYM_ENDIDX = 11
DIGIT_CODES = (12, 13, 14, 15)  # base-4 index digits

SYMBOL_NAMES = {
    SYM_ZERO: "0",
    SYM_SC: "Sc",
    SYM_ADD: "+",
    SYM_MUL: "*",
    SYM_EQ: "=",
    SYM_NOT: "not",
    SYM_OR: "or",
    SYM_EXISTS: "exists",
    SYM_CONST: "const",
    SYM_VAR: "var",
    SYM_ENDIDX: "end",
    12: "d0",
    13: "d1",
    14: "d2",
    15: "d3",
}


@dataclass(frozen=True)
class GodelCode:
    code: int

    def __post_init__(self):
        if self.code < 0:
            raise InvalidCode("codes are naturals")

    def __le__(self, other: "GodelCode") -> bool:
        return self.code <= other.code


# Codes are built and read as hex strings: one hex digit per symbol, the
# first symbol the last digit.

# the symbol (as its hex digit) each codable node class writes before its
# index and parts
SYMBOL_OF = {cls: format(sym, "x") for cls, sym in {
    sx.Zero: SYM_ZERO, sx.Const: SYM_CONST, sx.Var: SYM_VAR, sx.Succ: SYM_SC,
    sx.Add: SYM_ADD, sx.Mul: SYM_MUL, sx.Eq: SYM_EQ, sx.Not: SYM_NOT,
    sx.Or: SYM_OR, sx.Ex: SYM_EXISTS,
}.items()}
_CONST, _VAR, _EXISTS, _END, _ZERO_DIGIT = (
    format(s, "x") for s in (SYM_CONST, SYM_VAR, SYM_EXISTS, SYM_ENDIDX, DIGIT_CODES[0]))
# each hex digit of an index as its two base-4 index digits, the low one first
_QUADS = str.maketrans({format(h, "x"): format(DIGIT_CODES[h % 4], "x")
                        + format(DIGIT_CODES[h // 4], "x") for h in range(16)})


def _index_run(n: int) -> str:
    """An index's symbols: its base-4 digits, least significant first and
    with no zero digit on top, then the terminator."""
    if n < 0:
        raise NotEncodable(f"index {n} is negative; indices are naturals")
    return format(n, "x")[::-1].translate(_QUADS).rstrip(_ZERO_DIGIT) + _END


def _emit(x: sx.Obj, out: list[str]) -> None:
    """Write x's symbols in pre-order, an index with the symbol before it;
    iterative, so any nesting depth is fine."""
    stack = [x]
    pop, push, put = stack.pop, stack.extend, out.append  # bound once: most calls code small objects
    while stack:
        y = pop()
        sym = SYMBOL_OF.get(type(y))
        if sym is None:
            if isinstance(y, sx.FamilyRef):
                raise NotEncodable(f"family reference {y!r} has no standard code")
            raise NotEncodable(f"abbreviation {y!r} must be expanded before coding")
        if sym == _CONST:
            if not isinstance(y.elem, Std):
                raise NotEncodable(f"constant {y.elem} has no standard code")
            sym += _index_run(y.elem.n)
        elif sym == _VAR or sym == _EXISTS:
            sym += _index_run(y.index)
        put(sym)
        push(y.children[::-1])


def godel_encode(x: sx.Obj) -> GodelCode:
    out: list[str] = []
    _emit(x, out)
    return GodelCode(int("".join(out)[::-1], 16))


# the most symbols ``satkit encode`` writes; the reader builds no standard
# tower higher than this either, as its code would be longer
MAX_CODE_SYMBOLS = 100_000


def _run_length(y) -> int:
    # the length of the index run after y's symbol: the index's base-4
    # digits and the terminator (a constant with no code has none)
    if type(y) is sx.Const:
        return (y.elem.n.bit_length() + 3) // 2 if isinstance(y.elem, Std) else 0
    return (y.index.bit_length() + 3) // 2


# the classes whose symbol an index run follows
_INDEXED = frozenset({sx.Var, sx.Ex, sx.Const})


def code_length(x: sx.Obj) -> int:
    """The number of symbols ``godel_encode`` writes for x. A child that
    is the same object as its sibling is walked once and counted twice,
    so a shared tower costs its height. A node with no code counts one
    symbol; ``godel_encode`` refuses it."""
    n, stack = 0, [(x, 1)]  # a part and how many times it occurs
    while stack:
        y, k = stack.pop()
        while True:  # down a run of one-child nodes without the stack
            n += k * (1 + _run_length(y)) if type(y) in _INDEXED else k
            kids = y.children
            if len(kids) != 1:
                break
            y = kids[0]
        if len(kids) == 2 and kids[0] is kids[1]:
            stack.append((kids[0], 2 * k))
        else:
            stack += ((c, k) for c in reversed(kids))
    return n


def _code_key(x: sx.Obj) -> tuple:
    try:
        return (0, godel_encode(x).code)
    except NotEncodable:
        return (1, repr(x))


# x's key in the code order: (0, its code), or (1, its repr) when it has no
# code, so uncodable objects sort after codable ones; cached per node
code_key = sx.fact("_ck", _code_key)


@contextmanager
def _any_length():
    # the interpreter refuses decimal conversions of more than 4300
    # digits by default; lift that for one conversion and put it back
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # an interpreter without the limit
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def to_decimal(n: int) -> str:
    """A code's decimal text, however many digits it has."""
    with _any_length():
        return str(n)


def from_decimal(text: str) -> int:
    """The natural a run of ASCII digits names, however many digits it
    has; raises InvalidCode on any other text (a sign, a space, an
    underscore or a non-ASCII digit)."""
    if not (text.isdigit() and text.isascii()):
        raise InvalidCode(f"a code is a run of ASCII digits, found {text!r}")
    with _any_length():
        return int(text)


class _Reader:
    def __init__(self, symbols: list[int]):
        self.symbols = symbols
        self.pos = 0

    def take(self) -> int:
        if self.pos >= len(self.symbols):
            raise NotWellFormed("truncated code")
        s = self.symbols[self.pos]
        self.pos += 1
        return s

    def read_index(self) -> int:
        digits = []
        while True:
            s = self.take()
            if s == SYM_ENDIDX:
                break
            if s not in DIGIT_CODES:
                raise NotWellFormed(f"symbol {s} inside an index run")
            digits.append(DIGIT_CODES.index(s))
        if digits and digits[-1] == 0:
            raise NotWellFormed("non-canonical index digits")
        return sum(d * 4 ** i for i, d in enumerate(digits))

    def read(self, kind: str) -> sx.Obj:
        """The term or formula (by kind) whose symbols start here; iterative,
        so any nesting depth reads."""
        stack = []  # open nodes: constructor, arguments so far, parts left
        while True:
            s = self.take()
            shape = _SHAPES[kind].get(s)
            if shape is None:
                raise NotWellFormed(f"symbol {s} cannot start a {kind}")
            make, indexed, parts = shape
            stack.append((make, [self.read_index()] if indexed else [], iter(parts)))
            while True:
                make, args, parts = stack[-1]
                kind = next(parts, None)  # of the next part to read
                if kind is not None:
                    break
                stack.pop()
                obj = make(*args)
                if not stack:
                    return obj
                stack[-1][1].append(obj)


def _const(n: int) -> sx.Const:
    if n == 0:  # const() would give ZERO, whose code is another
        raise NotWellFormed("constant index 0: the constant 0 has its own symbol")
    return sx.Const(Std(n))


def _shape(cls: type) -> tuple:
    """What cls's symbol starts: its node's constructor, whether an index
    run follows the symbol (an ``index`` or ``elem`` field) and the kinds
    of the parts after that (its ``Term`` and ``Formula`` fields)."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    make = {sx.Zero: lambda: sx.ZERO, sx.Const: _const}.get(cls, cls)
    return (make, "index" in names or "elem" in names,
            tuple(hints[n].__name__.lower() for n in names if hints[n] in (sx.Term, sx.Formula)))


# each symbol's shape, by the kind of object it starts
_SHAPES = {kind: {int(sym, 16): _shape(cls) for cls, sym in SYMBOL_OF.items()
                  if issubclass(cls, sort)}
           for kind, sort in (("term", sx.Term), ("formula", sx.Formula))}


# a code's hex digits (as ASCII bytes) to the symbols they stand for
_SYMBOL_BYTES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _symbols_of(code: int) -> list[int]:
    if code == 0:
        return []
    digits = format(code, "x")
    if "0" in digits:
        raise NotWellFormed("zero symbol inside a code")
    return list(digits[::-1].encode().translate(_SYMBOL_BYTES))


def godel_decode(g: GodelCode) -> sx.Obj:
    """Inverse of godel_encode; rejects everything outside its image."""
    syms = _symbols_of(g.code)
    if not syms:
        raise NotWellFormed("the empty code names nothing")
    reader = _Reader(syms)
    out = reader.read("formula" if syms[0] in _SHAPES["formula"] else "term")
    if reader.pos != len(syms):
        raise NotWellFormed("trailing symbols after a complete object")
    return out


def is_valid_code(code: int) -> bool:
    try:
        godel_decode(GodelCode(code))
        return True
    except CodingError:
        return False


def encoding_manifest() -> dict:
    """The frozen codec parameters; byte-exact codes require these."""
    return {
        "version": 1,
        "base": BASE,
        "symbols": {name: code for code, name in SYMBOL_NAMES.items()},
        "index_digit_base": 4,
        "index_digit_codes": list(DIGIT_CODES),
        "index_terminator": SYM_ENDIDX,
        "order": "little-endian positional",
        "sequence_digit_base": 4,
        "sequence_entry_digits": {"bit0": 1, "bit1": 2, "terminator": 3},
    }
