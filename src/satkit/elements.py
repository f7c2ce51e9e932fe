"""Ground-model elements: standard naturals plus symbolic nonstandard values.

A symbolic element is an affine expression ``q*b + r`` over a named infinite
base ``b``, with a dyadic coefficient ``q > 0`` and an integer offset ``r``.
Each base is declared divisible by 2**64 by fiat, so halving an even offset
stays exact down to that depth; anything deeper (or any product of two
symbolic values) is rejected as indeterminate rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import re

HALVING_CAP = 2 ** 64


class ElementError(Exception):
    pass


class Indeterminate(ElementError):
    """The requested result is not representable as an affine element."""


class Underflow(ElementError):
    """Predecessor of zero."""


class PartialOrderError(ElementError):
    """Comparison of symbolic elements over distinct bases."""


class Element:
    __slots__ = ()


@dataclass(frozen=True)
class Std(Element):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise Underflow(f"negative standard element {self.n}")

    def __str__(self) -> str:
        return str(self.n)


@dataclass(frozen=True)
class Sym(Element):
    base: str
    coeff: Fraction = Fraction(1)
    offset: int = 0

    def __post_init__(self):
        if self.coeff <= 0:
            raise ElementError("symbolic coefficient must be positive")
        if HALVING_CAP % self.coeff.denominator != 0:
            raise Indeterminate(
                f"coefficient denominator {self.coeff.denominator} exceeds the "
                f"declared divisibility of the base"
            )

    def __str__(self) -> str:
        s = f"ω[{self.base}]"
        if self.coeff != 1:
            s += f"*{self.coeff}"
        if self.offset > 0:
            s += f"+{self.offset}"
        elif self.offset < 0:
            s += str(self.offset)
        return s


def std(n: int) -> Std:
    return Std(n)


def sym(base: str, coeff: Fraction | int = 1, offset: int = 0) -> Sym:
    return Sym(base, Fraction(coeff), offset)


def succ(a: Element) -> Element:
    if isinstance(a, Std):
        return Std(a.n + 1)
    return Sym(a.base, a.coeff, a.offset + 1)


def pred(a: Element) -> Element:
    if isinstance(a, Std):
        if a.n == 0:
            raise Underflow("pred(0)")
        return Std(a.n - 1)
    return Sym(a.base, a.coeff, a.offset - 1)


def add(a: Element, b: Element) -> Element:
    if isinstance(a, Std) and isinstance(b, Std):
        return Std(a.n + b.n)
    if isinstance(a, Std):
        a, b = b, a
    if isinstance(b, Std):
        return Sym(a.base, a.coeff, a.offset + b.n)
    if a.base != b.base:
        raise Indeterminate(f"cannot add symbolic elements over {a.base} and {b.base}")
    return Sym(a.base, a.coeff + b.coeff, a.offset + b.offset)


def mul(a: Element, b: Element) -> Element:
    if isinstance(a, Std) and isinstance(b, Std):
        return Std(a.n * b.n)
    if isinstance(a, Sym) and isinstance(b, Sym):
        raise Indeterminate("product of two symbolic elements")
    if isinstance(a, Sym):
        a, b = b, a
    assert isinstance(a, Std) and isinstance(b, Sym)
    if a.n == 0:
        return Std(0)
    off = a.n * b.offset
    return Sym(b.base, a.n * b.coeff, off)


def half(a: Element) -> Element:
    """Exact halving; the even branch of a tower valuation."""
    if isinstance(a, Std):
        if a.n % 2 != 0:
            raise Indeterminate(f"half of odd standard element {a.n}")
        return Std(a.n // 2)
    if a.offset % 2 != 0:
        raise Indeterminate("half of symbolic element with odd offset")
    return Sym(a.base, a.coeff / 2, a.offset // 2)


def elem_lt(a: Element, b: Element) -> bool:
    """Strict order; raises PartialOrderError across distinct symbolic bases."""
    if isinstance(a, Std) and isinstance(b, Std):
        return a.n < b.n
    if isinstance(a, Std):
        return True
    if isinstance(b, Std):
        return False
    if a.base != b.base:
        raise PartialOrderError(f"incomparable bases {a.base} and {b.base}")
    return (a.coeff, a.offset) < (b.coeff, b.offset)


def subst_base(a: Element, base: str, value: Element) -> Element:
    """Evaluate the affine form of ``a`` at ``base := value``.

    Used when instantiating a uniform proof schema at a sample element.
    Raises Indeterminate when the result is fractional or negative.
    """
    if isinstance(a, Std) or a.base != base:
        return a
    # integer arithmetic on the dyadic coefficient's numerator and denominator
    num, den = a.coeff.numerator, a.coeff.denominator
    if isinstance(value, Std):
        r, rem = divmod(num * value.n + a.offset * den, den)
        if rem or r < 0:
            raise Indeterminate(f"instantiation of {a} at {value} is not a natural")
        return Std(r)
    off, rem = divmod(num * value.offset + a.offset * den, den)
    if rem:
        raise Indeterminate(f"instantiation of {a} at {value} has fractional offset")
    # num == den only for the coefficient 1, since a Fraction is kept in lowest terms
    return Sym(value.base, value.coeff if num == den else a.coeff * value.coeff, off)


def affine_hits(a: Element, base: str, target: Element) -> bool:
    """Is there an element v with subst_base(a, base, v) == target?

    Decides whether a parametric constant can collide with a fixed one;
    the uniform-schema checks use this to validate distinctness axioms.
    """
    if isinstance(a, Std) or a.base != base:
        return a == target
    if isinstance(target, Std):
        x = (Fraction(target.n) - a.offset) / a.coeff
        return x.denominator == 1 and x >= 0
    # target = q*b + r: need value Sym(b, u, v) with a.coeff*u == q and
    # a.coeff*v + a.offset == r, u a legal dyadic > 0 and v an integer.
    u = target.coeff / a.coeff
    if u <= 0 or HALVING_CAP % u.denominator != 0:
        return False
    v = (Fraction(target.offset) - a.offset) / a.coeff
    return v.denominator == 1


def never_equal_under(base: str | None, a: Element, b: Element) -> bool:
    """True when a != b holds under every instantiation of ``base``.

    With base None this is plain disequality. Equal affine forms are always
    equal; otherwise each side is probed against the other's image.
    """
    if a == b:
        return False
    if base is None:
        return True
    return not (affine_hits(a, base, b) or affine_hits(b, base, a))


_ELEM_RE = re.compile(
    r"^(?:(?:ω|w)\[(?P<base>[^\]]+)\]|sym:(?P<name>[A-Za-z0-9_]+))"
    r"(?:\*(?P<num>\d+)(?:/(?P<den>\d+))?)?"
    r"(?P<off>[+-]\d+)?$"
)


def parse_element(text: str) -> Element:
    """Parse the printed element syntax: a decimal, the omega-bracket form
    (ASCII alias w[...]), or the sym:name shorthand."""
    text = text.strip()
    if text.isdecimal():  # digits int() reads; isdigit() also takes superscripts
        return Std(int(text))
    m = _ELEM_RE.match(text)
    if m is None:
        raise ElementError(f"unparseable element {text!r}")
    coeff = Fraction(1)
    if m.group("num"):
        if m.group("den") and int(m.group("den")) == 0:
            raise ElementError(f"zero denominator in {text!r}")
        coeff = Fraction(int(m.group("num")), int(m.group("den") or 1))
    off = int(m.group("off") or 0)
    return Sym(m.group("base") or m.group("name"), coeff, off)
