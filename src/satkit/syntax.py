"""Terms and formulas over successor arithmetic with named constants.

The primitive connectives are negation, disjunction and existential
quantification; everything else is an abbreviation that must be expanded
before a formula enters the proof kernel. Nonstandard-length formula and
term families (disjunction towers, successor towers) are represented by
lazy reference leaves indexed by a symbolic element, and unfold one level
at a time.

Nodes are immutable. Each carries slots for facts computed once, on first
use, from its children: its hash, free variables and primitivity here,
its template flag in ``template`` and its parameter bases in ``kernel``.
Cached sets are shared through ``canonical``. The caches live only in
this process (string hashes differ between processes) and are never
serialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from .elements import Element, Std, Sym, elem_lt, pred, std


class SyntaxError_(Exception):
    pass


class CaptureRisk(SyntaxError_):
    pass


# ---------------------------------------------------------------------------
# immutable nodes with cached facts

# the slots every node carries: its hash, free variables (read through
# template symbols), primitivity, template flag and parameter bases; unset
# until first asked for, so read them with getattr(x, slot, None)
FACT_SLOTS = ("_h", "_fv", "_pr", "_tm", "_bs")

EMPTY: frozenset = frozenset()
_CANONICAL: dict[frozenset, frozenset] = {EMPTY: EMPTY}


def canonical(s: frozenset) -> frozenset:
    """The one shared object for a set of cached facts."""
    return _CANONICAL.setdefault(s, s)


def cache_fact(x, slot: str, value):
    """Store a fact in a node's slot and return it."""
    object.__setattr__(x, slot, value)
    return value


def _cached_hash(self) -> int:
    h = getattr(self, "_h", None)
    if h is None:
        h = cache_fact(self, "_h", self._field_hash())
    return h


def node(cls):
    """A frozen, slotted dataclass whose hash is computed once per node.

    The hash is the dataclass hash over the fields, so it is the same in
    every process for nodes whose fields hold no strings."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = _cached_hash
    return cls


class Sealed:
    """A template symbol: a box whose object is read through for free
    variables. The box classes themselves live in ``template``."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = FACT_SLOTS


@node
class Zero(Term):
    def __str__(self) -> str:
        return "0"


@node
class Const(Term):
    elem: Element

    def __post_init__(self):
        # 0 and the constant naming 0 are the same symbol; use const().
        if self.elem == Std(0):
            raise SyntaxError_("Const(0) must be constructed as Zero via const()")


@node
class Var(Term):
    index: int


@node
class Succ(Term):
    arg: Term


@node
class Add(Term):
    left: Term
    right: Term


@node
class Mul(Term):
    left: Term
    right: Term


@node
class SymTermRef(Term):
    """A closed term family of nonstandard height, unfolded lazily.

    family "num": num(e) = Sc(num(e-1)), the numeral tower.
    family "addtower": addtower(e) = addtower(e-1) + addtower(e-1).
    """

    family: str
    index: Element

    def __post_init__(self):
        if self.family not in ("num", "addtower"):
            raise SyntaxError_(f"unknown term family {self.family!r}")
        if not isinstance(self.index, Sym):
            raise SyntaxError_("term family references require a symbolic index")


ZERO = Zero()


def const(e: Element) -> Term:
    if e == Std(0):
        return ZERO
    return Const(e)


def var(i: int) -> Var:
    if i < 0:
        raise SyntaxError_("variable indices are naturals")
    return Var(i)


# ---------------------------------------------------------------------------
# formulas


class Formula:
    __slots__ = FACT_SLOTS

    extended = False


@node
class Eq(Formula):
    left: Term
    right: Term


@node
class Not(Formula):
    body: Formula


@node
class Or(Formula):
    left: Formula
    right: Formula


@node
class Ex(Formula):
    index: int
    body: Formula


@node
class SymFormulaRef(Formula):
    """A closed formula family of nonstandard depth, unfolded lazily.

    family "delta": delta(e) = delta(e-1) v delta(e-1), bottoming out
    (only at standard indices) in 0 != 0.
    family "eps": eps(e) = eps(e-1) v eps(e-1) over eps(0) = not(phi v not phi).
    """

    family: str
    index: Element
    payload: Optional[Formula] = None

    def __post_init__(self):
        if self.family not in ("delta", "eps"):
            raise SyntaxError_(f"unknown formula family {self.family!r}")
        if not isinstance(self.index, Sym):
            raise SyntaxError_("formula family references require a symbolic index")
        if (self.family == "eps") != (self.payload is not None):
            raise SyntaxError_("eps references carry a base formula, delta none")


# extended (abbreviation) connectives; the kernel accepts none of these


@node
class And(Formula):
    extended = True
    left: Formula
    right: Formula


@node
class Imp(Formula):
    extended = True
    left: Formula
    right: Formula


@node
class Iff(Formula):
    extended = True
    left: Formula
    right: Formula


@node
class Xor(Formula):
    extended = True
    left: Formula
    right: Formula


@node
class All(Formula):
    extended = True
    index: int
    body: Formula


@node
class Lt(Formula):
    extended = True
    left: Term
    right: Term


@node
class BEx(Formula):
    """Bounded existential: exists v_index < bound, body."""

    extended = True
    index: int
    bound: Term
    body: Formula


@node
class BAll(Formula):
    extended = True
    index: int
    bound: Term
    body: Formula


Obj = Union[Term, Formula]


def is_primitive(x: Obj) -> bool:
    """Built from the primitive connectives alone; cached per node."""
    pr = getattr(x, "_pr", None)
    if pr is None:
        pr = cache_fact(x, "_pr", _is_primitive(x))
    return pr


def _is_primitive(x: Obj) -> bool:
    if isinstance(x, Term):
        return True
    if x.extended:
        return False
    if isinstance(x, Eq):
        return True
    if isinstance(x, Not):
        return is_primitive(x.body)
    if isinstance(x, Or):
        return is_primitive(x.left) and is_primitive(x.right)
    if isinstance(x, Ex):
        return is_primitive(x.body)
    return isinstance(x, SymFormulaRef)


# ---------------------------------------------------------------------------
# lazy family unfolding


def unfold_ref(x: Obj) -> Obj:
    """One unfolding level of a family reference; identity elsewhere."""
    if isinstance(x, SymTermRef):
        below = pred(x.index)
        child: Term
        if isinstance(below, Std):
            child = numeral(below) if x.family == "num" else _addtower_concrete(below.n)
        else:
            child = SymTermRef(x.family, below)
        if x.family == "num":
            return Succ(child)
        return Add(child, child)
    if isinstance(x, SymFormulaRef):
        below = pred(x.index)
        if isinstance(below, Std):
            sub = delta(below) if x.family == "delta" else epsilon(below, x.payload)
        else:
            sub = SymFormulaRef(x.family, below, x.payload)
        return Or(sub, sub)
    return x


# ---------------------------------------------------------------------------
# free variables / substitution


def free_vars(x: Obj) -> frozenset[int]:
    """Free variables, reading through template symbols; cached per node."""
    fv = getattr(x, "_fv", None)
    if fv is None:
        fv = cache_fact(x, "_fv", canonical(_free_vars(x)))
    return fv


def _free_vars(x: Obj) -> frozenset[int]:
    if isinstance(x, (Zero, Const, SymTermRef, SymFormulaRef)):
        return EMPTY
    if isinstance(x, Var):
        return frozenset((x.index,))
    if isinstance(x, Succ):
        return free_vars(x.arg)
    if isinstance(x, (Add, Mul)):
        return free_vars(x.left) | free_vars(x.right)
    if isinstance(x, (Eq, Lt)):
        return free_vars(x.left) | free_vars(x.right)
    if isinstance(x, Not):
        return free_vars(x.body)
    if isinstance(x, (Or, And, Imp, Iff, Xor)):
        return free_vars(x.left) | free_vars(x.right)
    if isinstance(x, (Ex, All)):
        return free_vars(x.body) - {x.index}
    if isinstance(x, (BEx, BAll)):
        return (free_vars(x.body) - {x.index}) | free_vars(x.bound)
    if isinstance(x, Sealed):
        return free_vars(x.obj)
    raise SyntaxError_(f"free_vars: unknown node {x!r}")


def is_closed(x: Obj) -> bool:
    return not free_vars(x)


def substitute(x: Obj, t: Term, i: int) -> Obj:
    """Replace every free occurrence of v_i by t; bound occurrences stay.

    Subtrees in which v_i is not free are returned as they are. Raises
    CaptureRisk when t has a variable that is bound at some substitution
    site. All internal callers substitute closed terms.
    """
    tv = free_vars(t)

    def go(y: Obj):
        # go descends only where v_i is free, so no binder above y binds it
        if i not in free_vars(y):
            return y
        if isinstance(y, Var):
            return t
        if isinstance(y, Succ):
            return Succ(go(y.arg))
        if isinstance(y, (Add, Mul, Eq, Lt)):
            return type(y)(go(y.left), go(y.right))
        if isinstance(y, Not):
            return Not(go(y.body))
        if isinstance(y, (Or, And, Imp, Iff, Xor)):
            return type(y)(go(y.left), go(y.right))
        if isinstance(y, (Ex, All)):
            if y.index in tv:
                raise CaptureRisk(f"v{y.index} of the substituted term is captured")
            return type(y)(y.index, go(y.body))
        if isinstance(y, (BEx, BAll)):
            body = y.body
            if y.index != i and i in free_vars(body):
                if y.index in tv:
                    raise CaptureRisk(f"v{y.index} of the substituted term is captured")
                body = go(body)
            return type(y)(y.index, go(y.bound), body)
        raise SyntaxError_(f"substitute: unknown node {y!r}")

    return go(x)


@dataclass(frozen=True)
class VarAssignment:
    """Finite-support map from variable indices to constant elements.

    Entry semantics mirror the coded form: position i carries 0 for
    "untouched" and e+1 for "substitute the constant naming e".
    """

    entries: tuple[tuple[int, Element], ...] = ()

    def __post_init__(self):
        seen = set()
        for i, _ in self.entries:
            if i in seen:
                raise SyntaxError_(f"duplicate assignment for v{i}")
            seen.add(i)

    @staticmethod
    def of(mapping: Mapping[int, Element]) -> "VarAssignment":
        return VarAssignment(tuple(sorted(mapping.items(), key=lambda kv: kv[0])))

    @staticmethod
    def from_list(values: list[int]) -> "VarAssignment":
        """Positional decoding: values[i] == 0 means untouched, k+1 means c_k."""
        return VarAssignment.of(
            {i: std(v - 1) for i, v in enumerate(values) if v != 0}
        )

    def to_list(self) -> list[int]:
        if not self.entries:
            return []
        top = max(i for i, _ in self.entries)
        out = [0] * (top + 1)
        for i, e in self.entries:
            if not isinstance(e, Std):
                raise SyntaxError_("only standard assignments have a coded form")
            out[i] = e.n + 1
        return out

    def lookup(self, i: int) -> Optional[Element]:
        for j, e in self.entries:
            if j == i:
                return e
        return None

    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.entries)


def multi_substitute(x: Obj, a: VarAssignment) -> Obj:
    """Simultaneous substitution of constants for all assigned variables."""

    def go(y: Obj, shadow: frozenset[int]):
        if isinstance(y, Var):
            if y.index not in shadow:
                e = a.lookup(y.index)
                if e is not None:
                    return const(e)
            return y
        if isinstance(y, (Zero, Const, SymTermRef, SymFormulaRef)):
            return y
        if isinstance(y, Succ):
            return Succ(go(y.arg, shadow))
        if isinstance(y, (Add, Mul, Eq, Lt)):
            return type(y)(go(y.left, shadow), go(y.right, shadow))
        if isinstance(y, Not):
            return Not(go(y.body, shadow))
        if isinstance(y, (Or, And, Imp, Iff, Xor)):
            return type(y)(go(y.left, shadow), go(y.right, shadow))
        if isinstance(y, (Ex, All)):
            return type(y)(y.index, go(y.body, shadow | {y.index}))
        if isinstance(y, (BEx, BAll)):
            return type(y)(y.index, go(y.bound, shadow), go(y.body, shadow | {y.index}))
        raise SyntaxError_(f"multi_substitute: unknown node {y!r}")

    return go(x, frozenset())


# ---------------------------------------------------------------------------
# abbreviation expansion

# The strict-order abbreviation x < y unfolds to
#   exists z not(z = 0 or not(x + z = y))
# which is the depth-economical form of "exists z (z != 0 and x+z=y)";
# the bound variable is chosen above every index in either side.


def _fresh_above(*objs: Obj) -> int:
    top = -1
    for o in objs:
        for i in free_vars(o):
            top = max(top, i)
    return top + 1


def _lt_expansion(x: Term, y: Term, j: int) -> Formula:
    return Ex(j, Not(Or(Eq(Var(j), ZERO), Not(Eq(Add(x, Var(j)), y)))))


def expand_abbreviation(f: Formula) -> Formula:
    """Rewrite to the primitive connectives; idempotent on its image."""
    if isinstance(f, Eq) or isinstance(f, SymFormulaRef):
        return f
    if isinstance(f, Not):
        return Not(expand_abbreviation(f.body))
    if isinstance(f, Or):
        return Or(expand_abbreviation(f.left), expand_abbreviation(f.right))
    if isinstance(f, Ex):
        return Ex(f.index, expand_abbreviation(f.body))
    if isinstance(f, And):
        return Not(Or(Not(expand_abbreviation(f.left)), Not(expand_abbreviation(f.right))))
    if isinstance(f, Imp):
        return Or(Not(expand_abbreviation(f.left)), expand_abbreviation(f.right))
    if isinstance(f, Iff):
        return expand_abbreviation(And(Imp(f.left, f.right), Imp(f.right, f.left)))
    if isinstance(f, Xor):
        return expand_abbreviation(And(Or(f.left, f.right), Not(And(f.left, f.right))))
    if isinstance(f, All):
        return Not(Ex(f.index, Not(expand_abbreviation(f.body))))
    if isinstance(f, Lt):
        return _lt_expansion(f.left, f.right, _fresh_above(f.left, f.right))
    if isinstance(f, BEx):
        j = _fresh_above(f.bound, f.body, Var(f.index))
        guard = _lt_expansion(Var(f.index), f.bound, j)
        return Ex(f.index, Not(Or(Not(guard), Not(expand_abbreviation(f.body)))))
    if isinstance(f, BAll):
        return Not(expand_abbreviation(BEx(f.index, f.bound, Not(f.body))))
    raise SyntaxError_(f"expand_abbreviation: unknown node {f!r}")


# ---------------------------------------------------------------------------
# depth metrics

# depth() is the abbreviation-accounting metric: literals (atoms and negated
# atoms) sit at depth 1, so disjunction towers over 0 != 0 grow by exactly
# one per level. skeleton_depth() counts every constructor and is the metric
# the approximation machinery orders by.


def depth(x: Obj) -> Element:
    if isinstance(x, Term):
        raise SyntaxError_("depth is a formula metric")
    if isinstance(x, (Eq, Lt)):
        return std(1)
    if isinstance(x, Not):
        if isinstance(x.body, (Eq, Lt)):
            return std(1)
        d = depth(x.body)
        return Std(d.n + 1) if isinstance(d, Std) else Sym(d.base, d.coeff, d.offset + 1)
    if isinstance(x, (Or, And, Imp, Iff, Xor)):
        dl, dr = depth(x.left), depth(x.right)
        return _elem_max1(dl, dr)
    if isinstance(x, (Ex, All)):
        d = depth(x.body)
        return _bump(d)
    if isinstance(x, (BEx, BAll)):
        d = _elem_max1(depth(x.body), std(1))
        return d
    if isinstance(x, SymFormulaRef):
        base = std(1) if x.family == "delta" else depth(Not(Or(x.payload, Not(x.payload))))
        return _offset(x.index, base)
    raise SyntaxError_(f"depth: unknown node {x!r}")


def _bump(d: Element) -> Element:
    return Std(d.n + 1) if isinstance(d, Std) else Sym(d.base, d.coeff, d.offset + 1)


def _elem_max1(a: Element, b: Element) -> Element:
    return _bump(a if not _try_lt(a, b) else b)


def _try_lt(a: Element, b: Element) -> bool:
    try:
        return elem_lt(a, b)
    except Exception:
        return False


def _offset(idx: Element, base: Element) -> Element:
    # family depth: idx + base, idx symbolic
    assert isinstance(idx, Sym)
    if isinstance(base, Std):
        return Sym(idx.base, idx.coeff, idx.offset + base.n)
    raise SyntaxError_("family payload depth must be standard")


def skeleton_depth(x: Obj) -> Element:
    """Constructor-path length with every node counted; leaves at depth 1."""
    if isinstance(x, (Zero, Const, Var)):
        return std(1)
    if isinstance(x, Succ):
        return _bump(skeleton_depth(x.arg))
    if isinstance(x, (Add, Mul, Eq, Lt, Or, And, Imp, Iff, Xor)):
        return _elem_max1(skeleton_depth(x.left), skeleton_depth(x.right))
    if isinstance(x, Not):
        return _bump(skeleton_depth(x.body))
    if isinstance(x, (Ex, All)):
        return _bump(skeleton_depth(x.body))
    if isinstance(x, (BEx, BAll)):
        return _bump(_elem_max1(skeleton_depth(x.bound), skeleton_depth(x.body)))
    if isinstance(x, SymTermRef):
        return _offset(x.index, std(1))
    if isinstance(x, SymFormulaRef):
        if x.family == "delta":
            return _offset(x.index, std(2))
        return _offset(x.index, skeleton_depth(Not(Or(x.payload, Not(x.payload)))))
    raise SyntaxError_(f"skeleton_depth: unknown node {x!r}")


def size(x: Obj) -> int:
    """Node count of a concrete object; family references are not sized."""
    if isinstance(x, (SymTermRef, SymFormulaRef)):
        raise SyntaxError_("family references have nonstandard size")
    if isinstance(x, (Zero, Const, Var)):
        return 1
    if isinstance(x, Succ):
        return 1 + size(x.arg)
    if isinstance(x, (Add, Mul, Eq, Lt, Or, And, Imp, Iff, Xor)):
        return 1 + size(x.left) + size(x.right)
    if isinstance(x, Not):
        return 1 + size(x.body)
    if isinstance(x, (Ex, All)):
        return 1 + size(x.body)
    if isinstance(x, (BEx, BAll)):
        return 1 + size(x.bound) + size(x.body)
    raise SyntaxError_(f"size: unknown node {x!r}")


# ---------------------------------------------------------------------------
# builders: numerals and the standard pathology families


def numeral(a: Element) -> Term:
    """num(0) = 0, num(succ a) = Sc(num(a)); lazy at symbolic indices."""
    if isinstance(a, Sym):
        return SymTermRef("num", a)
    t: Term = ZERO
    for _ in range(a.n):
        t = Succ(t)
    return t


def _addtower_concrete(n: int) -> Term:
    t: Term = ZERO
    for _ in range(n):
        t = Add(t, t)
    return t


def addtower(a: Element) -> Term:
    if isinstance(a, Sym):
        return SymTermRef("addtower", a)
    return _addtower_concrete(a.n)


FALSUM = Not(Eq(ZERO, ZERO))


def delta(a: Element | int) -> Formula:
    """The disjunction tower over 0 != 0; lazy at symbolic indices."""
    if isinstance(a, int):
        a = std(a)
    if isinstance(a, Sym):
        return SymFormulaRef("delta", a)
    f: Formula = FALSUM
    for _ in range(a.n):
        f = Or(f, f)
    return f


def epsilon(a: Element | int, phi: Formula) -> Formula:
    """The disjunction tower over not(phi or not phi)."""
    if isinstance(a, int):
        a = std(a)
    if isinstance(a, Sym):
        return SymFormulaRef("eps", a, phi)
    f: Formula = Not(Or(phi, Not(phi)))
    for _ in range(a.n):
        f = Or(f, f)
    return f


def neg(f: Formula) -> Formula:
    return Not(f)


def subobjects(x: Obj) -> Iterator[Obj]:
    """All subformulas and subterms of a concrete object, root included."""
    yield x
    if isinstance(x, (Zero, Const, Var, SymTermRef, SymFormulaRef)):
        return
    if isinstance(x, Succ):
        yield from subobjects(x.arg)
    elif isinstance(x, (Add, Mul, Eq, Lt, Or, And, Imp, Iff, Xor)):
        yield from subobjects(x.left)
        yield from subobjects(x.right)
    elif isinstance(x, Not):
        yield from subobjects(x.body)
    elif isinstance(x, (Ex, All)):
        yield from subobjects(x.body)
    elif isinstance(x, (BEx, BAll)):
        yield from subobjects(x.bound)
        yield from subobjects(x.body)


def children(x: Obj) -> tuple[Obj, ...]:
    """Immediate structural children, unfolding family references one level."""
    x = unfold_ref(x)
    if isinstance(x, (Zero, Const, Var)):
        return ()
    if isinstance(x, Succ):
        return (x.arg,)
    if isinstance(x, (Add, Mul, Eq, Or)):
        return (x.left, x.right)
    if isinstance(x, Not):
        return (x.body,)
    if isinstance(x, Ex):
        return (x.body,)
    raise SyntaxError_(f"children: non-primitive node {x!r}")
