"""Terms and formulas over successor arithmetic with named constants.

The primitive connectives are negation, disjunction and existential
quantification; everything else is an abbreviation that must be expanded
before a formula enters the proof kernel. Nonstandard-length formula and
term families (successor, addition and disjunction towers) are represented
at a symbolic index by lazy reference leaves, ``FamilyRef`` nodes, and
unfold one level at a time. ``FAMILIES`` is the one place a family is
defined: its row gives the constructor each level adds and the tower at
height 0, and every family-specific walk reads that row.

Every node class, here and in ``template``, follows one structural
protocol, and the walks over syntax are written against it:

- ``x.children`` is the tuple of x's Term- and Formula-typed fields, in
  field order. Leaves have none: ``Zero``, ``Const``, ``Var``, the family
  references (an ``eps`` reference's payload formula is data, not a
  child) and the template boxes (a box is sealed; a walk that reads
  through it does so explicitly, through ``obj``).
- ``x.rebuild(*children)`` is the same node over new children, keeping
  every other field (a binder's ``index``); a leaf's returns x itself.
- ``scope`` is a class attribute: the positions in ``x.children`` over
  which a binder's ``index`` is bound, ``()`` for non-binders. ``Ex`` and
  ``All`` bind in their body; ``BEx`` and ``BAll`` in their body and not
  in their bound.
- ``extended`` is true on the abbreviation classes.

All four are read from the node's class, so a walk dispatches without
naming node classes or looking fields up by name. Proof trees
(``kernel.Proof``) have ``children`` too. ``subobjects`` (pre-order) and
``fold(x, step)`` (post-order) walk both kinds of tree at any depth. The
cached facts, ``substitute`` and ``skeleton_depth`` stay recursive: on the
kernel's hot paths an explicit stack costs up to twice as much per node.
A tower level is its head over one child object (``Or(s, s)``). ``fold``
and every node's ``==`` keep one sibling rule, so a tower costs its height:
a child that is the same object as its sibling before it is walked once.

Nodes are immutable. Each carries slots for facts computed once, on first
use. The hash is read by each class's own ``__hash__``, and every other
fact through one protocol: ``fact(slot, compute)`` is the getter that
reads the slot and, on a miss, stores ``compute(x)``. No fact is
``None``, so ``None`` means not filled yet. The facts are the
hash and free variables here, the template flag in ``template`` (which
also caches a rejection: the first abbreviation outside a box), the
parameter bases in ``kernel`` and the congruence class id in
``congruence`` (whose table of classes also lives only in this process),
each from the children's; and the keys of
the canonical orders, the code key in ``coding`` (the disjunction order)
and the step key in ``template`` (the chain order), each from the node as
a whole and filled only on the nodes that get sorted. Facts are filled
lazily: filling them when a node is built was measured slower. One
exception: a node that parameter instantiation rebuilds
(``kernel.subst_elem_in_obj``) takes its original's free variables and
template flag when each child is the original's child or carries that
child's, since both facts come from the children's alone; an ``eps``
tower that unfolds at a standard index carries neither. Cached sets are
shared through ``canonical``. The caches live only in this
process (string hashes differ between processes) and are never
serialised.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import reduce
from operator import attrgetter, or_
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Union, get_type_hints

from .elements import Element, Std, Sym, add, elem_lt, mul, pred, std, succ


class SyntaxError_(Exception):
    pass


class CaptureRisk(SyntaxError_):
    pass


# ---------------------------------------------------------------------------
# immutable nodes with cached facts

# the slots every node carries: its hash, free variables (read through
# template symbols), template flag, parameter bases, code key, chain-step
# key and congruence class id (``congruence.class_id``, which the
# approximation walks and chain normalization read); the hash is None
# until __hash__ fills it, the others unset until first asked for, so
# read them through fact()
FACT_SLOTS = ("_h", "_fv", "_tm", "_bs", "_ck", "_sk", "_cc")

EMPTY: frozenset = frozenset()
_CANONICAL: dict[frozenset, frozenset] = {EMPTY: EMPTY}


def canonical(s: frozenset) -> frozenset:
    """The one shared object for a set of cached facts."""
    return _CANONICAL.setdefault(s, s)


def fact(slot: str, compute: Callable) -> Callable:
    """The getter of a fact cached in ``slot``: it reads the slot and, on
    a miss, stores and returns ``compute(x)``, which must not be None."""

    def get(x):
        v = getattr(x, slot, None)
        if v is None:
            v = compute(x)
            object.__setattr__(x, slot, v)
        return v

    return get


def node(cls):
    """A frozen, slotted dataclass whose hash is computed once per node,
    with the structural protocol (``children``, ``rebuild``) set up from
    its field types.

    The hash is the dataclass hash over the fields, so it is the same in
    every process for nodes whose fields hold no strings."""
    cls = dataclass(frozen=True, slots=True)(cls)
    _slot_methods(cls)
    names = [f.name for f in fields(cls)]
    hints = get_type_hints(cls)
    kids = () if issubclass(cls, Sealed) else tuple(
        n for n in names if isinstance(hints[n], type) and issubclass(hints[n], Node))
    if kids and names != ["index"] * bool(cls.scope) + list(kids):
        raise TypeError(f"{cls.__name__}: an inner node's fields are its children, "
                        "after the index of a binder")
    if len(kids) > 1:
        cls.children = property(attrgetter(*kids))
    elif kids:
        cls.children = property(lambda x, get=attrgetter(*kids): (get(x),))
    if cls.scope:
        cls.rebuild = _rebuild_binder
    elif kids:
        cls.rebuild = staticmethod(cls)
    return cls


def _slot_methods(cls) -> None:
    """Install ``__init__``, ``__hash__``, ``__eq__`` and ``__reduce__``,
    generated as ``dataclasses`` generates its own. ``__init__`` stores
    each field through its slot's own setter, at half the cost of the
    dataclass's ``object.__setattr__``, sets the hash slot to None and runs
    ``__post_init__``. ``__hash__`` fills the hash slot with the dataclass
    hash over the fields. ``__eq__`` compares the fields in order but skips
    one that is the same object as the one before it, on both sides.
    Unpickling goes through the constructor. Assigning or deleting any name
    raises ``FrozenInstanceError``: the dataclass's own methods name the
    class that ``slots=True`` replaced, so on a name that is not a field
    they fail with a ``TypeError``."""
    fs = fields(cls)
    env = {"cls": cls, "_set_h": Node._h.__set__, "_post": getattr(cls, "__post_init__", None)}
    for f in fs:
        env[f"_set_{f.name}"], env[f"_dflt_{f.name}"] = getattr(cls, f.name).__set__, f.default
    params = "".join(f", {f.name}" + ("" if f.default is MISSING else f"=_dflt_{f.name}")
                     for f in fs)
    stores = "".join(f" _set_{f.name}(self, {f.name})\n" for f in fs)
    post = " _post(self)\n" if env["_post"] else ""
    own = "(" + "".join(f"self.{f.name}," for f in fs) + ")"
    same = ["", *(f"(a{k} is not a{k - 1} or b{k} is not b{k - 1}) and " for k in range(1, len(fs)))]
    compares = "".join(f" a{k}, b{k} = self.{f.name}, other.{f.name}\n if {same[k]}a{k} is not b{k}"
                       f" and not a{k} == b{k}:\n  return False\n" for k, f in enumerate(fs))
    exec(f"def __init__(self{params}):\n{stores} _set_h(self, None)\n{post}"
         f"def __hash__(self):\n h = self._h\n if h is None:\n  h = hash({own})\n"
         f"  _set_h(self, h)\n return h\ndef __reduce__(self):\n return cls, {own}\n"
         f"def __eq__(self, other):\n if self is other:\n  return True\n if other.__class__"
         f" is not self.__class__:\n  return NotImplemented\n{compares} return True\n", env)
    for name in ("__init__", "__hash__", "__eq__", "__reduce__"):
        env[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, env[name])
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr


def _frozen_setattr(x, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(x, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _rebuild_binder(x, *kids):
    return type(x)(x.index, *kids)


class Sealed:
    """A template symbol: a box whose object is read through for free
    variables. The box classes themselves live in ``template``; for the
    structural protocol a box is a leaf."""

    __slots__ = ()


class FamilyRef:
    """A family's tower at a symbolic index, a closed leaf unfolded
    lazily: ``SymTermRef`` for the term families, ``SymFormulaRef`` for
    the formula ones. Its ``family`` names a row of ``FAMILIES``; every
    reference answers ``payload``, None but on an ``eps`` one."""

    __slots__ = ()

    payload = None

    def __post_init__(self):
        sort = "term" if isinstance(self, Term) else "formula"
        row = FAMILIES.get(self.family)
        if row is None or row.ref is not type(self):
            raise SyntaxError_(f"unknown {sort} family {self.family!r}")
        if not isinstance(self.index, Sym):
            raise SyntaxError_(f"{sort} family references require a symbolic index")
        if row.payload != (self.payload is not None):
            raise SyntaxError_("eps references carry a base formula, delta none")


class Node:
    """The common base of terms and formulas; see the module docstring."""

    __slots__ = FACT_SLOTS

    extended = False
    scope: tuple[int, ...] = ()
    children: tuple = ()  # a leaf's

    def rebuild(self):
        return self  # a leaf's


# ---------------------------------------------------------------------------
# terms


class Term(Node):
    __slots__ = ()


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


# the element operation each function symbol names, over its children's values
OPERATIONS = {Succ: succ, Add: add, Mul: mul}


@node
class SymTermRef(FamilyRef, Term):
    """A term family's tower at a symbolic index; see ``FamilyRef``."""

    family: str
    index: Element


ZERO = Zero()


def const(e: Element) -> Term:
    if e == Std(0):
        return ZERO
    return Const(e)


def const_elem(x) -> Optional[Element]:
    """The element a constant names (the inverse of const), else None."""
    if isinstance(x, Zero):
        return Std(0)
    if isinstance(x, Const):
        return x.elem
    return None


# ---------------------------------------------------------------------------
# formulas


class Formula(Node):
    __slots__ = ()


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
    scope = (0,)
    index: int
    body: Formula


@node
class SymFormulaRef(FamilyRef, Formula):
    """A formula family's tower at a symbolic index; see ``FamilyRef``."""

    family: str
    index: Element
    payload: Optional[Formula] = None


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
    scope = (0,)
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
    scope = (1,)
    index: int
    bound: Term
    body: Formula


@node
class BAll(Formula):
    extended = True
    scope = (1,)
    index: int
    bound: Term
    body: Formula


Obj = Union[Term, Formula]


def is_primitive(x: Obj) -> bool:
    """Built from the primitive connectives alone: no abbreviation and no
    template formula (every term is primitive). A walk, so any depth is
    fine."""
    return not any(isinstance(y, Formula) and (y.extended or isinstance(y, Sealed))
                   for y in subobjects(x))


# ---------------------------------------------------------------------------
# lazy family unfolding


def unfold_ref(x: Obj) -> Obj:
    """One unfolding level of a family reference; identity elsewhere."""
    if not isinstance(x, FamilyRef):
        return x
    return FAMILIES[x.family].level(tower(x.family, pred(x.index), x.payload))


# ---------------------------------------------------------------------------
# free variables / substitution


def _free_vars(x: Obj) -> frozenset[int]:
    kids = x.children
    if not kids:
        # a family reference is a closed leaf, its eps payload included
        if type(x) is Var:
            return canonical(frozenset((x.index,)))
        return free_vars(x.obj) if isinstance(x, Sealed) else EMPTY
    sets = map(free_vars, kids)
    if x.scope:
        sets = [s - {x.index} if pos in x.scope else s for pos, s in enumerate(sets)]
    return canonical(reduce(or_, sets))


# free variables, reading through template symbols; cached per node
free_vars = fact("_fv", _free_vars)


def is_closed(x: Obj) -> bool:
    return not free_vars(x)


def substitute(x: Obj, t: Term, i: int) -> Obj:
    """Replace every free occurrence of v_i by t; bound occurrences stay.

    Subtrees in which v_i is not free are returned as they are, and
    template symbols are substituted inside. Raises CaptureRisk when t has
    a variable that is bound at some substitution site. All internal
    callers substitute closed terms.
    """
    return _substitute(x, t, i, free_vars(t))


def _substitute(y: Obj, t: Term, i: int, tv: frozenset) -> Obj:
    # descends only where v_i is free, so no binder above y binds it; tv is
    # t's free variables (a module-level recursion: a self-referencing
    # closure would leave a cycle per call for the cyclic collector)
    if i not in free_vars(y):
        return y
    kids = y.children
    if not kids:  # v_i itself, or a template symbol to read through
        return t if type(y) is Var else type(y)(_substitute(y.obj, t, i, tv))
    scope = y.scope
    if scope:
        if y.index == i:  # v_i is free only outside the binder's scope
            return y.rebuild(*[k if pos in scope else _substitute(k, t, i, tv)
                               for pos, k in enumerate(kids)])
        if y.index in tv and any(i in free_vars(kids[pos]) for pos in scope):
            raise CaptureRisk(f"v{y.index} of the substituted term is captured")
    if len(kids) == 1:  # the common unary case (numeral towers)
        return y.rebuild(_substitute(kids[0], t, i, tv))
    return y.rebuild(*[_substitute(k, t, i, tv) for k in kids])


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


    def lookup(self, i: int) -> Optional[Element]:
        for j, e in self.entries:
            if j == i:
                return e
        return None

    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.entries)


def multi_substitute(x: Obj, a: VarAssignment) -> Obj:
    """Simultaneous substitution of constants for all assigned variables,
    inside template symbols too. Constants are closed, so substituting
    one entry at a time is the same; subtrees without an assigned free
    variable are returned as they are."""
    for i, e in a.entries:
        x = substitute(x, const(e), i)
    return x


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


def _and(a: Formula, b: Formula) -> Formula:
    return Not(Or(Not(a), Not(b)))


def bex_expansion(i: int, j: int, bound: Term, body: Formula) -> Formula:
    """exists v_i < bound, body, with v_j the witness of v_i < bound: the
    one place the bounded existential's primitive shape is spelled out."""
    return Ex(i, _and(_lt_expansion(Var(i), bound, j), body))


def _bex(f: Formula, body: Formula) -> Formula:
    """f's bounded existential over an expanded body."""
    return bex_expansion(f.index, _fresh_above(f.bound, f.body, Var(f.index)), f.bound, body)


def expand_abbreviation(f: Formula) -> Formula:
    """Rewrite to the primitive connectives; idempotent on its image."""
    if isinstance(f, Term):
        raise SyntaxError_(f"expand_abbreviation: unknown node {f!r}")
    return fold(f, _expand_step)


def _expand_step(f: Obj, kids: list) -> Obj:
    """A node's expansion over its children's; terms and atoms stay."""
    if isinstance(f, (Term, Eq, SymFormulaRef)):
        return f
    if isinstance(f, (Not, Or, Ex)):
        return f.rebuild(*kids)
    if isinstance(f, And):
        return _and(*kids)
    if isinstance(f, Imp):
        return Or(Not(kids[0]), kids[1])
    if isinstance(f, Iff):
        return _and(Or(Not(kids[0]), kids[1]), Or(Not(kids[1]), kids[0]))
    if isinstance(f, Xor):
        return _and(Or(*kids), Not(_and(*kids)))
    if isinstance(f, All):
        return Not(Ex(f.index, Not(kids[0])))
    if isinstance(f, Lt):
        return _lt_expansion(f.left, f.right, _fresh_above(f.left, f.right))
    if isinstance(f, BEx):
        return _bex(f, kids[1])
    if isinstance(f, BAll):
        return Not(_bex(f, Not(kids[1])))
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
    return fold(x, _depth_step)


def _depth_step(x: Obj, kids: list) -> Optional[Element]:
    """A node's depth from its children's; a term has none."""
    if isinstance(x, Term):
        return None
    if isinstance(x, (Eq, Lt)):
        return std(1)
    if isinstance(x, Not):
        return std(1) if isinstance(x.body, (Eq, Lt)) else _bump(kids[0])
    if isinstance(x, (Or, And, Imp, Iff, Xor)):
        return _elem_max1(*kids)
    if isinstance(x, (Ex, All)):
        return _bump(kids[0])
    if isinstance(x, (BEx, BAll)):
        return _elem_max1(kids[1], std(1))
    if isinstance(x, FamilyRef):
        return _offset(x.index, fold(FAMILIES[x.family].base(x.payload), _depth_step))
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


def _deeper(e: Element, d: Element) -> bool:
    """Does e replace d as a node's deepest child depth? Across distinct
    symbolic bases, which are incomparable, the least base does."""
    if isinstance(d, Sym) and isinstance(e, Sym) and d.base != e.base:
        return e.base < d.base
    return _try_lt(d, e)


def skeleton_depth(x: Obj) -> Element:
    """Constructor-path length with every node counted; leaves at depth 1.

    A bounded quantifier counts as two nodes, a binder over its (bound,
    body) pair. A node over children on distinct symbolic bases takes its
    depth from the child on the least base, so in the normal order of
    chain steps a container comes before each of its parts."""
    if isinstance(x, FamilyRef):
        return _offset(x.index, skeleton_depth(FAMILIES[x.family].base(x.payload)))
    kids = x.children
    if not kids:
        return std(1)
    d = skeleton_depth(kids[0])
    for k in kids[1:]:
        e = skeleton_depth(k)
        if _deeper(e, d):
            d = e
    return _bump(_bump(d) if isinstance(x, (BEx, BAll)) else d)


# ---------------------------------------------------------------------------
# the tower families: one row each, and the builders that read it


FALSUM = Not(Eq(ZERO, ZERO))


class Family(NamedTuple):
    """A tower family: the constructor each level adds, the tower at
    height 0 as a function of the payload, and whether the family carries
    a payload formula."""

    head: type
    base: Callable[[Optional[Formula]], Obj]
    payload: bool = False

    @property
    def ref(self) -> type:
        """The reference class, from the sort of the head."""
        return SymTermRef if issubclass(self.head, Term) else SymFormulaRef

    def level(self, x: Obj) -> Obj:
        """One more level over the tower x: the head over x in each child."""
        return self.head(x) if self.head is Succ else self.head(x, x)


FAMILIES = {
    "num": Family(Succ, lambda p: ZERO),
    "addtower": Family(Add, lambda p: ZERO),
    "delta": Family(Or, lambda p: FALSUM),
    "eps": Family(Or, lambda p: Not(Or(p, Not(p))), payload=True),
}


def tower(family: str, a: Element | int, payload: Optional[Formula] = None) -> Obj:
    """The family's tower of height a over the base its payload gives;
    the reference at a symbolic index, built level by level otherwise.
    The payload is checked against the family's row at every index."""
    row = FAMILIES[family]
    if row.payload != (payload is not None):
        raise SyntaxError_("eps references carry a base formula, delta none")
    if isinstance(a, int):
        a = std(a)
    if isinstance(a, Sym):
        return row.ref(family, a) if payload is None else row.ref(family, a, payload)
    x = row.base(payload)
    for _ in range(a.n):
        x = row.level(x)
    return x


# the public builders, one family's tower each


def numeral(a: Element) -> Term:
    return tower("num", a)


def addtower(a: Element) -> Term:
    return tower("addtower", a)


def delta(a: Element | int) -> Formula:
    return tower("delta", a)


def epsilon(a: Element | int, phi: Formula) -> Formula:
    return tower("eps", a, phi)


def subobjects(x) -> Iterator:
    """Every node of a syntax or proof tree, root included, in pre-order;
    iterative, so any depth is fine."""
    stack = [x]
    while stack:
        y = stack.pop()
        yield y
        stack.extend(reversed(y.children))


def fold(x, step: Callable[[object, list], object]):
    """Fold a syntax or proof tree in post-order, siblings left to right:
    ``step(node, results)`` gets the children's results in ``children``
    order and gives the node's. Two children that are one object are
    folded once, and the result passed twice. Iterative, so any depth is fine."""
    stack: list = [x]
    results: list = []
    while stack:
        q = stack.pop()
        if type(q) is tuple:  # (node, n) once its n children have results
            cut = len(results) - q[1]
            results[cut:] = [step(q[0], results[cut:])]
        elif q is None:  # the second of two children that are one object
            results.append(results[-1])
        else:
            kids = q.children
            stack.append((q, len(kids)))
            stack += (None, kids[0]) if len(kids) == 2 and kids[0] is kids[1] else reversed(kids)
    return results[0]
