"""Template syntax and the approximating-function algebra.

A template symbol is a sealed box around a formula or term; an
approximating step opens every box whose content is congruent to the
step's target, exposing one level of structure and re-boxing the parts.
Chains of steps compose left to right. A chain is in normal form when
containers unfold before their parts; the canonical normal order used
here is descending skeleton depth with code/text tie-breaks, which makes
chain unions absorbing.

A chain is applied in one walk, not one walk per step. Each object's
congruence class has an id (``congruence.class_id``, cached per node), and
the chain's steps are indexed by it once per chain: a box opens at the first step
from its start on whose target is in its object's class, and the boxes it
opens into start at the step after. That is what running the steps one
after another does, since a step acts on each box alone and a box made by
step j meets only the steps after j; so applying a chain costs its output's
size, not the chain's length times it. Normalization keeps the first step
of each class through a set of their ids.

Approximations keep their input's sharing by ``syntax``'s sibling rule, as
``fold`` and ``==`` do: a tower's ``Add(c, c)`` or ``Or(s, s)`` unfolds to
one shared box, and an approximation steps, refolds and compares in O(depth).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from . import syntax as sx
from .congruence import class_id, skeleton_congruent
from .elements import Element, Sym, succ
from .coding import code_key


class TemplateError(Exception):
    pass


class PreconditionFailed(TemplateError):
    pass


@sx.node
class TemplTerm(sx.Sealed, sx.Term):
    obj: sx.Term

    def __post_init__(self):
        if isinstance(self.obj, (TemplTerm, TemplForm)) or not isinstance(self.obj, sx.Term):
            raise TemplateError("boxes hold plain terms")


@sx.node
class TemplForm(sx.Sealed, sx.Formula):
    obj: sx.Formula

    def __post_init__(self):
        if isinstance(self.obj, (TemplTerm, TemplForm)) or isinstance(self.obj, sx.Term):
            raise TemplateError("boxes hold plain formulas")


TObj = Union[sx.Term, sx.Formula]


def templ(x: sx.Obj) -> TObj:
    return TemplTerm(x) if isinstance(x, sx.Term) else TemplForm(x)


def _templates(x: TObj):
    # True or False, or the first abbreviation outside a box in pre-order
    if isinstance(x, sx.Sealed):
        return True
    if x.extended:
        return x
    found = False
    for k in x.children:
        t = _template_fact(k)
        if t is not True and t is not False:
            return t
        found = found or t
    return found


_template_fact = sx.fact("_tm", _templates)


def has_templates(x: TObj) -> bool:
    """Does x hold a template symbol? Raises TemplateError on an
    abbreviation outside a template symbol. Cached per node, the
    rejection too."""
    t = _template_fact(x)
    if t is True or t is False:
        return t
    raise TemplateError(f"non-primitive node {t!r}")


def templ_substitute(x: TObj, e: Element, i: int) -> TObj:
    """Substitute the constant naming e for v_i, pushing inside templates.

    A subtree in which v_i is not free is returned as it is. Raises
    TemplateError on an abbreviation outside a template symbol."""
    has_templates(x)
    if i not in sx.free_vars(x):
        return x
    return sx.substitute(x, sx.const(e), i)


# ---------------------------------------------------------------------------
# one approximating step


def _unfold(obj: sx.Obj) -> TObj:
    """One level of obj's structure over sealed parts; a leaf stays as it is."""
    obj = sx.unfold_ref(obj)
    if obj.extended:
        raise TemplateError(f"cannot unfold {obj!r}")
    boxes: list = []
    prev = None
    for k in obj.children:  # a child that is its sibling shares its box
        boxes.append(boxes[-1] if k is prev else templ(k))
        prev = k
    return obj.rebuild(*boxes)


def f_step(tau: sx.Obj, x: TObj) -> TObj:
    """Unfold every template leaf whose object is congruent to tau.

    A subtree with no template leaf congruent to tau is returned as it
    is; a node is rebuilt only when one of its children changed. A chain
    of steps is applied by ``apply_chain``, in one walk, not by this."""
    if not has_templates(x):  # raises on an abbreviation
        return x
    if isinstance(x, sx.Sealed):
        # skeleton_congruent relates no term to a formula
        return _unfold(x.obj) if skeleton_congruent(x.obj, tau) else x
    changed = False
    new = []
    prev = None
    for k in x.children:  # a child that is its sibling is stepped once
        y = new[-1] if k is prev else f_step(tau, k)
        changed = changed or y is not k
        new.append(y)
        prev = k
    return x.rebuild(*new) if changed else x


# ---------------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class ApproxChain:
    steps: tuple[sx.Obj, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @cached_property
    def _by_class(self) -> dict[int, list[int]]:
        # each class id's step indices, ascending; indexed once per chain
        at: dict[int, list[int]] = {}
        for j, tau in enumerate(self.steps):
            at.setdefault(class_id(tau), []).append(j)
        return at

    def __getstate__(self):
        # class ids live only in this process: pickle the steps alone
        return {"steps": self.steps}


def chain(*steps: sx.Obj) -> ApproxChain:
    return ApproxChain(tuple(steps))


def apply_chain(f: ApproxChain, x: TObj) -> TObj:
    """x after the chain's steps, left to right, in one walk.

    A step acts on each box alone, and a box that step j makes meets only
    the steps after j. So each box opens at the first step, from its start
    on, whose target is congruent to its object, and the boxes it opens
    into start at the step after; a box that no such step meets stays
    sealed. The walk gives every box that fate directly, through the
    chain's index of its steps by class, so it costs the output's size
    instead of one walk of x per step. Raises TemplateError on an
    abbreviation outside a template symbol, unless the chain is empty."""
    # the walk's first has_templates raises on an abbreviation
    return _walk(x, 0, f._by_class) if f.steps else x


def _walk(x: TObj, start: int, at: dict) -> TObj:
    # x after the steps from start on; ``at`` maps a class id to its steps'
    # indices, ascending. A subtree with no box is returned as it is, and
    # a node is rebuilt only when it was opened or one of its children
    # changed
    if isinstance(x, sx.Sealed):
        steps = at.get(class_id(x.obj), ())
        i = bisect_left(steps, start)
        if i == len(steps):
            return x
        x, start = _unfold(x.obj), steps[i] + 1
    if not has_templates(x):
        return x
    changed = False
    new = []
    prev = None
    for k in x.children:  # a child that is its sibling is walked once
        y = new[-1] if k is prev else _walk(k, start, at)
        changed = changed or y is not k
        new.append(y)
        prev = k
    return x.rebuild(*new) if changed else x


def apply_to_object(f: ApproxChain, obj: sx.Obj) -> TObj:
    """The approximation of a plain object: run the chain on its template."""
    return apply_chain(f, templ(obj))


def length(f: ApproxChain) -> int:
    return len(f.steps)


def _step_key(target: sx.Obj):
    d = sx.skeleton_depth(target)
    if isinstance(d, Sym):
        return (0, d.base, -d.coeff, -d.offset, repr(target))
    return (1, -d.n, code_key(target))


# a step's key in the normal order; cached per node
_sort_key = sx.fact("_sk", _step_key)


def _dedup_congruent(steps: Iterable[sx.Obj]) -> list[sx.Obj]:
    # the first step of each closure class, in order; congruent steps act alike
    first: dict[int, sx.Obj] = {}
    for s in steps:
        first.setdefault(class_id(s), s)
    return list(first.values())


def normalize(f: ApproxChain) -> ApproxChain:
    """Canonical normal form: congruence-distinct steps, containers first."""
    return ApproxChain(tuple(sorted(_dedup_congruent(f.steps), key=_sort_key)))


def is_subobject(small: sx.Obj, big: sx.Obj) -> bool:
    if isinstance(big, sx.FamilyRef):
        if isinstance(small, type(big)) and small.family == big.family:
            if small.payload != big.payload:
                return False
            try:
                from .elements import elem_lt
                return small.index == big.index or elem_lt(small.index, big.index)
            except Exception:
                return False
        # concrete pieces of a tower live at nonstandard depth
        return _in_family_closure(small, big)
    if isinstance(small, sx.FamilyRef):
        return False
    return any(small == o for o in sx.subobjects(big))


def _in_family_closure(small: sx.Obj, big: sx.FamilyRef) -> bool:
    """Is small a concrete tower of big's family, its levels' children
    one object each, over big's base, or a part of that base?"""
    row = sx.FAMILIES[big.family]
    base = row.base(big.payload)
    x = small
    while type(x) is row.head and (kids := x.children).count(kids[0]) == len(kids):
        x = kids[0]
    return x == base or any(small == o for o in sx.subobjects(base))


def is_normal(f: ApproxChain) -> bool:
    steps = f.steps
    for a in range(len(steps)):
        for b in range(a + 1, len(steps)):
            if steps[a] != steps[b] and is_subobject(steps[a], steps[b]):
                return False
    return True


def uniform_union(chains: Sequence[ApproxChain]) -> ApproxChain:
    """Normalized concatenation; absorbing over any member chain."""
    steps: list[sx.Obj] = []
    for c in chains:
        steps.extend(c.steps)
    return normalize(ApproxChain(tuple(steps)))


# ---------------------------------------------------------------------------
# full unfolding to a fixed depth


def full_depth_approx(gamma: Sequence[sx.Formula | sx.Term], k: int) -> ApproxChain:
    """Chain of every subobject occurring at depth <= k, normally ordered.

    The root of each formula occurs at depth 1, so k = 0 yields the empty
    chain and the step count is bounded by (2^k - 1) * len(gamma).
    """
    if k < 0:
        raise TemplateError("depth must be a natural")
    acc: list[sx.Obj] = []
    for g in gamma:
        _collect_to_depth(g, k, acc)
    return normalize(ApproxChain(tuple(acc)))


def _collect_to_depth(obj: sx.Obj, k: int, acc: list) -> None:
    # obj and its subobjects down to k more levels, in pre-order
    if k <= 0:
        return
    acc.append(obj)
    if obj.extended:
        raise sx.SyntaxError_(f"children: non-primitive node {obj!r}")
    for child in sx.unfold_ref(obj).children:
        _collect_to_depth(child, k - 1, acc)


# ---------------------------------------------------------------------------
# structural commutation report


@dataclass(frozen=True)
class CommuteReport:
    connective: str
    lhs: TObj
    rhs: TObj

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def structural_commute_check(f: ApproxChain, psi: sx.Formula) -> CommuteReport:
    """Verify that the chain commutes with psi's top connective.

    Requires a step congruent to psi in the (normal-form) chain; checks
    F(not g) = not F(g), F(g or h) = F(g) or F(h), or
    F(exists v g) = exists v F(g) according to psi's shape.
    """
    if not any(isinstance(s, sx.Formula) and skeleton_congruent(s, psi)
               for s in f.steps):
        raise PreconditionFailed("no chain step is congruent to the formula")
    lhs = apply_to_object(f, psi)
    psi_u = sx.unfold_ref(psi)
    if isinstance(psi_u, sx.Not):
        return CommuteReport("not", lhs, sx.Not(apply_to_object(f, psi_u.body)))
    if isinstance(psi_u, sx.Or):
        rhs = sx.Or(apply_to_object(f, psi_u.left), apply_to_object(f, psi_u.right))
        return CommuteReport("or", lhs, rhs)
    if isinstance(psi_u, sx.Ex):
        return CommuteReport("exists", lhs, sx.Ex(psi_u.index, apply_to_object(f, psi_u.body)))
    raise PreconditionFailed("the formula's top connective is atomic")


# ---------------------------------------------------------------------------
# refolding and approximation membership


def refold(x: TObj) -> sx.Obj:
    """Collapse template symbols back to their objects, folding towers."""
    return sx.fold(x, _refold_step)


def _refold_step(x: TObj, kids: list) -> sx.Obj:
    if isinstance(x, sx.Sealed):
        return x.obj
    if x.extended:
        raise TemplateError(f"non-primitive node {x!r}")
    return _fold_tower(x.rebuild(*kids))


def _fold_tower(x: sx.Obj) -> sx.Obj:
    """x one level above a family reference, when it is that family's
    level over it (its head over the reference in every child), folds to
    the reference at the next index; any other x stays."""
    kids = x.children
    # the reference test comes first: == recurses through deep equal halves
    if kids and isinstance(r := kids[0], sx.FamilyRef) \
            and type(x) is sx.FAMILIES[r.family].head and kids.count(r) == len(kids):
        return sx.tower(r.family, succ(r.index), r.payload)
    return x


def _opened(x: TObj) -> tuple[sx.Obj, tuple[sx.Obj, ...]]:
    """x refolded, and the classes x opens: the refolds of its unboxed
    nodes, each once. Raises TemplateError on an abbreviation outside a
    template symbol."""
    classes: dict = {}

    def step(y: TObj, kids: list) -> sx.Obj:
        z = _refold_step(y, kids)
        if not isinstance(y, sx.Sealed):
            classes[z] = None
        return z

    return sx.fold(x, step), tuple(classes)


def _rebuilds(x: TObj, target: sx.Obj, classes: tuple[sx.Obj, ...]) -> bool:
    return apply_chain(normalize(ApproxChain(classes)), templ(target)) == x


def is_approximation(x: TObj, target: sx.Obj) -> bool:
    """Is x reachable from the sealed target by some normal chain?

    A step opens every box of its class at once, and a normal chain is
    fixed by the classes it opens, which are x's unboxed nodes refolded:
    x is an approximation exactly when the normal chain of those classes
    rebuilds x from the sealed target. Raises TemplateError on an
    abbreviation in x outside a template symbol."""
    return _rebuilds(x, target, _opened(x)[1])


def apprx_member(x: TObj, member_oracle) -> bool:
    """Membership in the approximation closure of an axiom set oracle: x
    refolds to a member, and the classes x opens rebuild x from it."""
    try:
        base, classes = _opened(x)
    except TemplateError:
        return False
    return bool(member_oracle(base)) and _rebuilds(x, base, classes)
