"""Template syntax and the approximating-function algebra.

A template symbol is a sealed box around a formula or term; an
approximating step opens every box whose content is congruent to the
step's target, exposing one level of structure and re-boxing the parts.
Chains of steps compose left to right. A chain is in normal form when
containers unfold before their parts; the canonical normal order used
here is descending skeleton depth with code/text tie-breaks, which makes
chain unions absorbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from . import syntax as sx
from .congruence import skeleton_congruent
from .elements import Element, Sym
from .coding import NotEncodable, godel_encode


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


def has_templates(x: TObj) -> bool:
    """Does x hold a template symbol? Raises TemplateError on an
    abbreviation outside a template symbol. Cached per node."""
    t = getattr(x, "_tm", None)
    if t is None:
        t = sx.cache_fact(x, "_tm", _has_templates(x))
    return t


def _has_templates(x: TObj) -> bool:
    if isinstance(x, (TemplTerm, TemplForm)):
        return True
    if isinstance(x, (sx.Zero, sx.Const, sx.Var, sx.SymTermRef, sx.SymFormulaRef)):
        return False
    if isinstance(x, sx.Succ):
        return has_templates(x.arg)
    if isinstance(x, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
        # both sides, so that an abbreviation on the right always raises
        left = has_templates(x.left)
        return has_templates(x.right) or left
    if isinstance(x, sx.Not):
        return has_templates(x.body)
    if isinstance(x, sx.Ex):
        return has_templates(x.body)
    raise TemplateError(f"non-primitive node {x!r}")


def t_free_vars(x: TObj) -> frozenset[int]:
    """Free variables, reading through template symbols into their objects.

    Raises TemplateError on an abbreviation outside a template symbol."""
    has_templates(x)
    return sx.free_vars(x)


def t_is_closed(x: TObj) -> bool:
    return not t_free_vars(x)


def templ_substitute(x: TObj, e: Element, i: int) -> TObj:
    """Substitute the constant naming e for v_i, pushing inside templates.

    A subtree in which v_i is not free is returned as it is."""
    if i not in t_free_vars(x):
        return x
    c = sx.const(e)
    if isinstance(x, TemplTerm):
        return TemplTerm(sx.substitute(x.obj, c, i))
    if isinstance(x, TemplForm):
        return TemplForm(sx.substitute(x.obj, c, i))
    if isinstance(x, (sx.Zero, sx.Const, sx.SymTermRef, sx.SymFormulaRef)):
        return x
    if isinstance(x, sx.Var):
        return c if x.index == i else x
    if isinstance(x, sx.Succ):
        return sx.Succ(templ_substitute(x.arg, e, i))
    if isinstance(x, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
        return type(x)(templ_substitute(x.left, e, i), templ_substitute(x.right, e, i))
    if isinstance(x, sx.Not):
        return sx.Not(templ_substitute(x.body, e, i))
    if isinstance(x, sx.Ex):
        if x.index == i:
            return x
        return sx.Ex(x.index, templ_substitute(x.body, e, i))
    raise TemplateError(f"non-primitive node {x!r}")


# ---------------------------------------------------------------------------
# one approximating step


def _unfold_formula(obj: sx.Formula) -> sx.Formula:
    obj = sx.unfold_ref(obj)
    if isinstance(obj, sx.Eq):
        return sx.Eq(TemplTerm(obj.left), TemplTerm(obj.right))
    if isinstance(obj, sx.Not):
        return sx.Not(TemplForm(obj.body))
    if isinstance(obj, sx.Or):
        return sx.Or(TemplForm(obj.left), TemplForm(obj.right))
    if isinstance(obj, sx.Ex):
        return sx.Ex(obj.index, TemplForm(obj.body))
    raise TemplateError(f"cannot unfold {obj!r}")


def _unfold_term(obj: sx.Term) -> sx.Term:
    obj = sx.unfold_ref(obj)
    if isinstance(obj, (sx.Zero, sx.Const, sx.Var)):
        return obj
    if isinstance(obj, sx.Succ):
        return sx.Succ(TemplTerm(obj.arg))
    if isinstance(obj, sx.Add):
        return sx.Add(TemplTerm(obj.left), TemplTerm(obj.right))
    if isinstance(obj, sx.Mul):
        return sx.Mul(TemplTerm(obj.left), TemplTerm(obj.right))
    raise TemplateError(f"cannot unfold {obj!r}")


def f_step(tau: sx.Obj, x: TObj) -> TObj:
    """Unfold every template leaf whose object is congruent to tau.

    A subtree with no template leaf congruent to tau is returned as it
    is; a node is rebuilt only when one of its children changed."""
    if not has_templates(x):  # raises on an abbreviation
        return x
    if isinstance(x, TemplForm):
        if isinstance(tau, sx.Formula) and skeleton_congruent(x.obj, tau):
            return _unfold_formula(x.obj)
        return x
    if isinstance(x, TemplTerm):
        if isinstance(tau, sx.Term) and skeleton_congruent(x.obj, tau):
            return _unfold_term(x.obj)
        return x
    if isinstance(x, sx.Succ):
        arg = f_step(tau, x.arg)
        return x if arg is x.arg else sx.Succ(arg)
    if isinstance(x, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
        left, right = f_step(tau, x.left), f_step(tau, x.right)
        if left is x.left and right is x.right:
            return x
        return type(x)(left, right)
    body = f_step(tau, x.body)  # Not or Ex: has_templates admits no other node
    if body is x.body:
        return x
    return sx.Not(body) if isinstance(x, sx.Not) else sx.Ex(x.index, body)


# ---------------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class ApproxChain:
    steps: tuple[sx.Obj, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def chain(*steps: sx.Obj) -> ApproxChain:
    return ApproxChain(tuple(steps))


def apply_chain(f: ApproxChain, x: TObj) -> TObj:
    for tau in f.steps:
        x = f_step(tau, x)
    return x


def apply_to_object(f: ApproxChain, obj: sx.Obj) -> TObj:
    """The approximation of a plain object: run the chain on its template."""
    return apply_chain(f, templ(obj))


def length(f: ApproxChain) -> int:
    return len(f.steps)


def _sort_key(target: sx.Obj):
    d = sx.skeleton_depth(target)
    if isinstance(d, Sym):
        return (0, d.base, -d.coeff, -d.offset, repr(target))
    try:
        code = (0, godel_encode(target).code)
    except NotEncodable:
        code = (1, repr(target))
    return (1, -d.n, code)


def _dedup_congruent(steps: Iterable[sx.Obj]) -> list[sx.Obj]:
    # one step per closure class; congruent steps have the same action
    out: list[sx.Obj] = []
    for s in steps:
        if not any(skeleton_congruent(s, t) for t in out):
            out.append(s)
    return out


def normalize(f: ApproxChain) -> ApproxChain:
    """Canonical normal form: congruence-distinct steps, containers first."""
    return ApproxChain(tuple(sorted(_dedup_congruent(f.steps), key=_sort_key)))


def is_subobject(small: sx.Obj, big: sx.Obj) -> bool:
    if isinstance(big, (sx.SymTermRef, sx.SymFormulaRef)):
        if isinstance(small, type(big)) and small.family == big.family:
            if getattr(small, "payload", None) != getattr(big, "payload", None):
                return False
            try:
                from .elements import elem_lt
                return small.index == big.index or elem_lt(small.index, big.index)
            except Exception:
                return False
        # concrete pieces of a tower live at nonstandard depth
        return _in_family_closure(small, big)
    if isinstance(small, (sx.SymTermRef, sx.SymFormulaRef)):
        return False
    return any(small == o for o in sx.subobjects(big))


def _in_family_closure(small: sx.Obj, big) -> bool:
    if isinstance(big, sx.SymFormulaRef):
        if big.family == "delta":
            return _is_delta_prefix(small)
        base = sx.Not(sx.Or(big.payload, sx.Not(big.payload)))
        return _is_tower_prefix(small, base) or any(small == o for o in sx.subobjects(base))
    if big.family == "num":
        return _is_succ_tower(small)
    return _is_add_tower(small)


def _is_delta_prefix(f: sx.Obj) -> bool:
    if f in (sx.FALSUM, sx.Eq(sx.ZERO, sx.ZERO), sx.ZERO):
        return True
    return isinstance(f, sx.Or) and f.left == f.right and _is_delta_prefix(f.left)


def _is_tower_prefix(f: sx.Obj, base: sx.Formula) -> bool:
    if f == base:
        return True
    return isinstance(f, sx.Or) and f.left == f.right and _is_tower_prefix(f.left, base)


def _is_succ_tower(t: sx.Obj) -> bool:
    while isinstance(t, sx.Succ):
        t = t.arg
    return isinstance(t, sx.Zero)


def _is_add_tower(t: sx.Obj) -> bool:
    if isinstance(t, sx.Zero):
        return True
    return isinstance(t, sx.Add) and t.left == t.right and _is_add_tower(t.left)


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

    def collect(obj: sx.Obj, d: int):
        if d > k:
            return
        acc.append(obj)
        for child in _safe_children(obj):
            collect(child, d + 1)

    for g in gamma:
        collect(g, 1)
    return normalize(ApproxChain(tuple(acc)))


def _safe_children(obj: sx.Obj) -> tuple[sx.Obj, ...]:
    if isinstance(obj, (sx.Zero, sx.Const, sx.Var)):
        return ()
    return sx.children(obj)


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
    if isinstance(x, (TemplTerm, TemplForm)):
        return x.obj
    if isinstance(x, (sx.Zero, sx.Const, sx.Var, sx.SymTermRef, sx.SymFormulaRef)):
        return x
    if isinstance(x, sx.Succ):
        return _fold(sx.Succ(refold(x.arg)))
    if isinstance(x, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
        return _fold(type(x)(refold(x.left), refold(x.right)))
    if isinstance(x, sx.Not):
        return sx.Not(refold(x.body))
    if isinstance(x, sx.Ex):
        return sx.Ex(x.index, refold(x.body))
    raise TemplateError(f"non-primitive node {x!r}")


def _fold(x: sx.Obj) -> sx.Obj:
    from .elements import succ as esucc
    if isinstance(x, sx.Or) and x.left == x.right and isinstance(x.left, sx.SymFormulaRef):
        return sx.SymFormulaRef(x.left.family, esucc(x.left.index), x.left.payload)
    if isinstance(x, sx.Succ) and isinstance(x.arg, sx.SymTermRef) and x.arg.family == "num":
        return sx.SymTermRef("num", esucc(x.arg.index))
    if isinstance(x, sx.Add) and x.left == x.right and isinstance(x.left, sx.SymTermRef) \
            and x.left.family == "addtower":
        return sx.SymTermRef("addtower", esucc(x.left.index))
    return x


class _Mismatch(Exception):
    pass


def _needed_classes(cur: TObj, goal: TObj, acc: list[sx.Obj]):
    if isinstance(cur, (TemplTerm, TemplForm)):
        if cur == goal:
            return
        if isinstance(goal, (TemplTerm, TemplForm)):
            raise _Mismatch
        acc.append(cur.obj)
        return
    if isinstance(goal, (TemplTerm, TemplForm)):
        raise _Mismatch
    if type(cur) is not type(goal):
        raise _Mismatch
    if isinstance(cur, (sx.Zero, sx.Const, sx.Var, sx.SymTermRef, sx.SymFormulaRef)):
        if cur != goal:
            raise _Mismatch
        return
    if isinstance(cur, sx.Succ):
        _needed_classes(cur.arg, goal.arg, acc)
    elif isinstance(cur, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
        _needed_classes(cur.left, goal.left, acc)
        _needed_classes(cur.right, goal.right, acc)
    elif isinstance(cur, sx.Not):
        _needed_classes(cur.body, goal.body, acc)
    elif isinstance(cur, sx.Ex):
        if cur.index != goal.index:
            raise _Mismatch
        _needed_classes(cur.body, goal.body, acc)
    else:
        raise TemplateError(f"non-primitive node {cur!r}")


def is_approximation(x: TObj, target: sx.Obj) -> bool:
    """Is x reachable from the sealed target by some normal chain?

    Unfolds the most deeply nested needed class one step at a time;
    because a step opens every congruent box at once, a goal that keeps
    one box of a class closed while another is open is unreachable.
    """
    cur: TObj = templ(target)
    for _ in range(4 * _tsize(x) + 4):
        needed: list[sx.Obj] = []
        try:
            _needed_classes(cur, x, needed)
        except _Mismatch:
            return False
        if not needed:
            return cur == x
        step = min(needed, key=_sort_key)
        cur = f_step(step, cur)
    return False


def _tsize(x: TObj) -> int:
    if isinstance(x, (TemplTerm, TemplForm, sx.Zero, sx.Const, sx.Var,
                      sx.SymTermRef, sx.SymFormulaRef)):
        return 1
    if isinstance(x, sx.Succ):
        return 1 + _tsize(x.arg)
    if isinstance(x, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
        return 1 + _tsize(x.left) + _tsize(x.right)
    if isinstance(x, sx.Not):
        return 1 + _tsize(x.body)
    if isinstance(x, sx.Ex):
        return 1 + _tsize(x.body)
    raise TemplateError(f"non-primitive node {x!r}")


def apprx_member(x: TObj, member_oracle) -> bool:
    """Membership in the approximation closure of an axiom set oracle."""
    try:
        base = refold(x)
    except TemplateError:
        return False
    return bool(member_oracle(base)) and is_approximation(x, base)
