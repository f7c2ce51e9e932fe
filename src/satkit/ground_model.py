"""Evaluation over the standard model: term values and partial truth.

Truth evaluation is stratified by formula class. Atomic and bounded
(delta-0) sentences are decided outright; sentences with unbounded
quantifiers are searched with explicit fuel and may come back Unknown.
Unknown is a first-class outcome and is never coerced to a boolean.

``Tarski`` holds the truth clauses for not, or and exists once, with
one witness loop; ``eval_tr`` runs it with the standard model's atoms
and searches, and eldiag's decision and template satisfaction
(``semantics.models``) subclass it with their own atoms and their own
search order for an existential.

Towers and their approximations are shared DAGs (see ``template``), and
each walk here keeps ``syntax``'s sibling rule, so a tower costs its
height: ``val`` and ``decide`` spell it out (``Or(x, x)`` costs one
recursive call), the family-reference scan is a ``syntax.fold`` and the
class check visits each distinct node once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .elements import Element, Std, Sym, succ


class EvalError(Exception):
    pass


class OpenTerm(EvalError):
    pass


class WrongClass(EvalError):
    pass


class TruthValue:
    """Three-valued outcome. Unknown is never a guess: it marks a search
    that ran out of fuel, or (in eldiag and on generic elements) a truth
    that is not uniform in a parameter."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        self.tag = tag

    def __repr__(self):
        return self.tag

    def __eq__(self, other):
        return isinstance(other, TruthValue) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def is_true(self) -> bool:
        return self.tag == "True"


TRUE = TruthValue("True")
FALSE = TruthValue("False")
UNKNOWN = TruthValue("Unknown")


def tv_not(a: TruthValue) -> TruthValue:
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    return UNKNOWN


def tv_or(a: TruthValue, b: TruthValue) -> TruthValue:
    if a is TRUE or b is TRUE:
        return TRUE
    if a is FALSE and b is FALSE:
        return FALSE
    return UNKNOWN


def of_bool(b: bool) -> TruthValue:
    return TRUE if b else FALSE


# ---------------------------------------------------------------------------
# term valuation


def val(t: sx.Term, leaf=None) -> Element:
    """Value of a closed term; a homomorphism on Sc, + and *.

    ``leaf`` values every leaf that is not a constant (a structure's boxes
    and family references). Without it a variable raises OpenTerm and any
    other leaf EvalError."""
    # successor towers can be deep; peel them iteratively
    succs = 0
    while isinstance(t, sx.Succ):
        succs += 1
        t = t.arg
    if isinstance(t, sx.Zero):
        base: Element = Std(0)
    elif isinstance(t, sx.Const):
        base = t.elem
    elif isinstance(t, (sx.Add, sx.Mul)):
        u = val(t.left, leaf)
        w = u if t.right is t.left else val(t.right, leaf)
        base = sx.OPERATIONS[type(t)](u, w)
    elif leaf is not None:
        base = leaf(t)
    elif isinstance(t, sx.Var):
        raise OpenTerm(f"v{t.index} is free")
    else:
        raise EvalError(f"val: no standard value for {t!r}")
    for _ in range(succs):
        base = succ(base)
    return base


def witness_candidates(body: sx.Formula, bound: int):
    """The witnesses an existential over body is tried at: the elements
    its constants name, in pre-order, then 0..bound, each once."""
    seen = set()
    for o in sx.subobjects(body):
        e = sx.const_elem(o)
        if e is not None and e not in seen:
            seen.add(e)
            yield e
    for n in range(bound + 1):
        e = Std(n)
        if e not in seen:
            yield e


# ---------------------------------------------------------------------------
# formula classes


def match_bounded_exists(f: sx.Formula) -> tuple[int, sx.Term, sx.Formula] | None:
    """(i, t, body) when f is exists v_i < t, body as ``syntax`` expands it:
    i, the guard's index j, t and the body are read at their places, and f
    matches when j != i, neither is free in t, and ``sx.bex_expansion``
    rebuilds f from them. A wrong node on the way down is no match."""
    try:
        i, guard, body = f.index, f.body.body.left.body, f.body.body.right.body
        j, t = guard.index, guard.body.body.right.body.right
    except AttributeError:
        return None
    if j == i or {i, j} & sx.free_vars(t) or sx.bex_expansion(i, j, t, body) != f:
        return None
    return i, t, body


def mentions_family(x) -> bool:
    """Does x hold a family reference (a nonstandard tower) anywhere?"""
    return sx.fold(x, lambda y, kids: isinstance(y, sx.FamilyRef) or any(kids))


def is_delta0(f: sx.Formula) -> bool:
    """Is f a delta-0 formula? Each distinct node is visited once; a
    bounded existential's part is its body, which is not a child."""
    stack, seen = [f], set()
    while stack:
        y = stack.pop()
        if type(y) is sx.Eq or id(y) in seen:
            continue
        seen.add(id(y))
        if type(y) in (sx.Not, sx.Or):
            stack.extend(y.children)
        elif (m := match_bounded_exists(y)) is not None:
            stack.append(m[2])
        else:
            return False
    return True


def _strip_exists_block(f: sx.Formula) -> sx.Formula:
    while isinstance(f, sx.Ex) and match_bounded_exists(f) is None:
        f = f.body
    return f


def _strip_forall_block(f: sx.Formula) -> sx.Formula:
    # a universal is the primitive shape not(exists v_i not(...))
    while (isinstance(f, sx.Not) and isinstance(f.body, sx.Ex)
           and match_bounded_exists(f.body) is None
           and isinstance(f.body.body, sx.Not)):
        f = f.body.body.body
    return f


def is_sigma(f: sx.Formula, k: int) -> bool:
    if k == 0:
        return is_delta0(f)
    return is_pi(_strip_exists_block(f), k - 1)


def is_pi(f: sx.Formula, k: int) -> bool:
    if k == 0:
        return is_delta0(f)
    return is_sigma(_strip_forall_block(f), k - 1)


def check_class(f: sx.Formula, cls: str) -> bool:
    """cls is one of "at", "d0", "s<k>", "p<k>"."""
    if cls == "at":
        return isinstance(f, sx.Eq)
    if cls == "d0":
        return is_delta0(f)
    if cls.startswith("s"):
        return is_sigma(f, int(cls[1:]))
    if cls.startswith("p"):
        return is_pi(f, int(cls[1:]))
    raise WrongClass(f"unknown class {cls!r}")


# ---------------------------------------------------------------------------
# truth evaluation


@dataclass
class Tarski:
    """Tarski's truth clauses. ``decide`` applies the not and or tables,
    sends an existential to ``exists`` and any other node to ``atom``;
    ``params`` names the generic elements in scope. The hooks here are
    the standard model's: an equation compares the values of its sides, a
    bounded existential searches below its bound, and an unbounded one
    tries 0..fuel and is Unknown when no witness is true."""

    fuel: int

    def decide(self, f: sx.Formula, params: frozenset) -> TruthValue:
        if isinstance(f, sx.Not):
            return tv_not(self.decide(f.body, params))
        if isinstance(f, sx.Or):
            u = self.decide(f.left, params)
            return tv_or(u, u if f.right is f.left else self.decide(f.right, params))
        if isinstance(f, sx.Ex):
            return self.exists(f, params)
        return self.atom(f, params)

    def first_true(self, body: sx.Formula, i: int, witnesses,
                   params: frozenset) -> tuple[TruthValue, tuple | None]:
        """The body at each witness for v_i in turn: TRUE with
        (witness, instance) at the first TRUE instance, else FALSE when
        every instance is FALSE and UNKNOWN when one is UNKNOWN."""
        out: TruthValue = FALSE
        for e in witnesses:
            inst = sx.substitute(body, sx.const(e), i)
            r = self.decide(inst, params)
            if r is TRUE:
                return TRUE, (e, inst)
            if r is UNKNOWN:
                out = UNKNOWN
        return out, None

    def at_generic(self, f: sx.Ex, base: str, params: frozenset) -> TruthValue:
        """The existential's body at a fresh generic element named base.
        A body without v_i free is its own instance, and the base occurs
        nowhere in it, so it is decided under params alone: a memo on
        (formula, params) then sees it once, not once per nesting level."""
        inst = sx.substitute(f.body, sx.const(Sym(base)), f.index)
        return self.decide(inst, params if inst is f.body else params | {base})

    def atom(self, f: sx.Formula, params: frozenset) -> TruthValue:
        if isinstance(f, sx.Eq):
            return of_bool(val(f.left) == val(f.right))
        raise EvalError(f"eval: non-primitive formula {f!r}")

    def exists(self, f: sx.Ex, params: frozenset) -> TruthValue:
        m = match_bounded_exists(f)
        if m is not None:
            # search the body inside the guard: the guard v_i < t is itself
            # an unbounded existential, so f.body may be Unknown where the
            # bounded sentence is not
            i, bound, body = m
            b = val(bound)
            if not isinstance(b, Std):
                raise EvalError("symbolic bound in a bounded search")
            return self.first_true(body, i, map(Std, range(b.n)), params)[0]
        r, _ = self.first_true(f.body, f.index, map(Std, range(self.fuel + 1)), params)
        return TRUE if r is TRUE else UNKNOWN


def eval_tr(f: sx.Formula, cls: str = "d0", fuel: int = 64) -> TruthValue:
    """Partial truth for a closed sentence of the stated class.

    Atomic and delta-0 sentences never come back Unknown; classes with
    unbounded quantifiers return Unknown once the witness search runs out
    of fuel. Whenever True or False is returned it agrees with direct
    evaluation over the standard model.
    """
    if not sx.is_closed(f):
        raise OpenTerm("truth evaluation needs a sentence")
    if mentions_family(f):
        raise WrongClass("a family reference is not a sentence of the ground model")
    if not check_class(f, cls):
        raise WrongClass(f"formula is not in class {cls}")
    return Tarski(fuel).decide(f, frozenset())
