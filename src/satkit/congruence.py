"""Congruence of formulas by coded constant substitution, and term quotients.

Two objects are congruent when both arise from one pattern by simultaneous
substitution of constants for variables. Because substitution is
simultaneous, occurrence consistency is the whole difficulty: a pattern
variable names the same replacement everywhere it occurs. The decision
procedure is a constrained anti-unification over the zipped leaves, with
fresh pattern variables allocated above every index in either input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import syntax as sx
from .elements import Element


class CongruenceError(Exception):
    pass


class KindMismatch(CongruenceError):
    pass


class IllDefined(CongruenceError):
    pass


@dataclass(frozen=True)
class Generalization:
    pattern: sx.Obj
    left: sx.VarAssignment
    right: sx.VarAssignment


# the leaves that substitution relates: a variable and the constants
_ATOMS = (sx.Zero, sx.Const, sx.Var)


class _NotCongruent(Exception):
    pass


class _Builder:
    # Tables map a forced pattern-variable index to its replacement on each
    # side; None records "must stay untouched". Conflicting demands at two
    # occurrences are exactly the simultaneous-substitution failures.
    def __init__(self, fresh_base: int):
        self.fresh = fresh_base
        self.left: dict[int, Optional[Element]] = {}
        self.right: dict[int, Optional[Element]] = {}

    @staticmethod
    def _constrain(table: dict[int, Optional[Element]], i: int, value: Optional[Element]):
        if i in table:
            if table[i] != value:
                raise _NotCongruent
        else:
            table[i] = value

    def keep_var(self, i: int, lv: Optional[Element], rv: Optional[Element]):
        self._constrain(self.left, i, lv)
        self._constrain(self.right, i, rv)

    def fresh_var(self, lv: Element, rv: Element) -> sx.Var:
        v = self.fresh
        self.fresh += 1
        self.left[v] = lv
        self.right[v] = rv
        return sx.Var(v)

    def assignments(self) -> tuple[sx.VarAssignment, sx.VarAssignment]:
        return (
            sx.VarAssignment.of({i: v for i, v in self.left.items() if v is not None}),
            sx.VarAssignment.of({i: v for i, v in self.right.items() if v is not None}),
        )


def _max_index(x: sx.Obj) -> int:
    top = -1
    for o in sx.subobjects(x):
        if type(o) is sx.Var or o.scope:
            top = max(top, o.index)
    return top


def _zip(x: sx.Obj, y: sx.Obj, b: _Builder, shadow: frozenset[int]) -> sx.Obj:
    kx, ky = x.children, y.children
    if not kx or not ky:
        xv, yv = sx.const_elem(x), sx.const_elem(y)
        if isinstance(x, sx.Var) and isinstance(y, sx.Var):
            if x.index != y.index:
                raise _NotCongruent
            # bound occurrences are untouched by substitution: no constraint
            if x.index not in shadow:
                b.keep_var(x.index, None, None)
            return x
        if isinstance(x, sx.Var) and yv is not None:
            if x.index in shadow:
                raise _NotCongruent
            b.keep_var(x.index, None, yv)
            return x
        if isinstance(y, sx.Var) and xv is not None:
            if y.index in shadow:
                raise _NotCongruent
            b.keep_var(y.index, xv, None)
            return y
        if xv is not None and yv is not None:
            if xv == yv:
                return sx.const(xv)
            return b.fresh_var(xv, yv)
        # other leaves (family references, template symbols) are opaque:
        # congruent iff equal
        if x == y:
            return x
        raise _NotCongruent
    if type(x) is not type(y):
        raise _NotCongruent
    if x.extended:
        raise CongruenceError(f"congruence over non-primitive node {x!r}")
    inner = shadow
    if x.scope:
        if x.index != y.index:
            raise _NotCongruent
        inner = shadow | {x.index}
    return x.rebuild(*(_zip(a, c, b, inner if pos in x.scope else shadow)
                       for pos, (a, c) in enumerate(zip(kx, ky))))


def generalize(x: sx.Obj, y: sx.Obj) -> Optional[Generalization]:
    """Anti-unify; None when the inputs are not congruent.

    The pattern reproduces both inputs under its two assignments:
    multi_substitute(pattern, left) == x and likewise for right.
    """
    if isinstance(x, sx.Term) != isinstance(y, sx.Term):
        raise KindMismatch("cannot relate a term and a formula")
    fresh_base = max(_max_index(x), _max_index(y)) + 1
    b = _Builder(fresh_base)
    try:
        pattern = _zip(x, y, b, frozenset())
    except _NotCongruent:
        return None
    left, right = b.assignments()
    return Generalization(pattern, left, right)


def is_congruent(x: sx.Obj, y: sx.Obj) -> bool:
    try:
        return generalize(x, y) is not None
    except KindMismatch:
        return False


def skeleton_congruent(x: sx.Obj, y: sx.Obj) -> bool:
    """The equivalence closure of pattern-relatedness.

    Pattern-relatedness itself is not transitive at the leaves (a variable
    relates to every constant, a constant to every variable, yet distinct
    variables never relate); its closure identifies any two leaves, i.e.
    two objects relate exactly when their constructor skeletons and binder
    indices agree. Approximating steps act on these closure classes: that
    is what keeps unfolding stable under constant substitution, which the
    substitution-commutation law requires. An abbreviation, which a box
    may hold, relates as every other inner node does. Each object's class
    has an id, ``class_id``, so two objects relate exactly when their ids
    are equal.
    """
    return class_id(x) == class_id(y)


# One id per closure class, numbered as first met. An inner node's key is
# its type, its binder index (None on a non-binder) and its children's ids;
# the atoms share one key; every other leaf (a family reference, a box)
# relates only to its equals and is its own key.
_CLASSES: dict = {_ATOMS: 0}


def _class_of(x: sx.Obj) -> int:
    kids = x.children
    if kids:
        key = (type(x), x.index if x.scope else None, *map(class_id, kids))
    else:
        key = _ATOMS if type(x) in _ATOMS else x
    return _CLASSES.setdefault(key, len(_CLASSES))


# x's closure class; cached per node
class_id = sx.fact("_cc", _class_of)


# ---------------------------------------------------------------------------
# quotient of closed terms by a set of ground equations


@dataclass
class QuotientStructure:
    universe: tuple[sx.Term, ...]
    parent: dict[sx.Term, sx.Term]
    op_tables: dict[str, dict[tuple, sx.Term]]
    injective_on_constants: bool
    surjective_on_universe: bool
    # each class root to the element its first constant in universe order names
    const_of: dict[sx.Term, Element]

    def find(self, t: sx.Term) -> sx.Term:
        root = t
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[t] != root:
            self.parent[t], t = root, self.parent[t]
        return root

    def same_class(self, t: sx.Term, r: sx.Term) -> bool:
        return self.find(t) == self.find(r)

    def classes(self) -> list[frozenset[sx.Term]]:
        groups: dict[sx.Term, set[sx.Term]] = {}
        for t in self.universe:
            groups.setdefault(self.find(t), set()).add(t)
        return [frozenset(g) for g in groups.values()]


# the operation-table name of zero and of each function symbol
_OP_NAMES = {sx.Zero: "zero", sx.Succ: "sc", sx.Add: "+", sx.Mul: "*"}


def _term_key(t: sx.Term):
    name = _OP_NAMES.get(type(t))
    return None if name is None else (name, *t.children)


def build_quotient(
    equations: list[tuple[sx.Term, sx.Term]],
    universe: list[sx.Term],
    require_injective: bool = False,
) -> QuotientStructure:
    """Congruence closure of ground equations over a subterm-closed universe.

    Functionality of Sc, + and * is enforced: equal-class arguments force
    equal-class results wherever both results lie in the universe. With
    require_injective the closure must not merge two distinct standard
    constants (the canonical-map injectivity demanded of term quotients);
    violations raise IllDefined.
    """
    uni = list(dict.fromkeys(universe))
    uniset = set(uni)
    for t, r in equations:
        for side in (t, r):
            if side not in uniset:
                raise CongruenceError("universe must contain the equations' terms")
            for sub in sx.subobjects(side):
                if isinstance(sub, sx.Term) and sub not in uniset:
                    raise CongruenceError("universe must be closed under subterms")
            if not sx.is_closed(side):
                raise CongruenceError("quotients are over closed terms")

    parent = {t: t for t in uni}

    def find(t: sx.Term) -> sx.Term:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a: sx.Term, b: sx.Term) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    for t, r in equations:
        union(t, r)

    # congruence propagation to fixpoint (worklist-free; desk-scale sizes)
    changed = True
    while changed:
        changed = False
        sig: dict[tuple, sx.Term] = {}
        for t in uni:
            key = _term_key(t)
            if key is None:
                continue
            canon = (key[0],) + tuple(find(a) for a in key[1:])
            other = sig.get(canon)
            if other is None:
                sig[canon] = t
            elif union(t, other):
                changed = True

    injective = True
    const_of: dict[sx.Term, Element] = {}
    for t in uni:
        e = sx.const_elem(t)
        if e is None:
            continue
        seen = const_of.setdefault(find(t), e)
        if seen != e:
            injective = False
            if require_injective:
                raise IllDefined(f"closure identifies the constants {seen} and {e}")

    surjective = all(find(t) in const_of for t in uni)

    tables: dict[str, dict[tuple, sx.Term]] = {"sc": {}, "+": {}, "*": {}}
    for t in uni:
        key = _term_key(t)
        if key is None or key[0] == "zero":
            continue
        args = tuple(find(a) for a in key[1:])
        tables[key[0]][args] = find(t)

    return QuotientStructure(
        universe=tuple(uni),
        parent=parent,
        op_tables=tables,
        injective_on_constants=injective,
        surjective_on_universe=surjective,
        const_of=const_of,
    )


def subterm_closure(terms: list[sx.Term]) -> list[sx.Term]:
    out: list[sx.Term] = []
    seen = set()
    for t in terms:
        for sub in sx.subobjects(t):
            if sub not in seen and isinstance(sub, sx.Term):
                seen.add(sub)
                out.append(sub)
    return out
