"""Congruence and quotient tests.

The brute-force pattern oracle below enumerates candidate generalization
patterns over the common skeleton and checks assignment consistency
directly; the module's anti-unifier must agree with it on every small
instance. It is written against the definition alone.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.syntax as sx
from satkit.congruence import (
    IllDefined, KindMismatch, build_quotient, class_id, generalize, is_congruent,
    skeleton_congruent, subterm_closure,
)
from satkit.elements import Std, std
from generators import random_formula, random_templated, random_term, reatom


def c(n):
    return sx.const(std(n))


def v(i):
    return sx.Var(i)


# ---------------------------------------------------------------------------
# brute-force oracle


def _leaves_and_skeleton(x, y):
    """Zip the two trees; leaf triples (a, b, binders) or None on mismatch."""
    leaves = []

    def go(a, b, shadow):
        atomic_a = isinstance(a, (sx.Zero, sx.Const, sx.Var))
        atomic_b = isinstance(b, (sx.Zero, sx.Const, sx.Var))
        if atomic_a or atomic_b:
            if not (atomic_a and atomic_b):
                raise ValueError
            leaves.append((a, b, shadow))
            return
        if type(a) is not type(b):
            raise ValueError
        if isinstance(a, sx.Succ):
            go(a.arg, b.arg, shadow)
        elif isinstance(a, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
            go(a.left, b.left, shadow)
            go(a.right, b.right, shadow)
        elif isinstance(a, sx.Not):
            go(a.body, b.body, shadow)
        elif isinstance(a, sx.Ex):
            if a.index != b.index:
                raise ValueError
            go(a.body, b.body, shadow | {a.index})
        else:
            raise ValueError

    try:
        go(x, y, frozenset())
    except ValueError:
        return None
    return leaves


def _as_const(t):
    if isinstance(t, sx.Zero):
        return Std(0)
    if isinstance(t, sx.Const):
        return t.elem
    return None


def brute_force_congruent(x, y, extra_vars: int = 3) -> bool:
    """Exhaustive search over leaf patterns up to the input size.

    Bound variable occurrences admit no substitution, so they force the
    identical pattern variable and contribute no assignment constraint.
    """
    leaves = _leaves_and_skeleton(x, y)
    if leaves is None:
        return False
    top = -1
    for side in (x, y):
        for o in sx.subobjects(side):
            if isinstance(o, (sx.Var, sx.Ex)):
                top = max(top, o.index)
    pool = list(range(top + 1 + min(extra_vars, len(leaves))))

    options = []
    for a, b, shadow in leaves:
        opts = []
        ca, cb = _as_const(a), _as_const(b)
        a_var = isinstance(a, sx.Var)
        b_var = isinstance(b, sx.Var)
        if a_var and b_var:
            if a.index != b.index:
                return False
            if a.index in shadow:
                opts = [("bound", a.index)]
            else:
                opts = [("var", a.index)]
        elif a_var or b_var:
            i = a.index if a_var else b.index
            if i in shadow:
                return False
            opts = [("var", i)]
        else:
            if ca == cb:
                opts.append(("const", ca))
            opts.extend(("var", j) for j in pool if j not in shadow)
        options.append(opts)

    for choice in product(*options):
        left: dict[int, object] = {}
        right: dict[int, object] = {}
        ok = True
        for (a, b, _shadow), picked in zip(leaves, choice):
            kind, payload = picked
            if kind == "bound":
                continue
            if kind == "const":
                if _as_const(a) != payload or _as_const(b) != payload:
                    ok = False
                    break
                continue
            j = payload
            for side_leaf, table in ((a, left), (b, right)):
                cval = _as_const(side_leaf)
                if cval is None:  # the leaf is a variable: must be v_j untouched
                    if side_leaf != sx.Var(j):
                        ok = False
                        break
                    want = None
                else:
                    want = cval
                if j in table and table[j] != want:
                    ok = False
                    break
                table[j] = want
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# tests


class TestGeneralize:
    def test_two_fresh_variables(self):
        g = generalize(sx.Eq(c(3), c(3)), sx.Eq(c(8), c(9)))
        assert g is not None
        assert isinstance(g.pattern, sx.Eq)
        assert isinstance(g.pattern.left, sx.Var) and isinstance(g.pattern.right, sx.Var)
        assert g.pattern.left != g.pattern.right
        assert g.left.lookup(g.pattern.left.index) == std(3)
        assert g.left.lookup(g.pattern.right.index) == std(3)
        assert g.right.lookup(g.pattern.left.index) == std(8)
        assert g.right.lookup(g.pattern.right.index) == std(9)

    def test_distinct_variables_never_congruent(self):
        assert generalize(sx.Eq(v(0), sx.ZERO), sx.Eq(v(1), sx.ZERO)) is None

    def test_tower_shape_occurrence_conflict(self):
        # (v0 != v0) or (v0 != v0)  vs  (v0 != 0) or (v0 != 0):
        # the same source variable would need to stay untouched and be
        # substituted at once, so simultaneous substitution cannot relate them
        eps = sx.Or(sx.Not(sx.Eq(v(0), v(0))), sx.Not(sx.Eq(v(0), v(0))))
        eps2 = sx.Or(sx.Not(sx.Eq(v(0), sx.ZERO)), sx.Not(sx.Eq(v(0), sx.ZERO)))
        assert generalize(eps, eps2) is None
        assert brute_force_congruent(eps, eps2) is False

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            generalize(sx.Eq(c(1), c(1)), c(1))

    @staticmethod
    def _related_pair(rng):
        gamma = random_formula(rng, 2, max_const=5, max_var=3)
        assigned = sorted(sx.free_vars(gamma))
        mk = lambda: sx.VarAssignment.of(
            {i: std(rng.randrange(6)) for i in assigned if rng.random() < 0.7})
        return sx.multi_substitute(gamma, mk()), sx.multi_substitute(gamma, mk())

    def test_round_trip_equations(self):
        rng = random.Random(31)
        hits = 0
        for k in range(600):
            if k % 2 == 0:
                x, y = self._related_pair(rng)
            else:
                x = random_formula(rng, 2, max_const=6, max_var=2)
                y = random_formula(rng, 2, max_const=6, max_var=2)
            g = generalize(x, y)
            if g is None:
                continue
            hits += 1
            assert sx.multi_substitute(g.pattern, g.left) == x
            assert sx.multi_substitute(g.pattern, g.right) == y
        assert hits > 200

    def test_agrees_with_brute_force(self):
        rng = random.Random(37)
        checked = agreed_positive = 0
        for k in range(400):
            if k % 3 == 0:
                x, y = self._related_pair(rng)
            elif k % 3 == 1:
                x = random_term(rng, 2, max_const=4, max_var=2)
                y = random_term(rng, 2, max_const=4, max_var=2)
            else:
                x = random_formula(rng, 1, max_const=4, max_var=2)
                y = random_formula(rng, 1, max_const=4, max_var=2)
            leaves = _leaves_and_skeleton(x, y)
            if leaves is not None and len(leaves) <= 5:
                got = is_congruent(x, y)
                assert got == brute_force_congruent(x, y), (x, y)
                checked += 1
                agreed_positive += got
        assert checked > 100 and agreed_positive > 30


class TestEquivalenceLaws:
    def test_reflexive(self):
        rng = random.Random(41)
        for _ in range(1000):
            f = random_formula(rng, 3, max_const=10)
            assert is_congruent(f, f)

    def test_symmetric(self):
        rng = random.Random(43)
        for _ in range(1000):
            x = random_formula(rng, 2, max_const=5, max_var=2)
            y = random_formula(rng, 2, max_const=5, max_var=2)
            assert is_congruent(x, y) == is_congruent(y, x)

    def test_transitive_on_generated_triples(self):
        rng = random.Random(47)
        for _ in range(1000):
            gamma = random_formula(rng, 3, max_const=5, max_var=3)
            assigned = sorted(sx.free_vars(gamma))
            mk = lambda: sx.VarAssignment.of(
                {i: std(rng.randrange(8)) for i in assigned if rng.random() < 0.7})
            fa, fb, fc = (sx.multi_substitute(gamma, mk()) for _ in range(3))
            assert is_congruent(fa, fb)
            assert is_congruent(fb, fc)
            assert is_congruent(fa, fc)


    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_congruent_objects_share_a_class_id(self, seed):
        # the closure classes contain pattern-relatedness: two congruent
        # objects and their generalization's pattern have one class id, and
        # an object's class is its skeleton's, whatever its atoms
        rng = random.Random(seed)
        x = random_templated(rng, 3)
        for y in (random_templated(rng, 3), reatom(rng, x)):
            g = generalize(x, y) if isinstance(y, sx.Formula) else None
            if g is not None:
                assert class_id(g.pattern) == class_id(x) == class_id(y)
            assert (class_id(x) == class_id(y)) == skeleton_congruent(x, y)
        assert class_id(reatom(rng, x)) == class_id(x)
        # binder indices are part of the skeleton
        rebound = sx.fold(x, lambda y, kids: y.rebuild(*kids) if not y.scope
                          else type(y)(y.index + 1, *kids))
        binds = any(y.scope for y in sx.subobjects(x))
        assert (class_id(rebound) != class_id(x)) == binds


# ---------------------------------------------------------------------------
# quotient


def brute_force_closure(equations, universe):
    """Repeated pairwise merging plus congruence propagation to fixpoint."""
    cls = {t: {t} for t in universe}

    def merge(a, b):
        sa, sb = cls[a], cls[b]
        if sa is sb:
            return False
        union = sa | sb
        for t in union:
            cls[t] = union
        return True

    for t, r in equations:
        merge(t, r)
    changed = True
    while changed:
        changed = False
        for t in universe:
            for r in universe:
                if cls[t] is cls[r]:
                    continue
                if type(t) is not type(r):
                    continue
                if isinstance(t, sx.Succ) and cls[t.arg] is cls[r.arg]:
                    changed |= merge(t, r)
                elif isinstance(t, (sx.Add, sx.Mul)) and \
                        cls[t.left] is cls[r.left] and cls[t.right] is cls[r.right]:
                    changed |= merge(t, r)
    return cls


class TestQuotient:
    def test_empty_equations(self):
        uni = [sx.ZERO, sx.Succ(sx.ZERO)]
        q = build_quotient([], uni)
        assert len(q.classes()) == 2
        assert q.injective_on_constants
        # only the zero class contains a constant
        assert not q.surjective_on_universe

    def test_single_merge(self):
        lhs = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        uni = subterm_closure([lhs, c(2)])
        q = build_quotient([(lhs, c(2))], uni)
        assert q.same_class(lhs, c(2))

    def test_congruence_propagates(self):
        # 0 ~ c1 forces Sc(0) ~ Sc(c1)
        uni = subterm_closure([sx.Succ(sx.ZERO), sx.Succ(c(1))])
        q = build_quotient([(sx.ZERO, c(1))], uni)
        assert q.same_class(sx.Succ(sx.ZERO), sx.Succ(c(1)))
        assert not q.injective_on_constants  # 0 ~ c1 names two elements

    def test_injectivity_enforcement(self):
        uni = subterm_closure([c(1), c(2)])
        with pytest.raises(IllDefined):
            build_quotient([(c(1), c(2))], uni, require_injective=True)

    def test_matches_brute_force_closure(self):
        rng = random.Random(53)
        for _ in range(500):
            roots = [random_term(rng, rng.randrange(1, 3), max_const=4, closed=True)
                     for _ in range(rng.randrange(2, 6))]
            universe = subterm_closure(roots)[:30]
            universe = subterm_closure(universe)  # keep closure after trim
            eqs = []
            for _ in range(rng.randrange(0, 4)):
                eqs.append((rng.choice(universe), rng.choice(universe)))
            q = build_quotient(eqs, universe)
            want = brute_force_closure(eqs, universe)
            for t in universe:
                for r in universe:
                    assert q.same_class(t, r) == (want[t] is want[r])

    def test_well_definedness_of_op_tables(self):
        rng = random.Random(59)
        for _ in range(100):
            roots = [random_term(rng, 2, max_const=3, closed=True) for _ in range(4)]
            universe = subterm_closure(roots)
            eqs = [(rng.choice(universe), rng.choice(universe))]
            q = build_quotient(eqs, universe)
            # re-derive every populated entry from scratch: must agree
            for t in universe:
                if isinstance(t, sx.Succ):
                    assert q.op_tables["sc"][(q.find(t.arg),)] == q.find(t)
                elif isinstance(t, sx.Add):
                    key = (q.find(t.left), q.find(t.right))
                    assert q.op_tables["+"][key] == q.find(t)
