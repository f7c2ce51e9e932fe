import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.sexpr as sexpr
import satkit.syntax as sx
import satkit.template as tp
from satkit.congruence import skeleton_congruent
from satkit.elements import Sym, std, sym
from generators import random_formula, random_templated, reatom


def c(n):
    return sx.const(std(n))


def v(i):
    return sx.Var(i)


def boxed(x):
    return tp.templ(x)


def random_subchain(rng, formulas, max_len):
    """A chain whose steps are subobjects of the given formulas."""
    pool = []
    for f in formulas:
        pool.extend(sx.subobjects(f))
    steps = tuple(rng.choice(pool) for _ in range(rng.randrange(max_len + 1)))
    return tp.ApproxChain(steps)


class TestTemplSubstitute:
    def test_pushes_into_boxes(self):
        f = tp.TemplForm(sx.Eq(v(0), v(1)))
        got = tp.templ_substitute(f, std(3), 0)
        assert got == tp.TemplForm(sx.Eq(c(3), v(1)))

    def test_shadowed_binder(self):
        f = sx.Ex(0, tp.TemplForm(sx.Eq(v(0), v(1))))
        assert tp.templ_substitute(f, std(3), 0) == f

    def test_constant_box_unchanged(self):
        f = tp.TemplTerm(c(5))
        assert tp.templ_substitute(f, std(3), 0) == f


def _parts(x):
    return [getattr(x, f.name) for f in dataclasses.fields(x)
            if isinstance(getattr(x, f.name), (sx.Term, sx.Formula))]


def _nodes(x):
    """Every node outside template symbols, root first."""
    yield x
    if not isinstance(x, (tp.TemplTerm, tp.TemplForm)):
        for part in _parts(x):
            yield from _nodes(part)


def _opens(tau, x) -> bool:
    if isinstance(x, tp.TemplForm):
        return isinstance(tau, sx.Formula) and skeleton_congruent(x.obj, tau)
    return isinstance(x, tp.TemplTerm) and isinstance(tau, sx.Term) \
        and skeleton_congruent(x.obj, tau)


def _ref_f_step(tau, x):
    """One approximating step that rebuilds every node it passes."""
    if isinstance(x, (tp.TemplTerm, tp.TemplForm)):
        return tp._unfold(x.obj) if _opens(tau, x) else x
    if not _parts(x):
        return x
    return type(x)(*(_ref_f_step(tau, v) if isinstance(v, (sx.Term, sx.Formula)) else v
                     for v in (getattr(x, f.name) for f in dataclasses.fields(x))))


class TestFStep:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_rebuilding_walk_and_shares_what_it_leaves(self, seed):
        rng = random.Random(seed)
        x = random_templated(rng, 4)
        leaves = [y.obj for y in _nodes(x) if isinstance(y, (tp.TemplTerm, tp.TemplForm))]
        pool = [o for leaf in leaves for o in sx.subobjects(leaf)] + \
            list(sx.subobjects(random_formula(rng, 2)))
        for tau in rng.sample(pool, min(len(pool), 6)):
            for y in _nodes(x):
                got = tp.f_step(tau, y)
                assert got == _ref_f_step(tau, y)
                if not any(_opens(tau, z) for z in _nodes(y)):
                    assert got is y

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_on_substituted_and_reparsed_copies(self, seed):
        # nodes made by substitute, multi_substitute and the parser
        rng = random.Random(seed)
        x = random_templated(rng, 4)
        values = sx.VarAssignment.of({i: std(rng.randrange(5)) for i in range(3)})
        copies = [sx.substitute(x, c(rng.randrange(5)), rng.randrange(3)),
                  sx.multi_substitute(x, values),
                  sexpr.parse_obj(sexpr.read_one(sexpr.print_obj(x)))]
        pool = list(sx.subobjects(random_formula(rng, 2)))
        for y in copies:
            pool += [z.obj for z in _nodes(y) if isinstance(z, (tp.TemplTerm, tp.TemplForm))]
        for tau in rng.sample(pool, min(len(pool), 6)):
            for y in copies:
                for z in _nodes(y):
                    assert tp.f_step(tau, z) == _ref_f_step(tau, z)

    def test_delta_unfolds_one_level(self):
        d2, d1 = sx.delta(2), sx.delta(1)
        got = tp.f_step(d2, boxed(d2))
        assert got == sx.Or(tp.TemplForm(d1), tp.TemplForm(d1))

    def test_non_congruent_leaf_untouched(self):
        zero = sx.Eq(sx.ZERO, sx.ZERO)
        target = boxed(sx.Not(zero))
        assert tp.f_step(zero, target) == target

    def test_term_row(self):
        t = sx.Succ(sx.ZERO)
        got = tp.f_step(t, boxed(t))
        assert got == sx.Succ(tp.TemplTerm(sx.ZERO))

    def test_congruence_class_acts_at_once(self):
        # one step opens every congruent box simultaneously
        f1, f2 = sx.Eq(c(1), c(1)), sx.Eq(c(2), c(2))
        x = sx.Or(tp.TemplForm(f1), tp.TemplForm(f2))
        got = tp.f_step(f1, x)
        assert got == sx.Or(sx.Eq(tp.TemplTerm(c(1)), tp.TemplTerm(c(1))),
                            sx.Eq(tp.TemplTerm(c(2)), tp.TemplTerm(c(2))))

    def test_symbolic_family_step(self):
        a = sym("a")
        da = sx.delta(a)
        below = sx.delta(Sym("a", a.coeff, -1))
        got = tp.f_step(da, boxed(da))
        assert got == sx.Or(tp.TemplForm(below), tp.TemplForm(below))


class TestChains:
    def test_empty_chain_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            x = boxed(random_formula(rng, 3))
            assert tp.apply_chain(tp.chain(), x) == x

    def test_two_step_delta(self):
        d2, d1, d0 = sx.delta(2), sx.delta(1), sx.delta(0)
        got = tp.apply_chain(tp.chain(d2, d1), boxed(d2))
        quarter = sx.Or(tp.TemplForm(d0), tp.TemplForm(d0))
        assert got == sx.Or(quarter, quarter)

    def test_length(self):
        t = sx.Eq(sx.ZERO, sx.ZERO)
        assert tp.length(tp.chain(t, t, t)) == 3

    def test_full_unfolding_recovers_standard_formula(self):
        rng = random.Random(3)
        for _ in range(200):
            f = random_formula(rng, 3, max_const=6)
            depth = sx.skeleton_depth(f)
            full = tp.full_depth_approx([f], depth.n)
            got = tp.apply_to_object(full, f)
            assert got == f
            assert not tp.has_templates(got)


def _ref_apply_chain(f, x):
    """The chain's steps one after another, each walking all of x."""
    for tau in f.steps:
        x = tp.f_step(tau, x)
    return x


def _outcome(fn, *args):
    try:
        return fn(*args)
    except tp.TemplateError:
        return tp.TemplateError


def _distinct(x):
    """The number of distinct node objects of x, boxes' objects included."""
    seen, stack = set(), [x]
    while stack:
        y = stack.pop()
        if id(y) not in seen:
            seen.add(id(y))
            stack.extend(y.children + ((y.obj,) if isinstance(y, sx.Sealed) else ()))
    return len(seen)


def _walk_query(rng):
    """(chain, x): x a templated formula, a sealed tower, siblings that are
    one object, or a formula with an abbreviation inside or outside a box;
    the chain unnormalized, from the parts its boxes hold and open into,
    with repeated and congruent steps, at times empty."""
    a = sym("a", 1, rng.randrange(3))
    roll = rng.random()
    if roll < 0.35:
        x = random_templated(rng, 4)
    elif roll < 0.55:
        x = boxed(rng.choice([sx.delta(a), sx.addtower(a), sx.numeral(a),
                              sx.epsilon(a, random_formula(rng, 1, max_const=2)),
                              sx.delta(rng.randrange(4)), sx.addtower(std(rng.randrange(4)))]))
        if isinstance(x, tp.TemplTerm):
            x = sx.Eq(x, c(1))
    elif roll < 0.75:
        y = random_templated(rng, 3) if rng.random() < 0.5 else boxed(sx.delta(a))
        x = sx.Not(sx.Or(y, y))
    else:
        f, g = random_formula(rng, 2), random_formula(rng, 1)
        inner = sx.Or(boxed(sx.And(f, g)), random_templated(rng, 2))
        x = inner if rng.random() < 0.6 else sx.And(boxed(f), g)
    pool = []
    for box in (y for y in sx.subobjects(x) if isinstance(y, sx.Sealed)):
        for z in sx.subobjects(box.obj):
            pool.append(z)
            if isinstance(z, sx.FamilyRef):  # what the reference opens into
                pool.extend(sx.subobjects(sx.unfold_ref(sx.unfold_ref(z).children[0])))
    pool += list(sx.subobjects(random_formula(rng, 2)))
    steps = [rng.choice(pool) for _ in range(rng.randrange(9))] if rng.random() < 0.9 else []
    for _ in range(rng.randrange(3)):
        if steps:
            s = rng.choice(steps)
            steps.insert(rng.randrange(len(steps) + 1), s if rng.random() < 0.5 else reatom(rng, s))
    return tp.ApproxChain(tuple(steps)), x


class TestOneWalk:
    """apply_chain's one walk against the steps one after another."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_stepwise_chain(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            f, x = _walk_query(rng)
            got, want = _outcome(tp.apply_chain, f, x), _outcome(_ref_apply_chain, f, x)
            assert got == want
            if got is tp.TemplateError:
                continue
            if not f.steps:
                assert got is x
            # siblings that are one object stay one: towers stay DAGs
            assert _distinct(got) == _distinct(want)
            kept = tp._dedup_congruent(f.steps)
            assert kept == [s for i, s in enumerate(f.steps)
                            if not any(skeleton_congruent(s, t) for t in f.steps[:i])]

    def test_the_queries_reach_every_case(self):
        rng = random.Random(3)
        seen = {"raised": 0, "empty": 0, "opened": 0, "repeated": 0, "untouched": 0}
        for _ in range(1000):
            f, x = _walk_query(rng)
            got = _outcome(tp.apply_chain, f, x)
            seen["raised"] += got is tp.TemplateError
            seen["empty"] += not f.steps
            seen["repeated"] += len(tp._dedup_congruent(f.steps)) < len(f.steps)
            if got is not tp.TemplateError and f.steps:
                seen["opened" if got != x else "untouched"] += 1
        assert all(n >= 50 for n in seen.values()), seen

    def test_pickling_carries_no_class_index(self):
        # class ids are numbered per process, so the chain's index of its
        # steps by class must not travel
        f = tp.chain(sx.delta(2), sx.delta(1))
        tp.apply_chain(f, boxed(sx.delta(2)))
        assert "_by_class" in vars(f)
        g = pickle.loads(pickle.dumps(f))
        assert g == f and "_by_class" not in vars(g)
        assert tp.apply_chain(g, boxed(sx.delta(2))) == tp.apply_chain(f, boxed(sx.delta(2)))

    def test_a_box_opens_at_its_first_step_and_its_parts_after_it(self):
        # the parts of a box opened by the second step meet only the third
        d2, d1, d0 = sx.delta(2), sx.delta(1), sx.delta(0)
        x = sx.Or(boxed(d2), boxed(d1))
        got = tp.apply_chain(tp.chain(d1, d2, d1), x)
        assert got == _ref_apply_chain(tp.chain(d1, d2, d1), x)
        assert got == sx.Or(sx.Or(sx.Or(boxed(d0), boxed(d0)), sx.Or(boxed(d0), boxed(d0))),
                            sx.Or(boxed(d0), boxed(d0)))
        assert tp.apply_chain(tp.chain(d1, d2), x) == \
            sx.Or(sx.Or(boxed(d1), boxed(d1)), sx.Or(boxed(d0), boxed(d0)))


class TestNormalize:
    def test_subformula_comes_later(self):
        d1, d2 = sx.delta(1), sx.delta(2)
        got = tp.normalize(tp.chain(d1, d2))
        assert got.steps == (d2, d1)

    def test_classes_preserved(self):
        from satkit.congruence import skeleton_congruent
        rng = random.Random(29)
        for _ in range(100):
            f = random_formula(rng, 3)
            ch = random_subchain(rng, [f], 5)
            norm = tp.normalize(ch)
            for s in ch.steps:
                assert any(skeleton_congruent(s, t) for t in norm.steps)
            for t in norm.steps:
                assert any(skeleton_congruent(t, s) for s in ch.steps)

    def test_idempotent_up_to_order(self):
        rng = random.Random(5)
        for _ in range(200):
            f = random_formula(rng, 3)
            ch = random_subchain(rng, [f], 5)
            n1 = tp.normalize(ch)
            assert tp.normalize(n1) == n1
            assert tp.is_normal(n1)

    def test_containers_first_across_symbolic_bases(self):
        # towers on two bases: the disjunction's first child is on q, its
        # equation on p, and each container still sorts before its parts
        q_tower, eq = sx.delta(sym("q")), sx.Eq(c(1), sx.numeral(sym("p")))
        target = sx.Not(sx.Or(q_tower, eq))
        ordered = tp.chain(target, target.body, q_tower, eq, eq.right)
        norm = tp.normalize(tp.chain(*reversed(ordered.steps)))
        assert tp.is_normal(norm)
        x = tp.apply_chain(ordered, boxed(target))
        assert tp.apply_chain(norm, boxed(target)) == x
        assert tp.is_approximation(x, target)

    def test_absorption_property(self):
        rng = random.Random(7)
        for _ in range(1000):
            f = random_formula(rng, 3, max_const=5)
            ch = random_subchain(rng, [f], 4)
            x = tp.apply_chain(random_subchain(rng, [f], 2), boxed(f))
            norm = tp.normalize(ch)
            lhs = tp.apply_chain(norm, tp.apply_chain(ch, x))
            rhs = tp.apply_chain(norm, x)
            assert lhs == rhs


    def test_concrete_towers_inside_their_families(self):
        # the concrete levels of a family sit inside its symbolic reference,
        # at any height; mismatched halves, bases and families do not
        a, phi = sym("a"), sx.Eq(sx.ZERO, sx.ZERO)
        for k in (0, 3, 3000):
            assert tp.is_subobject(sx.delta(k), sx.delta(a))
            assert tp.is_subobject(sx.epsilon(k, phi), sx.epsilon(a, phi))
            assert tp.is_subobject(sx.addtower(std(k)), sx.addtower(a))
            assert tp.is_subobject(sx.numeral(std(k)), sx.numeral(a))
            assert not tp.is_subobject(sx.epsilon(k, phi), sx.delta(a))
            assert not tp.is_subobject(sx.addtower(std(k + 1)), sx.numeral(a))
        assert tp.is_subobject(phi, sx.epsilon(a, phi))
        assert not tp.is_subobject(sx.Or(sx.delta(2), sx.delta(1)), sx.delta(a))
        assert not tp.is_subobject(sx.Add(sx.addtower(std(1)), sx.ZERO), sx.addtower(a))
        # a tower over a part of delta's base is not a delta tower
        true = sx.Eq(sx.ZERO, sx.ZERO)
        assert not tp.is_subobject(sx.Or(true, true), sx.delta(a))
        assert not tp.is_normal(tp.chain(sx.delta(1), sx.delta(a)))
        assert tp.is_normal(tp.chain(sx.Or(true, true), sx.delta(a)))


class TestUniformUnion:
    def test_single_chain(self):
        d2, d1 = sx.delta(2), sx.delta(1)
        ch = tp.chain(d1, d2)
        assert tp.uniform_union([ch]) == tp.normalize(ch)

    def test_congruent_duplicates_collapse(self):
        t = sx.Eq(c(1), c(1))
        t2 = sx.Eq(c(5), c(7))  # congruent to t
        u = tp.uniform_union([tp.chain(t), tp.chain(t2)])
        assert len(u) == 1

    def test_absorbing(self):
        rng = random.Random(11)
        for _ in range(500):
            f = random_formula(rng, 3, max_const=5)
            f1 = random_subchain(rng, [f], 3)
            mid = random_subchain(rng, [f], 3)
            f2 = random_subchain(rng, [f], 3)
            union = tp.uniform_union([f1, mid, f2])
            x = boxed(f)
            assert tp.apply_chain(union, tp.apply_chain(mid, x)) == \
                tp.apply_chain(union, x)


class TestFullDepthApprox:
    def test_depth_zero_empty(self):
        assert len(tp.full_depth_approx([sx.Eq(sx.ZERO, sx.ZERO)], 0)) == 0

    def test_delta3_bound(self):
        ch = tp.full_depth_approx([sx.delta(3)], 2)
        assert len(ch) <= (2 ** 2 - 1) * 1

    def test_size_bound_random(self):
        rng = random.Random(13)
        for _ in range(200):
            formulas = [random_formula(rng, 3, max_const=5)
                        for _ in range(rng.randrange(1, 4))]
            for k in range(0, 5):
                ch = tp.full_depth_approx(formulas, k)
                assert len(ch) <= (2 ** k - 1) * len(formulas)

    def test_idempotence_over_bounded_chains(self):
        rng = random.Random(17)
        for _ in range(100):
            formulas = [random_formula(rng, 2, max_const=5) for _ in range(2)]
            k = rng.randrange(1, 4)
            full = tp.full_depth_approx(formulas, k)
            sub = random_subchain(rng, formulas, k)
            for f in formulas:
                x = boxed(f)
                assert tp.apply_chain(full, tp.apply_chain(sub, x)) == \
                    tp.apply_chain(full, x)


class TestCommutation:
    def test_negation_case(self):
        zero = sx.Eq(sx.ZERO, sx.ZERO)
        psi = sx.Not(zero)
        f = tp.normalize(tp.chain(psi, zero))
        rep = tp.structural_commute_check(f, psi)
        assert rep.connective == "not" and rep.holds

    def test_disjunction_case(self):
        d2 = sx.delta(2)
        f = tp.full_depth_approx([d2], 3)
        rep = tp.structural_commute_check(f, d2)
        assert rep.connective == "or" and rep.holds

    def test_exists_case(self):
        psi = sx.Ex(0, sx.Eq(v(0), sx.ZERO))
        f = tp.normalize(tp.chain(psi, sx.Eq(v(0), sx.ZERO)))
        rep = tp.structural_commute_check(f, psi)
        assert rep.connective == "exists" and rep.holds

    def test_missing_step_rejected(self):
        with pytest.raises(tp.PreconditionFailed):
            tp.structural_commute_check(tp.chain(), sx.Not(sx.Eq(sx.ZERO, sx.ZERO)))

    def test_substitution_commutes_with_chains(self):
        rng = random.Random(19)
        for _ in range(2000):
            gamma = random_formula(rng, 3, max_const=5, max_var=3)
            ch = tp.normalize(random_subchain(rng, [gamma], 3))
            a = std(rng.randrange(6))
            i = rng.randrange(3)
            x = boxed(gamma)
            lhs = tp.apply_chain(ch, tp.templ_substitute(x, a, i))
            rhs = tp.templ_substitute(tp.apply_chain(ch, x), a, i)
            assert lhs == rhs


class _RefMismatch(Exception):
    pass


def _ref_needed_classes(cur, goal, acc):
    # the classes of cur's boxes that goal opens; raises _RefMismatch
    # when no unfolding of cur can reach goal
    if isinstance(cur, sx.Sealed):
        if cur == goal:
            return
        if isinstance(goal, sx.Sealed):
            raise _RefMismatch
        acc.append(cur.obj)
        return
    if isinstance(goal, sx.Sealed) or type(cur) is not type(goal):
        raise _RefMismatch
    kids = cur.children
    if not kids:
        if cur != goal:
            raise _RefMismatch
        return
    if cur.extended:
        raise tp.TemplateError(f"non-primitive node {cur!r}")
    if cur.scope and cur.index != goal.index:
        raise _RefMismatch
    for a, b in zip(kids, goal.children):
        _ref_needed_classes(a, b, acc)


def _ref_size(x):
    if x.extended:
        raise tp.TemplateError(f"non-primitive node {x!r}")
    return 1 + sum(map(_ref_size, x.children))


def _ref_is_approximation(x, target):
    """The reference recogniser: from the sealed target, step on the first
    class in the normal order that x opens and the current object keeps
    sealed, until nothing is left to open. It does not read normalize's
    order of unrelated classes, so it also holds that order to account."""
    cur = boxed(target)
    for _ in range(4 * _ref_size(x) + 4):
        needed = []
        try:
            _ref_needed_classes(cur, x, needed)
        except _RefMismatch:
            return False
        if not needed:
            return cur == x
        cur = tp.f_step(min(needed, key=tp._sort_key), cur)
    return False


def _random_target(rng):
    """A primitive formula: a disjunction tower, an equation of term
    towers, an eps tower or a formula with towers over symbolic indices
    (each family at a symbolic index), or a plain formula."""
    roll = rng.random()
    if roll < 0.15:
        return sx.delta(sym("a", 1, rng.randrange(3)))
    if roll < 0.25:
        return sx.Eq(sx.numeral(sym("b")), sx.addtower(sym("c")))
    if roll < 0.3:
        return sx.epsilon(sym("d"), random_formula(rng, 1, max_const=2))
    if roll < 0.6:
        return tp.refold(random_templated(rng, 3))
    return random_formula(rng, 3, max_const=3)


def _boxes(x):
    return [y.obj for y in sx.subobjects(x) if isinstance(y, sx.Sealed)]


def _reshaped(rng, x):
    """x with one node changed alone: a box opened, or an unboxed node
    sealed again."""
    paths = [()]
    for path in paths:
        y = x
        for k in path:
            y = y.children[k]
        paths.extend(path + (k,) for k in range(len(y.children)))

    def at(y, path):
        if path:
            kids = list(y.children)
            kids[path[0]] = at(kids[path[0]], path[1:])
            return y.rebuild(*kids)
        return tp._unfold(y.obj) if isinstance(y, sx.Sealed) else boxed(tp.refold(y))

    return at(x, rng.choice(paths))


def _approximation_query(rng):
    """(x, target): x from the sealed target by a normal or an unordered
    chain of its subobjects, then steps on the classes of its boxes (which
    go down towers); at times reshaped at one node, and at times asked of
    another target."""
    target = _random_target(rng)
    f = random_subchain(rng, [target], 5)
    x = tp.apply_chain(tp.normalize(f) if rng.random() < 0.7 else f, boxed(target))
    for _ in range(rng.randrange(4)):
        if _boxes(x):
            x = tp.f_step(rng.choice(_boxes(x)), x)
    if rng.random() < 0.3:
        x = _reshaped(rng, x)
    if rng.random() < 0.15:
        target = _random_target(rng)
    return x, target


class TestApproximationMembership:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_stepping_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            x, target = _approximation_query(rng)
            assert tp.is_approximation(x, target) == _ref_is_approximation(x, target)

    def test_the_queries_reach_both_verdicts(self):
        rng = random.Random(7)
        verdicts = [tp.is_approximation(*_approximation_query(rng)) for _ in range(1000)]
        assert verdicts.count(True) >= 300 and verdicts.count(False) >= 150

    def test_zero_step(self):
        f = sx.delta(2)
        assert tp.is_approximation(boxed(f), f)

    def test_reachable(self):
        d2 = sx.delta(2)
        x = tp.apply_chain(tp.chain(d2, sx.delta(1)), boxed(d2))
        assert tp.is_approximation(x, d2)

    def test_partial_class_unreachable(self):
        # two boxes of one class cannot be opened separately
        f1, f2 = sx.Eq(c(1), c(1)), sx.Eq(c(2), c(2))
        whole = sx.Or(f1, f2)
        mixed = sx.Or(sx.Eq(tp.TemplTerm(c(1)), tp.TemplTerm(c(1))), tp.TemplForm(f2))
        assert not tp.is_approximation(mixed, whole)

    def test_refold_inverts_unfolding(self):
        rng = random.Random(23)
        for _ in range(300):
            f = random_formula(rng, 3, max_const=5)
            x = tp.apply_chain(random_subchain(rng, [f], 3), boxed(f))
            assert tp.refold(x) == f

    def test_apprx_member(self):
        a = sym("a")
        da = sx.delta(a)
        fam = lambda g: (isinstance(g, sx.SymFormulaRef) and g.family == "delta"
                         and g.index.base == "a")
        x = tp.apply_chain(tp.chain(da), boxed(da))
        assert tp.apprx_member(x, fam)
        assert not tp.apprx_member(boxed(sx.Eq(sx.ZERO, sx.ZERO)), fam)
