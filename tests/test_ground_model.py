import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.syntax as sx
from satkit.elements import std, sym
from satkit.ground_model import (
    FALSE, TRUE, UNKNOWN, OpenTerm, WrongClass, check_class,
    eval_tr, is_delta0, is_sigma, match_bounded_exists, val, witness_candidates,
)
from generators import (
    assert_finishes, direct_eval, random_bounded_sentence, random_formula, random_term,
)


def c(n):
    return sx.const(std(n))


class TestVal:
    def test_product(self):
        t = sx.Mul(sx.numeral(std(2)), sx.numeral(std(3)))
        assert val(t) == std(6)

    def test_constant_plus_one(self):
        assert val(sx.Add(c(7), sx.Succ(sx.ZERO))) == std(8)

    def test_numeral_loop(self):
        for k in range(0, 1001, 7):
            assert val(sx.numeral(std(k))) == std(k)
        assert val(sx.numeral(std(1000))) == std(1000)

    def test_open_term_rejected(self):
        with pytest.raises(OpenTerm):
            val(sx.Add(sx.Var(0), sx.ZERO))

    def test_homomorphism_clauses(self):
        rng = random.Random(2)
        for _ in range(1000):
            t = random_term(rng, 3, closed=True)
            r = random_term(rng, 2, closed=True)
            assert val(sx.Succ(t)) == std(val(t).n + 1)
            assert val(sx.Add(t, r)) == std(val(t).n + val(r).n)
            assert val(sx.Mul(t, r)) == std(val(t).n * val(r).n)


    def test_leaf_values_the_other_leaves(self):
        seen = []

        def leaf(t):
            seen.append(t)
            return std(4)

        t = sx.Succ(sx.Add(sx.Var(3), sx.Mul(c(2), sx.Var(5))))
        assert val(t, leaf) == std(4 + 2 * 4 + 1)
        assert seen == [sx.Var(3), sx.Var(5)]


class TestWitnessCandidates:
    def test_body_constants_in_pre_order_then_the_bound(self):
        body = sx.Or(sx.Eq(sx.Add(sx.Var(0), c(5)), c(3)),
                     sx.Eq(sx.Succ(c(5)), sx.Mul(sx.ZERO, c(2))))
        got = list(witness_candidates(body, 4))
        assert got == [std(5), std(3), std(0), std(2), std(1), std(4)]

    def test_each_candidate_once(self):
        body = sx.Eq(sx.Add(c(1), c(1)), sx.Var(0))
        assert list(witness_candidates(body, 2)) == [std(1), std(0), std(2)]
        assert list(witness_candidates(sx.Eq(sx.Var(0), sx.Var(0)), 0)) == [std(0)]


class TestClassChecker:
    def test_atomic(self):
        assert check_class(sx.Eq(c(1), c(1)), "at")
        assert not check_class(sx.Not(sx.Eq(c(1), c(1))), "at")

    def test_bounded_pattern_recognized(self):
        f = sx.expand_abbreviation(
            sx.BEx(0, c(10), sx.Eq(sx.Mul(sx.Var(0), sx.Var(0)), c(49))))
        m = match_bounded_exists(f)
        assert m is not None and m[0] == 0
        assert is_delta0(f)

    def test_bare_exists_is_not_delta0(self):
        f = sx.Ex(0, sx.Eq(sx.Var(0), c(3)))
        assert not is_delta0(f)
        assert is_sigma(f, 1)

    def test_wrong_class_raises(self):
        # an unbounded search, and family references: no sentence of the
        # ground model is in any class
        for f in (sx.Ex(0, sx.Eq(sx.Var(0), c(3))),
                  sx.Eq(sx.SymTermRef("num", sym("a")), sx.ZERO),
                  sx.Not(sx.SymFormulaRef("delta", sym("a")))):
            with pytest.raises(WrongClass):
                eval_tr(f, "d0")


# the isinstance ladder that recognised the expansion of "exists v_i < t",
# kept as the reference for the matcher that rebuilds it:
#   Ex(i, not(not(v_i < t) or not(body))) with the < expansion
#   Ex(j, not(v_j = 0 or not(v_i + v_j = t)))


def _ref_match_lt(f):
    if not (isinstance(f, sx.Ex) and isinstance(f.body, sx.Not)):
        return None
    j = f.index
    disj = f.body.body
    if not (isinstance(disj, sx.Or) and isinstance(disj.left, sx.Eq)):
        return None
    if disj.left != sx.Eq(sx.Var(j), sx.ZERO):
        return None
    if not (isinstance(disj.right, sx.Not) and isinstance(disj.right.body, sx.Eq)):
        return None
    eq = disj.right.body
    if not (isinstance(eq.left, sx.Add) and eq.left.right == sx.Var(j)):
        return None
    x, y = eq.left.left, eq.right
    if j in sx.free_vars(x) or j in sx.free_vars(y):
        return None
    return x, y


def _ref_match_bounded_exists(f):
    if not (isinstance(f, sx.Ex) and isinstance(f.body, sx.Not)):
        return None
    disj = f.body.body
    if not (isinstance(disj, sx.Or) and isinstance(disj.left, sx.Not)
            and isinstance(disj.right, sx.Not)):
        return None
    lt = _ref_match_lt(disj.left.body)
    if lt is None or lt[0] != sx.Var(f.index):
        return None
    bound = lt[1]
    if f.index in sx.free_vars(bound):
        return None
    return f.index, bound, disj.right.body


_MISSES = ("zero first", "add swapped", "wrong guard variable", "not for the guard",
           "not for the binder")


def _near_bex(rng):
    """exists v_i < t, body spelled out by hand: as syntax expands it, or
    with one part changed. j may equal i, and t may hold v_i or v_j."""
    i, j = rng.randrange(3), rng.randrange(3)
    t = random_term(rng, 2, max_var=3)
    body = random_formula(rng, 2, max_var=3)
    miss = rng.choice((None,) * 3 + _MISSES)
    vi, vj = sx.Var(i), sx.Var(j)
    zero = sx.Eq(sx.ZERO, vj) if miss == "zero first" else sx.Eq(vj, sx.ZERO)
    if miss == "add swapped":
        add = sx.Add(vj, vi)
    elif miss == "wrong guard variable":
        add = sx.Add(sx.Var(rng.choice([k for k in range(4) if k != i])), vj)
    else:
        add = sx.Add(vi, vj)
    lt = sx.Not(sx.Or(zero, sx.Not(sx.Eq(add, t))))
    guard = lt if miss == "not for the guard" else sx.Ex(j, lt)
    f = sx.Not(sx.Or(sx.Not(guard), sx.Not(body)))
    return f if miss == "not for the binder" else sx.Ex(i, f)


class TestBoundedExistsMatcher:
    """The matcher that rebuilds syntax's expansion, held to the ladder."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_reference(self, seed):
        rng = random.Random(seed)
        prim = sx.expand_abbreviation(random_bounded_sentence(rng, 3, max_bound=5))
        for f in [*sx.subobjects(prim), *(_near_bex(rng) for _ in range(40))]:
            assert match_bounded_exists(f) == _ref_match_bounded_exists(f), f

    def test_the_near_misses_reach_both_verdicts(self):
        rng = random.Random(7)
        seen = {True: 0, False: 0}
        for _ in range(2000):
            seen[_ref_match_bounded_exists(_near_bex(rng)) is not None] += 1
        assert min(seen.values()) >= 50, seen


class TestEvalTr:
    def test_atomic_truth(self):
        f = sx.Eq(sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)),
                  sx.Succ(sx.Succ(sx.ZERO)))
        assert eval_tr(f, "at") is TRUE

    def test_bounded_search_finds_witness(self):
        f = sx.expand_abbreviation(
            sx.BEx(0, c(10), sx.Eq(sx.Mul(sx.Var(0), sx.Var(0)), c(49))))
        assert eval_tr(f, "d0") is TRUE

    def test_fuel_exhaustion_is_unknown(self):
        f = sx.Ex(0, sx.Eq(sx.Mul(sx.Var(0), sx.Var(0)), c(50)))
        assert eval_tr(f, "s1", fuel=10) is UNKNOWN
        # direct knowledge: 50 is not a square, so no fuel suffices
        assert all(n * n != 50 for n in range(50))

    def test_delta0_never_unknown(self):
        rng = random.Random(4)
        for _ in range(300):
            ext = random_bounded_sentence(rng, 3, max_const=30, max_bound=10)
            prim = sx.expand_abbreviation(ext)
            assert eval_tr(prim, "d0", 0) != UNKNOWN

    def test_agrees_with_independent_oracle(self):
        rng = random.Random(6)
        for _ in range(1000):
            ext = random_bounded_sentence(rng, 3, max_const=50, max_bound=20)
            prim = sx.expand_abbreviation(ext)
            got = eval_tr(prim, "d0", 0)
            want = direct_eval(ext, {})
            assert got is (TRUE if want else FALSE)

    def test_towers_of_depth_40_finish(self):
        # the class check and the family scan visit a shared child once; a
        # walk that lost that sharing would take 2^40 steps
        assert_finishes("""if True:
            import satkit.syntax as sx
            from satkit.ground_model import FALSE, TRUE, eval_tr
            assert eval_tr(sx.delta(40), "d0") is FALSE
            assert eval_tr(sx.Eq(sx.addtower(40), sx.ZERO), "at") is TRUE
            print("ok")
        """)
