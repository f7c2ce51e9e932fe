import random

import pytest

import satkit.syntax as sx
from satkit.elements import std, sym
from satkit.ground_model import (
    FALSE, TRUE, UNKNOWN, OpenTerm, WrongClass, check_class,
    eval_tr, is_delta0, is_sigma, match_bounded_exists, val, witness_candidates,
)
from generators import direct_eval, random_bounded_sentence, random_term


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
