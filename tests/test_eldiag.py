import random

import pytest

import satkit.syntax as sx
from satkit.eldiag import EldiagError, FuelExhausted, prove_eldiag
from satkit.elements import std, sym
from satkit.kernel import M_POLICY, check
from generators import random_decidable_sentence

e, n = sx.Eq, sx.Not


def c(k):
    return sx.const(std(k))


def rules_used(p):
    out = {p.rule}
    for q in p.premises:
        out |= rules_used(q)
    if p.uniform is not None:
        out |= rules_used(p.uniform.schema)
    return out


class TestNamedExamples:
    def test_sum_goes_through_compat_ground_trans(self):
        phi = e(sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)), c(2))
        p = prove_eldiag(phi)
        assert p.conclusion.sentences == {phi}
        assert check(p, M_POLICY).ok
        assert {"axiom7", "axiom10", "axiom5"} <= rules_used(p)

    def test_false_constant_equality_uses_distinctness(self):
        phi = e(c(3), c(4))
        p = prove_eldiag(phi)
        assert p.conclusion.sentences == {n(phi)}
        assert check(p, M_POLICY).ok
        assert "axiom2" in rules_used(p)

    def test_true_existential_records_witness(self):
        phi = sx.Ex(0, e(sx.Add(sx.Var(0), c(2)), c(5)))
        p = prove_eldiag(phi)
        assert check(p, M_POLICY).ok
        assert p.rule == "ex-i" and p.info["witness"] == std(3)

    def test_false_existential_goes_uniform(self):
        phi = sx.Ex(0, e(sx.Succ(sx.Var(0)), sx.ZERO))
        p = prove_eldiag(phi)
        assert p.conclusion.sentences == {n(phi)}
        assert p.rule == "m-rule" and p.uniform is not None
        assert check(p, M_POLICY).ok

    def test_open_formula_rejected(self):
        with pytest.raises(EldiagError):
            prove_eldiag(e(sx.Var(0), sx.ZERO))

    def test_family_reference_has_no_ground_value(self):
        phi = e(sx.numeral(sym("a")), sx.ZERO)
        with pytest.raises(EldiagError, match="no ground value"):
            prove_eldiag(phi)

    def test_constants_in_the_body_guide_the_witness_search(self):
        phi = sx.Ex(0, e(sx.Var(0), c(150)))
        p = prove_eldiag(phi, fuel=10)
        assert p.info["witness"] == std(150)

    def test_fuel_exhaustion(self):
        # true, but the least witness is a square root the search never names
        phi = sx.Ex(0, e(sx.Mul(sx.Var(0), sx.Var(0)), c(144)))
        with pytest.raises(FuelExhausted):
            prove_eldiag(phi, fuel=5)


class TestRandomisedDiagram:
    def test_true_sentences_prove(self):
        rng = random.Random(101)
        for _ in range(200):
            phi = random_decidable_sentence(rng, want_true=True)
            p = prove_eldiag(phi)
            assert p.conclusion.sentences == {phi}
            assert check(p, M_POLICY).ok

    def test_false_sentences_refute(self):
        rng = random.Random(103)
        for _ in range(100):
            phi = random_decidable_sentence(rng, want_true=False)
            p = prove_eldiag(phi)
            assert p.conclusion.sentences == {sx.Not(phi)}
            assert check(p, M_POLICY).ok
