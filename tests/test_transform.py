import satkit.syntax as sx
from satkit.corpus import commute_or_proof, neq_from_hypotheses
from satkit.elements import std
from satkit.kernel import M_POLICY, RulePolicy, check
from satkit.transform import (
    discharge_negation, double_neg_elim, double_neg_intro, move_hypotheses,
    or_join, or_split, transform,
)

e, n, o = sx.Eq, sx.Not, sx.Or
ZERO_EQ = e(sx.ZERO, sx.ZERO)
ONE_EQ = e(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))


def c(k):
    return sx.const(std(k))


class TestMoveHypotheses:
    def test_figure_proof_discharges_to_plain_logic(self):
        t = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        r = sx.Mul(c(2), c(3))
        h1, h2 = e(t, c(2)), e(r, c(6))
        p = neq_from_hypotheses(t, r, std(2), std(6))
        assert check(p, RulePolicy(extra_axioms={h1, h2}.__contains__)).ok
        moved = move_hypotheses(p, [h1, h2])
        assert moved.conclusion.sentences == {n(e(t, r)), n(h1), n(h2)}
        rep = check(moved, M_POLICY)  # no oracle needed any more
        assert rep.ok

    def test_round_trip_through_discharge(self):
        t = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        r = sx.Mul(c(2), c(3))
        h1, h2 = e(t, c(2)), e(r, c(6))
        p = neq_from_hypotheses(t, r, std(2), std(6))
        moved = move_hypotheses(p, [h1, h2])
        back = discharge_negation(discharge_negation(moved, h1), h2)
        assert back.conclusion.sentences == {n(e(t, r))}
        assert check(back, RulePolicy(extra_axioms={h1, h2}.__contains__)).ok


class TestOrSplit:
    def test_split_then_check(self):
        p = commute_or_proof(ZERO_EQ, ONE_EQ)
        (goal,) = p.conclusion.sentences
        split = or_split(p, goal)
        assert split.conclusion.sentences == {goal.left, goal.right}
        assert check(split, M_POLICY).ok

    def test_round_trip(self):
        p = commute_or_proof(ZERO_EQ, ONE_EQ)
        (goal,) = p.conclusion.sentences
        split = or_split(p, goal)
        joined = or_join(split, goal.left, goal.right)
        assert joined.conclusion.sentences == {goal}
        assert check(joined, M_POLICY).ok


class TestDoubleNegation:
    def test_round_trip(self):
        from satkit.kernel import Proof, seq
        p = Proof(seq(ZERO_EQ), "axiom3")
        up = double_neg_intro(p, ZERO_EQ)
        assert up.conclusion.sentences == {n(n(ZERO_EQ))}
        assert check(up, M_POLICY).ok
        down = double_neg_elim(up, ZERO_EQ)
        assert down.conclusion.sentences == {ZERO_EQ}
        assert check(down, M_POLICY).ok

    def test_dispatch_front_door(self):
        from satkit.kernel import Proof, seq
        p = Proof(seq(ZERO_EQ), "axiom3")
        up = transform("double_neg", p, phi=ZERO_EQ)
        down = transform("double_neg", up, phi=ZERO_EQ, direction="elim")
        assert down.conclusion.sentences == {ZERO_EQ}
        assert check(down, M_POLICY).ok


class TestWeakTo:
    def test_order_is_the_repr_order_for_every_count(self):
        # the repr key is computed only when two or more sentences are
        # added; the chain must still add them in repr order
        from satkit.kernel import Proof, seq
        from satkit.transform import weak_to
        base = Proof(seq(ZERO_EQ), "axiom3")
        extra = [e(c(k), c(k + 1)) for k in range(3)] + [n(ONE_EQ)]
        for count in range(4):
            for start in range(len(extra)):
                added = [extra[(start + j) % len(extra)] for j in range(count)]
                target = frozenset([ZERO_EQ, *added])
                p, got = weak_to(base, target), []
                while p is not base:
                    assert p.rule == "weak" and check(p, M_POLICY).ok
                    (f,) = p.conclusion.sentences - p.premises[0].conclusion.sentences
                    got.append(f)
                    p = p.premises[0]
                assert got[::-1] == sorted(added, key=repr)
