from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit.elements import (
    Indeterminate, PartialOrderError, Sym, Underflow, add, affine_hits,
    elem_lt, half, mul, never_equal_under, parse_element, pred, std, subst_base, succ, sym,
)


class TestArithmetic:
    def test_succ_standard(self):
        assert succ(std(4)) == std(5)

    def test_symbolic_offset_walk(self):
        a = sym("a")
        x = a
        for _ in range(3):
            x = pred(x)
        assert x == Sym("a", Fraction(1), -3)

    def test_half_symbolic(self):
        assert half(sym("a")) == Sym("a", Fraction(1, 2), 0)

    def test_half_odd_offset_rejected(self):
        with pytest.raises(Indeterminate):
            half(Sym("a", Fraction(1), 3))

    def test_pred_underflow(self):
        with pytest.raises(Underflow):
            pred(std(0))

    def test_add_mixed(self):
        assert add(sym("a"), std(3)) == Sym("a", Fraction(1), 3)
        assert add(std(3), sym("a")) == Sym("a", Fraction(1), 3)

    def test_add_same_base(self):
        assert add(sym("a"), sym("a")) == Sym("a", Fraction(2), 0)

    def test_add_cross_base_indeterminate(self):
        with pytest.raises(Indeterminate):
            add(sym("a"), sym("b"))

    def test_mul_scalar(self):
        assert mul(std(3), Sym("a", Fraction(1), 2)) == Sym("a", Fraction(3), 6)
        assert mul(std(0), sym("a")) == std(0)

    def test_mul_sym_sym_indeterminate(self):
        with pytest.raises(Indeterminate):
            mul(sym("a"), sym("a"))

    def test_halving_cap(self):
        x = sym("a")
        for _ in range(64):
            x = half(x)
        with pytest.raises(Indeterminate):
            half(x)


class TestOrder:
    def test_standard_total(self):
        assert elem_lt(std(1), std(2))
        assert not elem_lt(std(2), std(2))

    def test_standard_below_symbolic(self):
        assert elem_lt(std(10 ** 9), sym("a"))
        assert not elem_lt(sym("a"), std(10 ** 9))

    def test_symbolic_same_base(self):
        assert elem_lt(Sym("a", Fraction(1), -1), sym("a"))
        assert elem_lt(Sym("a", Fraction(1, 2)), Sym("a", Fraction(1)))

    def test_cross_base_incomparable(self):
        with pytest.raises(PartialOrderError):
            elem_lt(sym("a"), sym("b"))

    def test_strict_partial_order_laws(self):
        pool = [std(0), std(5), sym("a"), Sym("a", Fraction(1), 3),
                Sym("a", Fraction(2)), Sym("b", Fraction(1), -2)]

        def lt(x, y):
            try:
                return elem_lt(x, y)
            except PartialOrderError:
                return False

        for x in pool:
            assert not lt(x, x)
            for y in pool:
                if lt(x, y):
                    assert not lt(y, x)
                for z in pool:
                    if lt(x, y) and lt(y, z):
                        assert lt(x, z)


def _fraction_subst_base(a, value):
    """``subst_base(a, "p", value)`` in Fraction arithmetic throughout."""
    if isinstance(value, Sym):
        off = a.coeff * value.offset + a.offset
        if off.denominator != 1:
            raise Indeterminate("fractional offset")
        return Sym(value.base, a.coeff * value.coeff, int(off))
    r = a.coeff * value.n + a.offset
    if r.denominator != 1 or r < 0:
        raise Indeterminate("not a natural")
    return std(int(r))


class TestInstantiation:
    def test_affine_evaluation(self):
        a = Sym("p", Fraction(1), 3)
        assert subst_base(a, "p", std(4)) == std(7)
        assert subst_base(a, "p", sym("b")) == Sym("b", Fraction(1), 3)

    def test_negative_instantiation_rejected(self):
        a = Sym("p", Fraction(1), -2)
        with pytest.raises(Indeterminate):
            subst_base(a, "p", std(1))
        assert subst_base(a, "p", std(5)) == std(3)

    @given(num=st.integers(1, 40), den_exp=st.sampled_from([0, 0, 1, 3]),
           offset=st.integers(-60, 60), n=st.integers(0, 40),
           vnum=st.integers(1, 9), vden_exp=st.integers(0, 2),
           voffset=st.integers(-20, 20), symbolic=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_arithmetic(
            self, num, den_exp, offset, n, vnum, vden_exp, voffset, symbolic):
        a = Sym("p", Fraction(num, 2 ** den_exp), offset)
        value = Sym("b", Fraction(vnum, 2 ** vden_exp), voffset) if symbolic else std(n)
        try:
            want = _fraction_subst_base(a, value)
        except Indeterminate:
            with pytest.raises(Indeterminate):
                subst_base(a, "p", value)
            return
        got = subst_base(a, "p", value)
        assert got == want and str(got) == str(want)
        if isinstance(got, Sym):
            assert isinstance(got.coeff, Fraction)

    def test_negative_result_matches_fraction_arithmetic(self):
        # an integral and a dyadic coefficient, each just below and at zero
        for a, low, high in [(Sym("p", Fraction(3), -7), 2, 3),
                             (Sym("p", Fraction(1, 2), -3), 4, 6)]:
            with pytest.raises(Indeterminate):
                subst_base(a, "p", std(low))
            with pytest.raises(Indeterminate):
                _fraction_subst_base(a, std(low))
            assert subst_base(a, "p", std(high)) == _fraction_subst_base(a, std(high))

    def test_affine_hits(self):
        a = Sym("p", Fraction(1), 1)  # p + 1
        assert affine_hits(a, "p", std(5))
        assert not affine_hits(a, "p", std(0))
        assert affine_hits(a, "p", Sym("b", Fraction(1), 7))

    def test_never_equal_under(self):
        assert never_equal_under(None, std(3), std(4))
        assert not never_equal_under(None, std(3), std(3))
        # p + 1 can never be 0, but can be 5
        assert never_equal_under("p", Sym("p", Fraction(1), 1), std(0))
        assert not never_equal_under("p", Sym("p", Fraction(1), 1), std(5))


class TestText:
    def test_print_forms(self):
        assert str(std(7)) == "7"
        assert str(sym("a")) == "ω[a]"
        assert str(Sym("a", Fraction(1, 2), -3)) == "ω[a]*1/2-3"

    def test_parse_round_trip(self):
        for e in (std(0), std(19), sym("a"), Sym("a", Fraction(3, 4), 2),
                  Sym("base9", Fraction(1), -7)):
            assert parse_element(str(e)) == e

    def test_parse_ascii_alias(self):
        assert parse_element("w[a]*1/2+3") == Sym("a", Fraction(1, 2), 3)
        assert parse_element("sym:a") == sym("a")
        assert parse_element("sym:h-4") == Sym("h", Fraction(1), -4)
