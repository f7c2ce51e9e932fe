#!/usr/bin/env python3
"""Walk the pathology witnesses: towers that some truth predicates accept.

Shows the disjunction tower over 0 != 0 made true at a symbolic stage, the
successor and addition towers valued at an arbitrary symbolic target, the
free-valuation tower escaping the model, and the prime-target refutation
that blocks multiplication-bearing towers.
"""

from __future__ import annotations

import satkit.syntax as sx
import satkit.sexpr as sexpr
import satkit.template as tp
from satkit.eldiag import prove_eldiag
from satkit.elements import Sym, std, sym
from satkit.kernel import M_POLICY, check
from satkit.semantics import (
    BadWitnessParams, delta_structure, free_tower, models, sc_tower, val_t,
)


def show(title: str):
    print(f"\n== {title}")


def main() -> int:
    a = sym("a")

    show("disjunction tower: every approximation true at a symbolic stage")
    t = delta_structure(a)
    target = sx.delta(a)
    steps = [sx.delta(Sym("a", a.coeff, -k)) for k in range(9)]
    for k in range(0, 9, 2):
        chain = tp.ApproxChain(tuple(steps[:k]))
        image = tp.apply_to_object(chain, target)
        print(f"  depth {k}: {models(t, image, fuel=4)}  {sexpr.print_obj(image)[:70]}")

    show("successor tower valued at a symbolic target")
    h, b = sym("h"), sym("b")
    tower = sc_tower("num", h, b)
    root = sx.SymTermRef("num", h)
    for k in (0, 3, 7, 10):
        chain = tp.ApproxChain(tuple(
            sx.SymTermRef("num", Sym("h", h.coeff, -j)) for j in range(k)))
        value = val_t(tower, tp.apply_to_object(chain, root))
        print(f"  chain length {k}: value {value}")

    show("addition tower valued at a symbolic target")
    # each unfolding is Add(c, c) over one child, and the approximation
    # keeps that sharing: chain length 40 stands for a tree of 2^40 leaves
    tower = sc_tower("addtower", h, b)
    root = sx.SymTermRef("addtower", h)
    for k in (0, 8, 20, 40):
        chain = tp.ApproxChain(tuple(
            sx.SymTermRef("addtower", Sym("h", h.coeff, -j)) for j in range(k)))
        value = val_t(tower, tp.apply_to_object(chain, root))
        print(f"  chain length {k}: value {value}")

    show("free valuation: the numeral tower escapes the model")
    ft = free_tower(a, b)
    neg = sx.Not(sx.Ex(0, sx.Eq(sx.numeral(a), sx.Var(0))))
    base = [neg, neg.body, sx.Eq(sx.numeral(a), sx.Var(0)), sx.Var(0)]
    for k in (0, 3, 6):
        chain = tp.normalize(tp.ApproxChain(tuple(
            base + [sx.numeral(Sym("a", a.coeff, -j)) for j in range(k)])))
        image = tp.apply_to_object(chain, neg)
        print(f"  depth {k}: {models(ft, image, fuel=6)}")

    show("multiplication-bearing towers are refutable at prime targets")
    try:
        sc_tower("multower", h, b)
    except BadWitnessParams as e:
        print(f"  witness refused: {e}")
    desk = sx.Mul(sx.Succ(sx.Succ(sx.const(std(1)))), sx.Succ(sx.Succ(sx.ZERO)))
    refutation = prove_eldiag(sx.Eq(desk, sx.const(std(7))))
    report = check(refutation, M_POLICY)
    print(f"  checked refutation of 3*2 = 7: ok={report.ok} height={report.height}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
