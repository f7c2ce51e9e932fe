"""Seeded input generators.

The sentence and formula generators draw from the random stream in
exactly the order the acceptance criteria's generators do, so a run
seeded with a criterion's own seed sees that criterion's inputs: seed
1111 on ``diagram`` gives criterion 11's sentences and seed 1515 on
``codec`` gives criterion 15's formulas.  They are kept here rather than
imported from the test suite so that editing a test cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import random

import satkit.syntax as sx
from satkit.elements import std


def stream(seed: int, name: str) -> random.Random:
    """A random stream for ``name`` that shares nothing with the others."""
    return random.Random(f"{seed}/{name}")


def random_term(rng: random.Random, depth: int, max_const: int = 20,
                max_var: int = 3, closed: bool = False) -> sx.Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        pick = rng.random()
        if pick < 0.2:
            return sx.ZERO
        if pick < 0.7 or closed:
            return sx.const(std(rng.randrange(max_const + 1)))
        return sx.Var(rng.randrange(max_var))
    pick = rng.random()
    if pick < 0.4:
        return sx.Succ(random_term(rng, depth - 1, max_const, max_var, closed))
    if pick < 0.7:
        return sx.Add(random_term(rng, depth - 1, max_const, max_var, closed),
                      random_term(rng, depth - 1, max_const, max_var, closed))
    return sx.Mul(random_term(rng, depth - 1, max_const, max_var, closed),
                  random_term(rng, depth - 1, max_const, max_var, closed))


def random_formula(rng: random.Random, depth: int, max_const: int = 20,
                   max_var: int = 3, closed: bool = False) -> sx.Formula:
    if depth <= 0 or rng.random() < 0.3:
        return sx.Eq(random_term(rng, 1, max_const, max_var, closed),
                     random_term(rng, 1, max_const, max_var, closed))
    pick = rng.random()
    if pick < 0.35:
        return sx.Not(random_formula(rng, depth - 1, max_const, max_var, closed))
    if pick < 0.75:
        return sx.Or(random_formula(rng, depth - 1, max_const, max_var, closed),
                     random_formula(rng, depth - 1, max_const, max_var, closed))
    i = rng.randrange(max_var)
    return sx.Ex(i, random_formula(rng, depth - 1, max_const, max_var, closed))


def codec_formula(rng: random.Random) -> sx.Formula:
    """One formula drawn as criterion 15 draws it."""
    return random_formula(rng, rng.randrange(1, 5), max_const=40)


def codec_sequence(rng: random.Random) -> list[int]:
    """One list of 64-bit naturals drawn as the bulk round-trip test draws it."""
    return [rng.randrange(2 ** 64) for _ in range(rng.randrange(33))]


def _affine_atom(rng: random.Random, var: int, make_true_at=None) -> sx.Formula:
    k = rng.randrange(0, 30)
    shift = rng.randrange(0, 6)
    lhs: sx.Term = sx.Var(var)
    for _ in range(shift):
        lhs = sx.Succ(lhs)
    if rng.random() < 0.5:
        lhs = sx.Add(lhs, sx.const(std(k)))
        offset = shift + k
    else:
        offset = shift
    if make_true_at is not None:
        target = make_true_at + offset
    else:
        target = rng.randrange(0, 30)
        while target >= offset and rng.random() < 0.4:
            target = rng.randrange(0, 30)
    return sx.Eq(lhs, sx.const(std(target)))


def decidable_sentence(rng: random.Random, want_true: bool,
                       qdepth: int = 2) -> sx.Formula:
    """A closed sentence of the stated truth, drawn as criterion 11 draws it.

    Bound variables occur affinely, one per atom, so false existentials
    have uniform refutations; ``qdepth`` caps how deeply they nest.
    """

    def ground_atom(truth: bool) -> sx.Formula:
        n = rng.randrange(0, 50)
        m = n if truth else (n + 1 + rng.randrange(3)) % 60
        if truth and rng.random() < 0.5:
            a, b = rng.randrange(8), rng.randrange(8)
            return sx.Eq(sx.Mul(sx.const(std(a)), sx.const(std(b))),
                         sx.const(std(a * b)))
        return sx.Eq(sx.const(std(n)), sx.const(std(m)))

    def build(truth: bool, depth: int, quants: int) -> sx.Formula:
        if depth <= 0:
            return ground_atom(truth)
        pick = rng.random()
        if quants > 0 and pick < 0.45:
            var = quants
            if truth:
                w = rng.randrange(0, 20)
                body = _affine_atom(rng, var, make_true_at=w)
                if rng.random() < 0.5:
                    body = sx.Or(body, build(rng.random() < 0.5, depth - 1, quants - 1))
                return sx.Ex(var, body)
            shift = rng.randrange(1, 6)
            lhs: sx.Term = sx.Var(var)
            for _ in range(shift):
                lhs = sx.Succ(lhs)
            target = rng.randrange(0, shift)
            body = sx.Eq(lhs, sx.const(std(target)))
            if rng.random() < 0.4:
                body = sx.Or(body, build(False, depth - 1, quants - 1))
            return sx.Ex(var, body)
        if pick < 0.6:
            return sx.Not(build(not truth, depth - 1, quants))
        if truth:
            other = rng.random() < 0.5
            left = build(True, depth - 1, quants)
            right = build(other, depth - 1, quants)
            return sx.Or(left, right) if rng.random() < 0.5 else sx.Or(right, left)
        return sx.Or(build(False, depth - 1, quants), build(False, depth - 1, quants))

    return build(want_true, 3, qdepth)


def bounded_sentence(rng: random.Random, depth: int = 3, max_const: int = 50,
                     max_bound: int = 20, free: frozenset[int] = frozenset()) -> sx.Formula:
    """A sentence with bounded quantifiers, drawn as criterion 10 draws them."""
    if depth <= 0 or rng.random() < 0.35:
        def leaf_term(d):
            if d <= 0 or rng.random() < 0.5:
                if free and rng.random() < 0.5:
                    return sx.Var(rng.choice(sorted(free)))
                return sx.const(std(rng.randrange(max_const + 1)))
            if rng.random() < 0.5:
                return sx.Succ(leaf_term(d - 1))
            return sx.Add(leaf_term(d - 1), leaf_term(d - 1))
        return sx.Eq(leaf_term(2), leaf_term(2))
    pick = rng.random()
    if pick < 0.3:
        return sx.Not(bounded_sentence(rng, depth - 1, max_const, max_bound, free))
    if pick < 0.6:
        return sx.Or(bounded_sentence(rng, depth - 1, max_const, max_bound, free),
                     bounded_sentence(rng, depth - 1, max_const, max_bound, free))
    i = max(free, default=-1) + 1
    bound = sx.const(std(rng.randrange(1, max_bound + 1)))
    body = bounded_sentence(rng, depth - 1, max_const, max_bound, free | {i})
    if pick < 0.8:
        return sx.BEx(i, bound, body)
    return sx.BAll(i, bound, body)


def closed_term(rng: random.Random, depth: int, max_const: int = 4):
    """A closed term as nested tuples: "0", "cN", ("sc", t), ("+"|"*", t, r)."""
    if depth <= 0 or rng.random() < 0.4:
        n = rng.randrange(max_const + 1)
        return f"c{n}" if n else "0"
    op = rng.choice(("sc", "+", "*"))
    if op == "sc":
        return (op, closed_term(rng, depth - 1, max_const))
    return (op, closed_term(rng, depth - 1, max_const), closed_term(rng, depth - 1, max_const))
