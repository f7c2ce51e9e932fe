"""Shared random generators and independent oracles for the test suite.

The evaluation oracle here works on the extended syntax tree directly
(bounded quantifiers given their intended finite-search semantics) and is
deliberately separate from the package's stratified evaluator.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import satkit.syntax as sx
import satkit.template as tp
from satkit.elements import Std, std, sym


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


def random_closed_formula(rng: random.Random, depth: int, max_const: int = 20):
    f = random_formula(rng, depth, max_const, max_var=3)
    # close any stray free variables by binding them
    for i in sorted(sx.free_vars(f)):
        f = sx.Ex(i, f)
    return f


def random_templated(rng: random.Random, depth: int, bases: str = "pq") -> sx.Obj:
    """A primitive formula with some constants made parametric (over the
    given bases), some lazy family leaves, and some parts sealed in
    template symbols."""

    def go(x, top):
        if not top and rng.random() < 0.1:
            return tp.templ(x)
        if isinstance(x, sx.Const) and rng.random() < 0.4:
            return sx.const(sym(rng.choice(bases), 1, rng.randrange(3)))
        if isinstance(x, sx.Zero) and rng.random() < 0.3:
            return sx.numeral(sym(rng.choice(bases)))
        if isinstance(x, sx.Eq) and rng.random() < 0.1:
            return sx.delta(sym(rng.choice(bases)))
        if isinstance(x, sx.Succ):
            return sx.Succ(go(x.arg, False))
        if isinstance(x, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
            return type(x)(go(x.left, False), go(x.right, False))
        if isinstance(x, sx.Not):
            return sx.Not(go(x.body, False))
        if isinstance(x, sx.Ex):
            return sx.Ex(x.index, go(x.body, False))
        return x

    return go(random_formula(rng, depth), True)


def reatom(rng: random.Random, x: sx.Obj) -> sx.Obj:
    """x with every constant and variable outside its boxes replaced by a
    random one: congruent to x, and mostly unequal to it. A fold draws
    once for a child that is the same object as its sibling, so
    ``Eq(0, 0)`` over the one ``ZERO`` gets one atom on both sides."""
    atoms = (sx.ZERO, sx.const(std(1)), sx.const(std(2)), sx.Var(0), sx.Var(3))
    return sx.fold(x, lambda y, kids: rng.choice(atoms)
                   if isinstance(y, (sx.Zero, sx.Const, sx.Var)) else y.rebuild(*kids))


# ---------------------------------------------------------------------------
# bounded sentences in the extended syntax, plus a direct evaluator


def random_bounded_sentence(rng: random.Random, depth: int = 3,
                            max_const: int = 50, max_bound: int = 20,
                            free: frozenset[int] = frozenset()) -> sx.Formula:
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
        return sx.Not(random_bounded_sentence(rng, depth - 1, max_const, max_bound, free))
    if pick < 0.6:
        return sx.Or(random_bounded_sentence(rng, depth - 1, max_const, max_bound, free),
                     random_bounded_sentence(rng, depth - 1, max_const, max_bound, free))
    i = max(free, default=-1) + 1
    bound = sx.const(std(rng.randrange(1, max_bound + 1)))
    body = random_bounded_sentence(rng, depth - 1, max_const, max_bound, free | {i})
    if pick < 0.8:
        return sx.BEx(i, bound, body)
    return sx.BAll(i, bound, body)


def direct_eval(f: sx.Formula, env: dict[int, int]) -> bool:
    """Independent truth over the standard model of the extended tree."""

    def term(t) -> int:
        if isinstance(t, sx.Zero):
            return 0
        if isinstance(t, sx.Const):
            assert isinstance(t.elem, Std)
            return t.elem.n
        if isinstance(t, sx.Var):
            return env[t.index]
        if isinstance(t, sx.Succ):
            return term(t.arg) + 1
        if isinstance(t, sx.Add):
            return term(t.left) + term(t.right)
        if isinstance(t, sx.Mul):
            return term(t.left) * term(t.right)
        raise AssertionError(t)

    if isinstance(f, sx.Eq):
        return term(f.left) == term(f.right)
    if isinstance(f, sx.Lt):
        return term(f.left) < term(f.right)
    if isinstance(f, sx.Not):
        return not direct_eval(f.body, env)
    if isinstance(f, sx.Or):
        return direct_eval(f.left, env) or direct_eval(f.right, env)
    if isinstance(f, sx.And):
        return direct_eval(f.left, env) and direct_eval(f.right, env)
    if isinstance(f, sx.Imp):
        return (not direct_eval(f.left, env)) or direct_eval(f.right, env)
    if isinstance(f, sx.BEx):
        b = term(f.bound)
        return any(direct_eval(f.body, {**env, f.index: z}) for z in range(b))
    if isinstance(f, sx.BAll):
        b = term(f.bound)
        return all(direct_eval(f.body, {**env, f.index: z}) for z in range(b))
    raise AssertionError(f)


# ---------------------------------------------------------------------------
# decidable sentences with uniform refutations, for diagram proving


def _affine_atom(rng: random.Random, var: int, make_true_at=None):
    """An atom in one variable, affine so its refutation is uniform."""
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


def random_decidable_sentence(rng: random.Random, want_true: bool,
                              qdepth: int = 2) -> sx.Formula:
    """A closed sentence of the stated truth whose negative quantifier
    cases refute uniformly (bound variables occur affinely, one per atom)."""

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
            var = quants  # fresh index per nesting level
            if truth:
                w = rng.randrange(0, 20)
                body = _affine_atom(rng, var, make_true_at=w)
                if rng.random() < 0.5:
                    body = sx.Or(body, build(rng.random() < 0.5, depth - 1, quants - 1))
                return sx.Ex(var, body)
            # false existential: atom with unreachable target
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


# ---------------------------------------------------------------------------
# a child process for the walks that must finish on deep towers


def assert_finishes(script: str, timeout: float = 30) -> None:
    """Run a Python script in a child process with this process's import
    path, stopped after timeout seconds (``subprocess.TimeoutExpired``).
    A walk that loses a tower's sharing takes 2^depth steps and never
    ends at depth 40, so it cannot hang the test run. The script must
    exit 0 having printed exactly "ok"."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=timeout, env=env)
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr
