"""The matchers of axioms 4-8 and of cut, held to the bodies they replaced.

The kernel's matchers read a sequent's equation and negated equations
field by field and build no sentence or set to compare. The old bodies,
kept here, built the sentence each shape asks for and compared whole
sets. A hypothesis property mutates the sequents of real eldiag nodes
into near misses and asks both for the same parts, as the same objects.
The matchers iterate sets, so this file runs under fixed hash seeds too.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.kernel as kernel
import satkit.syntax as sx
from satkit.eldiag import prove_eldiag
from satkit.kernel import FUNCTION_AXIOMS, Proof, Sequent, subst_param_proof
from generators import random_decidable_sentence


# ---------------------------------------------------------------------------
# the old bodies


def _closed_term(t) -> bool:
    return isinstance(t, sx.Term) and sx.is_closed(t)


def old_match_axiom4(s, params):
    for f in s:
        if isinstance(f, sx.Not) and isinstance(f.body, sx.Eq):
            t, r = f.body.left, f.body.right
            if not (_closed_term(t) and _closed_term(r)):
                continue
            if s == {f, sx.Eq(r, t)}:
                return {"t": t, "r": r}
    return None


def old_match_axiom5(s, params):
    negs = [f for f in s if isinstance(f, sx.Not) and isinstance(f.body, sx.Eq)]
    for f1 in negs:
        for f2 in negs:
            t, r = f1.body.left, f1.body.right
            r2, u = f2.body.left, f2.body.right
            if r2 != r:
                continue
            if not all(_closed_term(x) for x in (t, r, u)):
                continue
            if s == {f1, f2, sx.Eq(t, u)}:
                return {"t": t, "r": r, "s": u}
    return None


def old_match_compat(s, params, head):
    for f in s:
        if not (isinstance(f, sx.Eq) and isinstance(f.left, head) and isinstance(f.right, head)):
            continue
        pairs = tuple(zip(f.left.children, f.right.children))
        if (s == {f, *(sx.Not(sx.Eq(t, t2)) for t, t2 in pairs)}
                and all(_closed_term(t) and _closed_term(t2) for t, t2 in pairs)):
            return {"eq": f}
    return None


def old_match_cut(p):
    c = p.conclusion.sentences
    p0, p1 = (q.conclusion.sentences for q in p.premises)
    for f in p0 - c or p0:
        if p0 == c | {f} and p1 == c | {sx.Not(f)}:
            return f
    return None


def _same_parts(got, want) -> bool:
    """Both None, or dicts of the same keys whose values are one object."""
    if got is None or want is None:
        return got is want
    return got.keys() == want.keys() and all(got[k] is want[k] for k in want)


AXIOMS = [(kernel.match_axiom4, old_match_axiom4), (kernel.match_axiom5, old_match_axiom5)] + [
    (lambda s, params, h=head: kernel._match_compat(s, params, h),
     lambda s, params, h=head: old_match_compat(s, params, h)) for head in FUNCTION_AXIOMS]


# ---------------------------------------------------------------------------
# real eldiag nodes and their near misses


@pytest.fixture(scope="module")
def nodes():
    """The conclusions of the cut nodes and of the nodes of axioms 4-8 in
    seeded criterion-11 proofs and in their schemas' instances at a sample,
    where the parameter's constants are standard."""
    rng = random.Random(1111)
    tags = {"axiom4", "axiom5", *(tags[0] for tags in FUNCTION_AXIOMS.values())}
    axioms, cuts, pool = [], [], []
    for i in range(60):
        p = prove_eldiag(random_decidable_sentence(rng, want_true=i < 40))
        trees = [p] + [subst_param_proof(q.uniform.schema, q.uniform.params[0], q.uniform.sampled[-2][0])
                       for q in sx.subobjects(p) if q.rule == "m-rule"]
        for tree in trees:
            for q in sx.subobjects(tree):
                pool.extend(q.conclusion.sentences)
                if q.rule in tags:
                    axioms.append(q.conclusion.sentences)
                elif q.rule == "cut":
                    cuts.append(tuple(x.conclusion.sentences for x in (q, *q.premises)))
    assert len(axioms) > 100 and len(cuts) > 100
    return axioms, cuts, pool


def _copy(f):
    """An equal sentence that is another object, its inner nodes too."""
    return f.rebuild(*map(_copy, f.children)) if f.children else f


def _swap(f):
    if type(f) is sx.Eq:
        return sx.Eq(f.right, f.left)
    if type(f) is sx.Not and type(f.body) is sx.Eq:
        return sx.Not(_swap(f.body))
    return f


MUTATIONS = ("none", "add", "drop", "strip", "negate", "swap", "merge", "copy")


def near_miss(rng, s: frozenset, pool: list) -> frozenset:
    """s with one sentence added or dropped, a Not stripped or added, an
    equation's sides swapped, two sentences made equal or one replaced by
    an equal copy, or s as it is."""
    items = sorted(s, key=repr)
    kind = rng.choice(MUTATIONS)
    k = rng.randrange(len(items)) if items else 0
    if kind == "add" or not items:
        items.append(rng.choice(pool))
    elif kind == "drop":
        items.pop(k)
    elif kind == "strip" and type(items[k]) is sx.Not:
        items[k] = items[k].body
    elif kind == "negate":
        items[k] = sx.Not(items[k])
    elif kind == "swap":
        items[k] = _swap(items[k])
    elif kind == "merge":
        items[k] = _copy(rng.choice(items)) if rng.random() < 0.5 else rng.choice(items)
    elif kind == "copy":
        items[k] = _copy(items[k])
    return frozenset(items)


def _cut(c, p0, p1) -> Proof:
    return Proof(Sequent(c), "cut", (Proof(Sequent(p0), "axiom3"), Proof(Sequent(p1), "axiom3")))


# ---------------------------------------------------------------------------
# the properties


class TestMatchersAgreeWithTheOldBodies:
    def test_on_the_real_nodes(self, nodes):
        axioms, cuts, _ = nodes
        for s in axioms:
            wants = [old(s, frozenset()) for _, old in AXIOMS]
            assert any(want is not None for want in wants), s
            for (new, _), want in zip(AXIOMS, wants):
                assert _same_parts(new(s, frozenset()), want), s
        for c, p0, p1 in cuts:
            got = kernel._match_cut(_cut(c, p0, p1))
            assert got is not None and got is old_match_cut(_cut(c, p0, p1))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_on_near_misses(self, nodes, seed):
        rng = random.Random(seed)
        axioms, cuts, pool = nodes
        for _ in range(20):
            s = near_miss(rng, rng.choice(axioms), pool)
            for new, old in AXIOMS:
                assert _same_parts(new(s, frozenset()), old(s, frozenset())), s
            sets = list(rng.choice(cuts))
            k = rng.randrange(3)
            sets[k] = near_miss(rng, sets[k], pool)
            if rng.random() < 0.2:  # the pivot's negation in the context too
                sets[0] = sets[0] | sets[2]
            p = _cut(*sets)
            assert kernel._match_cut(p) is old_match_cut(p), sets

    def test_the_near_misses_reach_both_verdicts(self, nodes):
        rng = random.Random(29)
        axioms, cuts, pool = nodes
        seen = set()
        for _ in range(2000):
            s = near_miss(rng, rng.choice(axioms), pool)
            seen |= {(k, old(s, frozenset()) is None) for k, (_, old) in enumerate(AXIOMS)}
            sets = list(rng.choice(cuts))
            k = rng.randrange(3)
            sets[k] = near_miss(rng, sets[k], pool)
            seen.add(("cut", old_match_cut(_cut(*sets)) is None))
        assert seen == {(k, v) for k in [*range(len(AXIOMS)), "cut"] for v in (True, False)}
