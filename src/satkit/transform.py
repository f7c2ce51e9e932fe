"""Derived proof transformations: the hypothesis/negation equivalences.

Each transformation rewrites a checked proof into a checked proof of the
equivalent form: hypotheses move into the sequent as negated disjuncts,
a disjunction splits into its parts, and double negations round-trip.
"""

from __future__ import annotations

from . import syntax as sx
from .kernel import Proof, Sequent, match_rule, vee


class NotApplicable(Exception):
    pass


def axiom1(phi: sx.Formula) -> Proof:
    return Proof(Sequent.of(phi, sx.Not(phi)), "axiom1")


def hypothesis(phi: sx.Formula) -> Proof:
    return Proof(Sequent.of(phi), "axiomL")


def weak_to(p: Proof, target: frozenset) -> Proof:
    """Chain of single weakenings from p's conclusion up to target."""
    have = p.conclusion.sentences
    if not have <= target:
        raise NotApplicable("weakening cannot drop sentences")
    added = target - have
    # repr keys only order two or more sentences; one needs no key
    for f in sorted(added, key=repr) if len(added) > 1 else added:
        have = have | {f}
        p = Proof(Sequent(have), "weak", (p,))
    return p


def move_hypotheses(p: Proof, hyps: list[sx.Formula]) -> Proof:
    """From a proof of Gamma using the hypotheses, a proof of Gamma plus
    their negations that no longer cites them: not(phi) joins every
    sequent, leaves citing phi become instances of the excluded-middle
    axiom, other leaves are re-weakened."""
    for phi in hyps:
        nphi = sx.Not(phi)

        def add_negation(q: Proof, subs: list) -> Proof:
            if q.rule == "axiomL" and q.conclusion.sentences == frozenset((phi,)):
                return Proof(Sequent(frozenset((phi, nphi))), "axiom1")
            if not subs and nphi in q.conclusion.sentences:
                return q
            new_concl = Sequent(q.conclusion.sentences | {nphi})
            return q.rebuild(new_concl, subs) if subs else Proof(new_concl, "weak", (q,))

        p = sx.fold(p, add_negation)
    return p


def discharge_negation(p: Proof, phi: sx.Formula) -> Proof:
    """From a proof of Gamma, not(phi), a proof of Gamma citing phi."""
    nphi = sx.Not(phi)
    if nphi not in p.conclusion.sentences:
        raise NotApplicable("the negated sentence is not in the conclusion")
    gamma = p.conclusion.sentences - {nphi}
    left = weak_to(hypothesis(phi), gamma | {phi})
    return Proof(Sequent(gamma), "cut", (left, p))


def or_split(p: Proof, disjunction: sx.Or) -> Proof:
    """From Gamma, f or g to Gamma, f, g."""
    if disjunction not in p.conclusion.sentences:
        raise NotApplicable("conclusion lacks the disjunction")
    f, g = disjunction.left, disjunction.right
    gamma = (p.conclusion.sentences - {disjunction}) | {f, g}
    up = weak_to(p, gamma | {disjunction})
    nleft = weak_to(axiom1(f), gamma | {sx.Not(f)})
    nright = weak_to(axiom1(g), gamma | {sx.Not(g)})
    refuted = Proof(Sequent(gamma | {sx.Not(disjunction)}), "or-i3", (nleft, nright))
    return Proof(Sequent(gamma), "cut", (up, refuted))


def or_join(p: Proof, f: sx.Formula, g: sx.Formula) -> Proof:
    """From Gamma, f, g to Gamma, f or g."""
    c = p.conclusion.sentences
    if f not in c or g not in c:
        raise NotApplicable("conclusion lacks both disjuncts")
    d = sx.Or(f, g)
    mid = Proof(Sequent((c - {f}) | {d}), "or-i1", (p,))
    return Proof(Sequent((c - {f, g}) | {d}), "or-i2", (mid,))


def double_neg_intro(p: Proof, phi: sx.Formula) -> Proof:
    """From Gamma, phi to Gamma, not not phi."""
    c = p.conclusion.sentences
    if phi not in c:
        raise NotApplicable("conclusion lacks the sentence")
    return Proof(Sequent((c - {phi}) | {sx.Not(sx.Not(phi))}), "neg-i", (p,))


def double_neg_elim(p: Proof, phi: sx.Formula) -> Proof:
    """From Gamma, not not phi to Gamma, phi."""
    nn = sx.Not(sx.Not(phi))
    c = p.conclusion.sentences
    if nn not in c:
        raise NotApplicable("conclusion lacks the double negation")
    gamma = (c - {nn}) | {phi}
    up = weak_to(p, gamma | {nn})
    ax = weak_to(axiom1(phi), gamma | {sx.Not(phi)})
    return Proof(Sequent(gamma), "cut", (ax, up))


def to_certified_calculus(p: Proof) -> Proof:
    """Replace every structural rule by one certified step.

    Weakening, the disjunction rules, double negation and cut are all
    derivable from the single certificate rule; the compilation is
    deterministic, no proof search is involved. Quantifier rules persist.
    """
    from .propcalc import cut_cert, split_negation_cert, weakening_cert
    structural = {"weak", "or-i1", "or-i2", "or-i3", "neg-i", "cut"}

    def step(p: Proof, subs: list) -> Proof:
        if p.rule not in structural:
            return p.rebuild(p.conclusion, subs)
        goal = vee(p.conclusion.sentences)
        hyps = [vee(q.conclusion.sentences) for q in p.premises]
        if p.rule in ("weak", "or-i1", "or-i2", "neg-i"):
            cert = weakening_cert(hyps[0], goal)
        else:  # cut or or-i3: the kernel's pivot or negated disjunction
            found = match_rule(p)
            if found is None:
                raise NotApplicable(f"the {p.rule} premises do not match its conclusion")
            if p.rule == "cut":
                cert = cut_cert(hyps[0], hyps[1], found, goal)
            else:
                cert = split_negation_cert(hyps[0], hyps[1],
                                           found.body.left, found.body.right, goal)
        # a structural rule has premises only, so subs are its premises
        return Proof(p.conclusion, "prop", tuple(subs), None, {"prop": {"cert": cert}})

    return sx.fold(p, step)


def transform(kind: str, p: Proof, **args) -> Proof:
    if kind == "move_hypotheses":
        return move_hypotheses(p, args["hyps"])
    if kind == "or_split":
        if "disjunction" in args:
            return or_split(p, args["disjunction"])
        return or_join(p, args["f"], args["g"])
    if kind == "double_neg":
        if args.get("direction", "intro") == "intro":
            return double_neg_intro(p, args["phi"])
        return double_neg_elim(p, args["phi"])
    raise NotApplicable(f"unknown transformation {kind!r}")
