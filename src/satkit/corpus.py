"""A curated corpus of checked proofs used across the test surfaces.

Includes transcriptions of the classic disjunction-commutativity tree and
the disequality-from-hypotheses tree, one instance of every axiom, small
rule combinations, generated diagram proofs, and a matching family of
template tautologies with bundled proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import syntax as sx
from . import template as tp
from .elements import Element, std
from .eldiag import prove_eldiag
from .kernel import Proof, RulePolicy, Sequent, seq
from .propcalc import derive_or_search
from .transform import axiom1, hypothesis, weak_to


@dataclass
class CorpusEntry:
    name: str
    proof: Proof
    policy: RulePolicy


def commute_or_proof(phi: sx.Formula, psi: sx.Formula) -> Proof:
    """The seven-sequent tree deriving (phi or psi) -> (psi or phi)."""
    n, o = sx.Not, sx.Or
    d = o(phi, psi)
    goal = o(n(d), o(psi, phi))
    l1 = Proof(seq(phi, n(phi)), "axiom1")
    l2 = Proof(seq(phi, psi, n(phi)), "weak", (l1,))
    l3 = Proof(seq(psi, n(psi)), "axiom1")
    l4 = Proof(seq(phi, psi, n(psi)), "weak", (l3,))
    l5 = Proof(seq(n(d), phi, psi), "or-i3", (l2, l4))
    l6 = Proof(seq(n(d), phi, o(psi, phi)), "or-i1", (l5,))
    l7 = Proof(seq(n(d), o(psi, phi)), "or-i2", (l6,))
    l8 = Proof(seq(goal, o(psi, phi)), "or-i1", (l7,))
    return Proof(seq(goal), "or-i2", (l8,))


def neq_from_hypotheses(t: sx.Term, r: sx.Term, a: Element, b: Element) -> Proof:
    """t != r from the hypotheses t = c_a and r = c_b with distinct a, b."""
    e, n = sx.Eq, sx.Not
    ca, cb = sx.const(a), sx.const(b)
    goal = n(e(t, r))

    ax5_top = Proof(seq(n(e(ca, r)), n(e(r, cb)), e(ca, cb)), "axiom5")
    n1 = weak_to(ax5_top, frozenset((goal, e(ca, cb), n(e(r, cb)), n(e(ca, r)))))

    h_t = hypothesis(e(t, ca))
    ax4 = Proof(seq(n(e(t, ca)), e(ca, t)), "axiom4")
    c0 = Proof(seq(e(ca, t)), "cut",
               (weak_to(h_t, frozenset((e(ca, t), e(t, ca)))), ax4))
    ax5_mid = Proof(seq(n(e(ca, t)), goal, e(ca, r)), "axiom5")
    c2 = Proof(seq(goal, e(ca, r)), "cut",
               (weak_to(c0, frozenset((goal, e(ca, r), e(ca, t)))), ax5_mid))
    c4 = weak_to(c2, frozenset((goal, e(ca, cb), n(e(r, cb)), e(ca, r))))
    c5 = Proof(seq(goal, e(ca, cb), n(e(r, cb))), "cut", (c4, n1))

    h_r = weak_to(hypothesis(e(r, cb)), frozenset((goal, e(ca, cb), e(r, cb))))
    c5b = weak_to(c5, frozenset((goal, e(ca, cb), n(e(r, cb)))))
    c6 = Proof(seq(goal, e(ca, cb)), "cut", (h_r, c5b))

    ax2 = weak_to(Proof(seq(n(e(ca, cb))), "axiom2"), frozenset((goal, n(e(ca, cb)))))
    return Proof(seq(goal), "cut", (c6, ax2))


def axiom_instances() -> list[CorpusEntry]:
    e, n = sx.Eq, sx.Not
    t = sx.Succ(sx.ZERO)
    r = sx.Add(sx.ZERO, sx.Succ(sx.ZERO))
    s = sx.Mul(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
    pol = RulePolicy()
    mk = lambda name, sq, tag: CorpusEntry(name, Proof(sq, tag), pol)
    phi = e(t, t)
    return [
        mk("axiom1", seq(phi, n(phi)), "axiom1"),
        mk("axiom2", seq(n(e(sx.const(std(3)), sx.const(std(4))))), "axiom2"),
        mk("axiom3", seq(e(t, t)), "axiom3"),
        mk("axiom4", seq(n(e(t, r)), e(r, t)), "axiom4"),
        mk("axiom5", seq(n(e(t, r)), n(e(r, s)), e(t, s)), "axiom5"),
        mk("axiom6", seq(n(e(t, r)), e(sx.Succ(t), sx.Succ(r))), "axiom6"),
        mk("axiom7", seq(n(e(t, t)), n(e(r, r)), e(sx.Add(t, r), sx.Add(t, r))), "axiom7"),
        mk("axiom8", seq(n(e(t, t)), n(e(r, r)), e(sx.Mul(t, r), sx.Mul(t, r))), "axiom8"),
        mk("axiom9", seq(e(sx.Succ(sx.const(std(4))), sx.const(std(5)))), "axiom9"),
        mk("axiom10", seq(e(sx.Add(sx.const(std(2)), sx.const(std(3))), sx.const(std(5)))), "axiom10"),
        mk("axiom11", seq(e(sx.Mul(sx.const(std(2)), sx.const(std(3))), sx.const(std(6)))), "axiom11"),
        mk("axiom12", seq(sx.Ex(0, e(t, sx.Var(0)))), "axiom12"),
    ]


def small_rule_entries() -> list[CorpusEntry]:
    e, n, o = sx.Eq, sx.Not, sx.Or
    pol = RulePolicy()
    out = []

    zero_eq = e(sx.ZERO, sx.ZERO)
    one_eq = e(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))

    ax = Proof(seq(zero_eq), "axiom3")
    out.append(CorpusEntry("weak-over-axiom",
                           Proof(seq(zero_eq, one_eq), "weak", (ax,)), pol))

    a1 = axiom1(zero_eq)
    j1 = Proof(seq(o(zero_eq, n(zero_eq))), "or-i2",
               (Proof(seq(o(zero_eq, n(zero_eq)), n(zero_eq)), "or-i1", (a1,)),))
    out.append(CorpusEntry("excluded-middle", j1, pol))

    d2 = sx.delta(2)
    a2 = axiom1(d2)
    j2 = Proof(seq(o(d2, n(d2))), "or-i2",
               (Proof(seq(o(d2, n(d2)), n(d2)), "or-i1", (a2,)),))
    out.append(CorpusEntry("excluded-middle-delta2", j2, pol))

    inst = e(sx.const(std(3)), sx.const(std(3)))
    exi = Proof(seq(sx.Ex(0, e(sx.Var(0), sx.const(std(3))))), "ex-i",
                (Proof(seq(e(sx.const(std(3)), sx.const(std(3)))), "axiom3"),),
                info={"witness": std(3)})
    out.append(CorpusEntry("exists-intro", exi, pol))

    both_neg = Proof(
        seq(n(o(n(zero_eq), n(one_eq)))), "or-i3",
        (Proof(seq(n(n(zero_eq))), "neg-i", (Proof(seq(zero_eq), "axiom3"),)),
         Proof(seq(n(n(one_eq))), "neg-i", (Proof(seq(one_eq), "axiom3"),))))
    out.append(CorpusEntry("conjunction-of-truths", both_neg, pol))

    cut_entry = Proof(
        seq(one_eq), "cut",
        (Proof(seq(one_eq, zero_eq), "weak", (Proof(seq(one_eq), "axiom3"),)),
         Proof(seq(one_eq, n(zero_eq)), "weak",
               (Proof(seq(one_eq), "axiom3"),))))
    out.append(CorpusEntry("cut-over-weakenings", cut_entry, pol))
    return out


def eldiag_entries() -> list[CorpusEntry]:
    e = sx.Eq
    pol = RulePolicy()
    sentences = [
        e(sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)), sx.const(std(2))),
        e(sx.const(std(3)), sx.const(std(4))),
        e(sx.Mul(sx.const(std(2)), sx.const(std(3))), sx.const(std(6))),
        sx.Or(e(sx.ZERO, sx.ZERO), e(sx.ZERO, sx.Succ(sx.ZERO))),
        sx.Ex(0, e(sx.Var(0), sx.const(std(7)))),
        sx.Not(sx.Ex(0, e(sx.Succ(sx.Var(0)), sx.ZERO))),
        sx.Ex(0, e(sx.Add(sx.Var(0), sx.const(std(2))), sx.const(std(5)))),
        sx.Not(e(sx.Succ(sx.ZERO), sx.ZERO)),
    ]
    out = []
    for i, phi in enumerate(sentences):
        out.append(CorpusEntry(f"diagram-{i}", prove_eldiag(phi), pol))
    return out


def figure_entries() -> list[CorpusEntry]:
    e = sx.Eq
    zero_eq = e(sx.ZERO, sx.ZERO)
    one_eq = e(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
    two = e(sx.const(std(2)), sx.const(std(2)))
    out = [
        CorpusEntry("or-commutes", commute_or_proof(zero_eq, one_eq), RulePolicy()),
        CorpusEntry("or-commutes-2", commute_or_proof(one_eq, two), RulePolicy()),
        CorpusEntry("or-commutes-3", commute_or_proof(zero_eq, sx.Not(two)), RulePolicy()),
    ]
    t = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
    r = sx.Mul(sx.Succ(sx.Succ(sx.ZERO)), sx.Succ(sx.Succ(sx.ZERO)))
    a, b = std(2), std(4)
    hyps = {sx.Eq(t, sx.const(a)), sx.Eq(r, sx.const(b))}
    pol = RulePolicy(extra_axioms=hyps.__contains__)
    out.append(CorpusEntry("neq-from-hypotheses",
                           neq_from_hypotheses(t, r, a, b), pol))
    return out


def m_rule_entries() -> list[CorpusEntry]:
    e = sx.Eq
    pol = RulePolicy()
    inner = sx.Ex(1, e(sx.Succ(sx.Var(1)), sx.ZERO))
    refutations = [
        sx.Not(sx.Ex(0, e(sx.Succ(sx.Var(0)), sx.ZERO))),
        sx.Not(sx.Ex(0, e(sx.Add(sx.Var(0), sx.const(std(5))), sx.const(std(2))))),
        # one uniform schema inside another
        sx.Not(sx.Ex(0, sx.Or(e(sx.Succ(sx.Var(0)), sx.ZERO), inner))),
    ]
    return [CorpusEntry(f"uniform-refutation-{i}", prove_eldiag(phi), pol)
            for i, phi in enumerate(refutations)]


def base_corpus() -> list[CorpusEntry]:
    entries = []
    entries.extend(figure_entries())
    entries.extend(axiom_instances())
    entries.extend(small_rule_entries())
    entries.extend(eldiag_entries())
    entries.extend(m_rule_entries())
    return entries


# ---------------------------------------------------------------------------
# template tautologies with bundled proofs


@dataclass
class TemplateTautology:
    name: str
    formula: object  # closed template sentence
    proof: Proof
    atoms: tuple  # template formula leaves to enumerate over


def _excluded_middle_template(gamma) -> Proof:
    n, o = sx.Not, sx.Or
    a1 = Proof(Sequent(frozenset((gamma, n(gamma)))), "axiom1")
    up = Proof(Sequent(frozenset((o(gamma, n(gamma)), n(gamma)))), "or-i1", (a1,))
    return Proof(Sequent(frozenset((o(gamma, n(gamma)),))), "or-i2", (up,))


def template_tautology_corpus(count: int = 100) -> list[TemplateTautology]:
    """Tautologies over boxed sentences, each with a bundled checked proof."""
    out: list[TemplateTautology] = []
    e = sx.Eq
    seeds: list[sx.Formula] = []
    for k in range(count):
        base: sx.Formula = e(sx.numeral(std(k % 5)), sx.numeral(std(k % 7)))
        if k % 3 == 1:
            base = sx.Not(base)
        if k % 4 == 2:
            base = sx.Or(base, e(sx.ZERO, sx.numeral(std(k % 3))))
        seeds.append(base)
    for k, phi in enumerate(seeds):
        boxed = tp.TemplForm(phi)
        gamma = boxed if k % 2 == 0 else sx.Or(boxed, e(sx.ZERO, sx.ZERO))
        out.append(TemplateTautology(
            name=f"template-lem-{k}",
            formula=sx.Or(gamma, sx.Not(gamma)),
            proof=_excluded_middle_template(gamma),
            atoms=(phi,),
        ))
    return out


# ---------------------------------------------------------------------------
# a small calculus-with-certificates corpus


def mprop_entries() -> list[CorpusEntry]:
    e = sx.Eq
    zero_eq = e(sx.ZERO, sx.ZERO)
    pol = RulePolicy(allow_prop=True)
    out = []

    ax = Proof(seq(zero_eq), "axiom3")
    doubled = sx.Or(zero_eq, zero_eq)
    cert_up = derive_or_search(doubled, [zero_eq])
    up = Proof(seq(doubled), "prop", (ax,), info={"prop": {"cert": cert_up}})
    cert_down = derive_or_search(zero_eq, [doubled])
    down = Proof(seq(zero_eq), "prop", (up,), info={"prop": {"cert": cert_down}})
    out.append(CorpusEntry("prop-height-2", down, pol))

    phi = e(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
    lem = derive_or_search(sx.Or(phi, sx.Not(phi)), [])
    node = Proof(seq(sx.Or(phi, sx.Not(phi))), "prop", (), info={"prop": {"cert": lem}})
    out.append(CorpusEntry("prop-lem", node, pol))

    exists = sx.Ex(0, e(sx.Var(0), sx.const(std(2))))
    inst = e(sx.const(std(2)), sx.const(std(2)))
    exi = Proof(seq(exists), "ex-i",
                (Proof(seq(inst), "axiom3"),), info={"witness": std(2)})
    joined = Proof(seq(sx.Or(exists, zero_eq)), "prop", (exi,),
                   info={"prop": {"cert": derive_or_search(
                       sx.Or(exists, zero_eq), [exists])}})
    out.append(CorpusEntry("prop-over-exists", joined, pol))
    return out
