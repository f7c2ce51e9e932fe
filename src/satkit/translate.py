"""The recursive length bound and the proof translation into template logic.

Every finite-height proof in the ground calculus maps to a template-logic
proof of an approximation of its conclusion. The chain produced at each
node is the uniform union of the children's chains with the node's own
unfolding targets, and every child's translation is lifted through it.
Each rule contributes only its own targets (``_axiom_steps``,
``_OWN_STEPS``); one step does the rest. The recursive bound

    G(1) = 9,   G(n+1) = (n+2) * (2**G(n) - 1) + 2

dominates the chain length of a proof checked at height n-1. G(3) is
an exact bignum; beyond that only lazy comparison is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax as sx
from . import template as tp
from .kernel import (
    AXIOM_TAGS, FUNCTION_AXIOMS, CheckReport, Proof, RulePolicy, Sequent, check, match_axiom,
    match_rule,
)


class TranslateError(Exception):
    pass


class UncheckedInput(TranslateError):
    pass


class UnsupportedRule(TranslateError):
    pass


# ---------------------------------------------------------------------------
# the bound


_G_CACHE: dict[int, int] = {1: 9}
G_EXACT_LIMIT = 3  # beyond this the values do not fit in memory


def g_bound(n: int, force: bool = False) -> int:
    """Exact value of the recurrence; refuses n > 3 unless forced."""
    if n < 1:
        raise TranslateError("the bound starts at 1")
    if n > G_EXACT_LIMIT and not force:
        raise TranslateError(
            f"g_bound({n}) does not fit in memory; pass force to try anyway")
    top = max(_G_CACHE)
    while top < n:
        g = _G_CACHE[top]
        _G_CACHE[top + 1] = (top + 2) * (2 ** g - 1) + 2
        top += 1
    return _G_CACHE[n]


def g_bound_at_least(n: int, m: int) -> bool:
    """Decide m <= G(n) without materializing the tower."""
    if n < 1:
        raise TranslateError("the bound starts at 1")
    g = 9  # G(1)
    for k in range(1, n):
        if g >= m.bit_length():
            # G(k+1) >= 2**g - 1 >= m, and G is monotone from there on
            return True
        g = (k + 2) * (2 ** g - 1) + 2
    return m <= g


# ---------------------------------------------------------------------------
# per-axiom unfolding targets

_COMPAT_TAGS, _GROUND_TAGS = (frozenset(tags) for tags in zip(*FUNCTION_AXIOMS.values()))


def _axiom_steps(tag: str, parts: dict) -> list[sx.Obj]:
    """The unfolding targets of an axiom node, read from ``match_axiom``'s
    parts. A function symbol's axioms share one row each: a compatibility
    axiom unfolds its argument equations and their negations, then its
    equation h(t..) = h(t'..) and both sides; a ground-operation axiom
    unfolds its equation h(c..) = c', h(c..) and the first argument."""
    n = sx.Not
    e = sx.Eq
    if tag == "axiom1":
        return [n(parts["phi"])]
    if tag == "axiom2":
        ca, cb = sx.const(parts["a"]), sx.const(parts["b"])
        return [n(e(ca, cb)), e(ca, cb), ca]
    if tag == "axiom3":
        t = parts["t"]
        return [e(t, t)]
    if tag == "axiom4":
        t, r = parts["t"], parts["r"]
        return [n(e(t, r)), e(t, r), e(r, t)]
    if tag == "axiom5":
        t, r, s = parts["t"], parts["r"], parts["s"]
        return [n(e(t, r)), n(e(r, s)), e(t, r), e(r, s), e(t, s)]
    if tag == "axiom12":
        t = parts["t"]
        return [sx.Ex(0, e(t, sx.Var(0))), e(t, sx.Var(0)), sx.Var(0)]
    if tag in _COMPAT_TAGS:
        eq = parts["eq"]
        pairs = zip(eq.left.children, eq.right.children)
        return [g for t, t2 in pairs for g in (n(e(t, t2)), e(t, t2))] + [eq, eq.left, eq.right]
    if tag in _GROUND_TAGS:
        eq = parts["eq"]
        return [eq, eq.left, eq.left.children[0]]
    raise TranslateError(f"no unfolding recipe for {tag}")


# ---------------------------------------------------------------------------
# translation

# the unfolding targets an inference adds to its premises' chains, from
# the kernel's decomposition of the node: the introduced sentence d, the
# cut's pivot, or ex-i's (d, witness)
_OWN_STEPS = {
    "or-i1": lambda d: (d,),
    "or-i2": lambda d: (d,),
    "or-i3": lambda d: (d.body, d, sx.Not(d.body.left), sx.Not(d.body.right)),
    "neg-i": lambda d: (d.body, d),
    "cut": lambda pivot: (sx.Not(pivot),),
    "ex-i": lambda found: (found[0],),
}


@dataclass
class NodeTrace:
    rule: str
    chain_len: int
    child_lens: tuple[int, ...]
    premise_size: int = 0


@dataclass
class TranslationResult:
    chain: tp.ApproxChain
    proof: Proof
    height: int
    traces: list[NodeTrace] = field(default_factory=list)

    def bound_level(self) -> int:
        # the bound indexes proofs by strict height: level h+1 covers height h
        return self.height + 1


class _Translator:
    def __init__(self):
        self.traces: list[NodeTrace] = []
        # one memo per chain, from a template sentence to its image under
        # the chain; it lives as long as this translation
        self.images: dict[tp.ApproxChain, dict] = {}

    def under(self, f: tp.ApproxChain):
        """The map from a template sentence to its image under a chain,
        computed once per translation. Look it up once per use: a chain's
        hash runs over all its steps."""
        memo = self.images.setdefault(f, {})

        def image(x: tp.TObj) -> tp.TObj:
            y = memo.get(x)
            if y is None:
                y = memo[x] = tp.apply_chain(f, x)
            return y
        return image

    @staticmethod
    def lift(q: Proof, image) -> Proof:
        """Apply a chain's ``image`` map to every sequent of a template proof.

        One translation computes one image per chain and sentence, however
        many sequents hold the sentence. Approximating functions preserve
        template axioms and commute with every rule, so the image of a
        checked proof checks.
        """
        return sx.fold(q, lambda n, subs: n.rebuild(
            Sequent(frozenset(map(image, n.conclusion))), subs))

    @staticmethod
    def chain_image(image, sentences) -> frozenset:
        """The approximations of plain sentences under a chain's ``image``
        map."""
        return frozenset(image(tp.templ(g)) for g in sentences)

    def decomposition(self, p: Proof):
        """The kernel's decomposition of a checked node: an axiom's parts,
        or a rule's principal formula and its parts. No parameters are
        passed: they only filter axiom2, and fewer never fail a match."""
        if p.rule in AXIOM_TAGS:
            found = match_axiom(p.rule, p.conclusion.sentences, frozenset())
        else:
            found = match_rule(p)
        if found is None:
            raise UncheckedInput(f"cannot recover the {p.rule} decomposition")
        return found

    def run(self, p: Proof):
        """A checked proof's chain and template proof, or the first
        unsupported node in pre-order."""
        for q in sx.subobjects(p):
            if q.rule in ("prop", "i-ex-inf", "m-inf", "skolem", "pred"):
                raise UnsupportedRule(f"{q.rule} proofs have no template translation here")
            if not (q.rule in AXIOM_TAGS or q.rule in _OWN_STEPS or q.rule in ("weak", "m-rule")):
                raise UnsupportedRule(f"unknown rule {q.rule}")
        return sx.fold(p, self.step)

    def step(self, p: Proof, runs: list):
        """A node's chain and translation, from its children's in ``runs``."""
        tag = p.rule
        if tag == "axiomL":
            return self._conclude(p, tp.ApproxChain(()), ())
        if tag in AXIOM_TAGS:
            parts = self.decomposition(p)
            return self._conclude(p, tp.normalize(tp.chain(*_axiom_steps(tag, parts))), ())

        if tag == "weak":
            ((f0, q0),) = runs
            self.traces.append(NodeTrace(tag, len(f0), (len(f0),)))
            return f0, p.rebuild(
                Sequent(self.chain_image(self.under(f0), p.conclusion.sentences)), (q0,), {})

        if tag == "m-rule":
            d, _ = self.decomposition(p)
            ((f0, _),) = runs
            prem_sentences = list(p.uniform.schema.conclusion.sentences)
            f_uniform = tp.full_depth_approx(prem_sentences, max(len(f0), 1))
            f = tp.uniform_union([f_uniform, tp.chain(d.body, d)])
            return self._conclude(p, f, runs, premise_size=len(prem_sentences))

        found = self.decomposition(p)
        f = tp.uniform_union([f0 for f0, _ in runs] + [tp.chain(*_OWN_STEPS[tag](found))])
        info = {}
        if tag == "ex-i" and found[1] is not None:
            d, w = found
            # the substitution-commutation identity used by the rule image
            image = self.under(f)
            lhs = image(tp.templ(tp.templ_substitute(d.body, w, d.index)))
            rhs_base = image(tp.templ(d.body))
            if lhs != tp.templ_substitute(rhs_base, w, d.index):
                raise TranslateError("substitution does not commute with the chain")
            info = {"witness": w}
        return self._conclude(p, f, runs, info)

    def _conclude(self, p: Proof, f: tp.ApproxChain, runs, info=None, premise_size: int = 0):
        """The node's translation under its chain f: each child's
        translation (from ``runs``, in ``children`` order) lifted through
        f and checked to conclude the image of the child's sequent, then
        the node rebuilt over them, with no side data but ``info``, and
        traced."""
        image = self.under(f)
        lifted = []
        for child, (_, q) in zip(p.children, runs):
            q = self.lift(q, image)
            if q.conclusion.sentences != self.chain_image(image, child.conclusion.sentences):
                raise TranslateError("chain union failed to absorb a child chain; "
                                     "the canonical normal order should prevent this")
            lifted.append(q)
        self.traces.append(NodeTrace(
            p.rule, len(f), tuple(len(f0) for f0, _ in runs), premise_size))
        return f, p.rebuild(Sequent(self.chain_image(image, p.conclusion.sentences)),
                            lifted, info or {})


def translate_proof(p: Proof, policy: RulePolicy = RulePolicy()) -> TranslationResult:
    """Translate a checked finite-height proof into template logic.

    Returns the approximating chain F and a template proof of F applied to
    the conclusion's template symbols, with len(F) <= G(height + 1).
    """
    report: CheckReport = check(p, policy)
    if not report.ok:
        raise UncheckedInput(report.first_error() or "input proof does not check")
    tr = _Translator()
    f, q = tr.run(p)
    return TranslationResult(chain=f, proof=q, height=report.height, traces=tr.traces)
