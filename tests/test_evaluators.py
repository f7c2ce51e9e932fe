"""Verdict goldens for the three Tarski evaluators.

Each group is one evaluator at one setting over a fixed list of inputs:
``eval_tr`` at a class and fuel, ``models`` at a gallery structure and
fuel, the soundness audits of the corpus, and eldiag's proof or
``NotUniform``. A group is pinned by the SHA-256 of its verdict lines
(an exception is recorded by its type name) and by the counts of True,
False, Unknown and errors. Run this file as a script to print the table
afresh.
"""

import hashlib
import random

import pytest

import satkit.sexpr as sexpr
import satkit.syntax as sx
import satkit.template as tp
from satkit.corpus import base_corpus
from satkit.eldiag import NotUniform, prove_eldiag
from satkit.elements import sym
from satkit.ground_model import eval_tr
from satkit.semantics import (
    audit_soundness, delta_structure, free_tower, ground_truth_structure, models,
    sc_tower, tr_sigma,
)
from satkit.translate import translate_proof
from generators import (
    random_bounded_sentence, random_closed_formula, random_decidable_sentence,
    random_templated,
)

A, H, B = sym("a"), sym("h"), sym("b")


def _decidable():
    rng = random.Random(1111)
    out = [random_decidable_sentence(rng, want_true=i < 40) for i in range(60)]
    rng = random.Random(808)
    out += [random_decidable_sentence(rng, want_true=rng.random() < 0.5, qdepth=3)
            for _ in range(30)]
    return out


def _ground_sentences():
    rng = random.Random(5)
    out = [sx.expand_abbreviation(random_bounded_sentence(rng)) for _ in range(40)]
    rng = random.Random(6)
    out += [random_closed_formula(rng, 3, 8) for _ in range(40)]
    return _decidable() + out


def _template_sentences():
    """Closed templated formulas, boxed sentences, the sc-tower
    existential and some ground sentences."""
    rng = random.Random(7)
    ground = _decidable()
    tower = sx.Ex(0, tp.TemplForm(sx.Eq(sx.SymTermRef("num", H), sx.Var(0))))
    out = []
    for k in range(60):
        r = k % 5
        if r == 0:
            f = random_templated(rng, 3)
            for i in sorted(sx.free_vars(f)):
                f = sx.Ex(i, f)
        elif r == 1:
            f = tp.TemplForm(random_closed_formula(rng, 2, 6))
        elif r == 2:
            f = tower if rng.random() < 0.5 else sx.Not(tower)
            if rng.random() < 0.5:
                f = sx.Or(f, tp.TemplForm(sx.Eq(sx.SymTermRef("num", H), sx.const(A))))
        elif r == 3:
            f = ground[rng.randrange(len(ground))]
        else:
            f = sx.Ex(0, sx.Eq(sx.Var(0), tp.TemplTerm(sx.numeral(sym("a", 1, -rng.randrange(3))))))
            if rng.random() < 0.5:
                f = sx.Not(sx.Ex(0, sx.Eq(sx.numeral(A), sx.Var(0))))
        out.append(f)
    # an abbreviation outside a box is an error, not a verdict
    return out + [sx.Ex(0, sx.Lt(sx.Var(0), sx.Var(0)))]


STRUCTURES = {
    "delta": lambda: delta_structure(A),
    "sc-tower": lambda: sc_tower("num", H, A),
    "tr-sigma": lambda: tr_sigma(1),
    "ground-truth": ground_truth_structure,
    "free-tower": lambda: free_tower(A, B),
}


def _eval_tr(cls, fuel):
    return [lambda f=f: eval_tr(f, cls, fuel) for f in _ground_sentences()]


def _models(name, fuel):
    s = STRUCTURES[name]()
    return [lambda f=f: models(s, f, fuel) for f in _template_sentences()]


def _audits():
    """Each corpus proof and its translation against each structure:
    verdict and applicability."""
    structures = [make() for make in STRUCTURES.values()]
    proofs = []
    for e in base_corpus():
        proofs.append(e.proof)
        if not e.policy.allow_prop:
            proofs.append(translate_proof(e.proof, e.policy).proof)

    def audit(p, s):
        r = audit_soundness(p, s, 8)
        return f"{r.verdict} {r.applicable}"
    return [lambda p=p, s=s: audit(p, s) for p in proofs for s in structures]


def _eldiag(fuel):
    def outcome(phi):
        try:
            p = prove_eldiag(phi, fuel)
        except NotUniform:
            return "Unknown"
        text = sexpr.print_proof(p)
        truth = "True" if p.conclusion.sentences == {phi} else "False"
        return f"{truth} {hashlib.sha256(text.encode()).hexdigest()[:16]}"
    return [lambda f=f: outcome(f) for f in _decidable()]


GROUPS = {
    **{f"eval_tr {cls} {fuel}": (_eval_tr, cls, fuel)
       for cls, fuel in (("d0", 0), ("s1", 0), ("s2", 3), ("s3", 40))},
    **{f"models {name} {fuel}": (_models, name, fuel)
       for name in STRUCTURES for fuel in (0, 4)},
    "audit": (_audits,),
    **{f"eldiag {fuel}": (_eldiag, fuel) for fuel in (200, 2)},
}


def run_group(name):
    make, *args = GROUPS[name]
    lines, counts = [], {"True": 0, "False": 0, "Unknown": 0, "error": 0}
    for thunk in make(*args):
        try:
            v = str(thunk())
        except Exception as e:
            v = "!" + type(e).__name__
        lines.append(v)
        key = "error" if v.startswith("!") else v.split()[0]
        counts[key] += 1
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, (counts["True"], counts["False"], counts["Unknown"], counts["error"])


# group -> (SHA-256 of the verdict lines, (True, False, Unknown, errors))
GOLDEN = {
    'eval_tr d0 0': ('56f93ce07ca2802cf31aafe23922fc5cc875fb87fd46eabc01e8de09dcd0da99', (22, 29, 0, 119)),
    'eval_tr s1 0': ('1256e45ed168d658d602c73964835147368f691b6959b6463bd6e8a71551270c', (35, 29, 32, 74)),
    'eval_tr s2 3': ('6d480d17b13a5bb04a693442d7497e8027bd041085f1edd76bd20d599ed37ec3', (36, 30, 31, 73)),
    'eval_tr s3 40': ('9ccb2756f70cee3222928ca56d934126c56c500aa70cd76b232c7d4de542cc27', (54, 30, 13, 73)),
    'models delta 0': ('3c92b917b8f564965c398d36cefe1310258be16cfae313fc6ac769c967a76dd1', (16, 36, 7, 2)),
    'models delta 4': ('c8257c9911631061a6037b1887833c2ad4da1755481d0a12e83c8286b4e1fe36', (17, 36, 6, 2)),
    'models sc-tower 0': ('525541939c5073a20f2ae4f05d74037c12f74c1ba7c53bcd4876a0a57bfa2090', (26, 27, 6, 2)),
    'models sc-tower 4': ('525541939c5073a20f2ae4f05d74037c12f74c1ba7c53bcd4876a0a57bfa2090', (26, 27, 6, 2)),
    'models tr-sigma 0': ('97de60d8329eced5ec59ee723aee93794d35d3a3fd0b1219360f014ae4a51c7f', (26, 25, 8, 2)),
    'models tr-sigma 4': ('672129c85a76fe506e01dd4b478fb1e781e1a80ffc82a34e75e6d8c766d7baf0', (27, 25, 7, 2)),
    'models ground-truth 0': ('97de60d8329eced5ec59ee723aee93794d35d3a3fd0b1219360f014ae4a51c7f', (26, 25, 8, 2)),
    'models ground-truth 4': ('672129c85a76fe506e01dd4b478fb1e781e1a80ffc82a34e75e6d8c766d7baf0', (27, 25, 7, 2)),
    'models free-tower 0': ('0acc80d38f07a455f78908d163ab2b7a643a932db85ef10cb7789fb23476a6cc', (18, 34, 7, 2)),
    'models free-tower 4': ('dd4cfc8e90c7d9f1b0b4eb6161d9e6de311d713ce4fe06731668896be31c91f5', (19, 34, 6, 2)),
    'audit': ('948263132ea190e80f9acb241fd06664ad515a51cff788e25a46b3b0ad35c65b', (325, 0, 5, 0)),
    'eldiag 200': ('4133445901bde810ffc40f6cd544d2fefd0c63d7b195198b404bf13bee910147', (54, 36, 0, 0)),
    'eldiag 2': ('d17232c20b5257178f277276c449a582414b51c78b4e152257650b8ee53de6f1', (35, 35, 20, 0)),
}


@pytest.mark.parametrize("name", list(GROUPS))
def test_verdicts_match_the_golden(name):
    assert run_group(name) == GOLDEN[name]


def test_each_evaluator_gives_all_three_truth_values():
    for evaluator in ("eval_tr", "models", "eldiag"):
        totals = [sum(c[k] for g, (_, c) in GOLDEN.items() if g.startswith(evaluator))
                  for k in range(3)]
        assert all(totals), (evaluator, totals)


if __name__ == "__main__":
    for name in GROUPS:
        print(f"    {name!r}: {run_group(name)!r},")
