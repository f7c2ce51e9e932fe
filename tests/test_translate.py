import pytest

import satkit.syntax as sx
import satkit.translate as tr
import satkit.template as tp
from satkit.corpus import base_corpus, commute_or_proof, mprop_entries
from satkit.elements import std
from satkit.kernel import (
    M_POLICY, Proof, TEMPLATE_POLICY, check, seq, template_policy_for,
)
from satkit.translate import (
    TranslateError, UncheckedInput, UnsupportedRule, g_bound,
    g_bound_at_least, translate_proof,
)

e, n = sx.Eq, sx.Not


def c(k):
    return sx.const(std(k))


class TestGBound:
    def test_base_value(self):
        assert g_bound(1) == 9

    def test_second_value(self):
        assert g_bound(2) == 3 * (2 ** 9 - 1) + 2 == 1535

    def test_third_value_pinned(self):
        got = g_bound(3)
        assert got == 4 * (2 ** 1535 - 1) + 2 == 2 ** 1537 - 2
        # regression pin: decimal length and both ends
        s = str(got)
        assert len(s) == 463
        assert s.startswith("4820624853842065")
        assert s.endswith("4009520678633470")

    def test_refuses_beyond_exact_limit(self):
        with pytest.raises(TranslateError):
            g_bound(4)

    def test_lazy_comparison(self):
        assert g_bound_at_least(1, 9)
        assert not g_bound_at_least(1, 10)
        assert g_bound_at_least(2, 1535)
        assert not g_bound_at_least(2, 1536)
        assert g_bound_at_least(4, 10 ** 400)
        assert g_bound_at_least(7, 2 ** 4000)


class TestAxiomTranslation:
    def test_reflexivity_axiom(self):
        t = sx.Succ(sx.ZERO)
        p = Proof(seq(e(t, t)), "axiom3")
        res = translate_proof(p, M_POLICY)
        assert len(res.chain) <= 9
        (concl,) = res.proof.conclusion.sentences
        assert concl == e(tp.TemplTerm(t), tp.TemplTerm(t))
        assert check(res.proof, TEMPLATE_POLICY).ok

    def test_every_axiom_within_nine(self):
        for entry in base_corpus():
            if entry.proof.rule.startswith("axiom") and entry.proof.rule != "axiomL":
                res = translate_proof(entry.proof, entry.policy)
                assert len(res.chain) <= 9, entry.name


class TestProofTranslation:
    def test_commutativity_tree(self):
        p = commute_or_proof(e(sx.ZERO, sx.ZERO), e(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)))
        res = translate_proof(p, M_POLICY)
        rep = check(res.proof, TEMPLATE_POLICY)
        assert rep.ok
        assert g_bound_at_least(res.bound_level(), len(res.chain))

    def test_exists_intro_commutation_en_route(self):
        inst = e(c(2), c(2))
        p = Proof(seq(sx.Ex(0, e(sx.Var(0), c(2)))), "ex-i",
                  (Proof(seq(inst), "axiom3"),), info={"witness": std(2)})
        res = translate_proof(p, M_POLICY)
        rep = check(res.proof, TEMPLATE_POLICY)
        assert rep.ok
        assert res.proof.rule == "ex-i"

    def test_whole_corpus_translates_and_checks(self):
        for entry in base_corpus():
            res = translate_proof(entry.proof, entry.policy)
            lam = entry.policy.extra_axioms
            pol = template_policy_for(lam) if lam else TEMPLATE_POLICY
            rep = check(res.proof, pol)
            assert rep.ok, (entry.name, rep.first_error())
            assert g_bound_at_least(res.bound_level(), len(res.chain)), entry.name

    def test_per_case_local_bounds(self):
        for entry in base_corpus():
            res = translate_proof(entry.proof, entry.policy)
            for trace in res.traces:
                k = trace.chain_len
                ch = trace.child_lens
                if trace.rule.startswith("axiom"):
                    assert k <= 9
                elif trace.rule == "weak":
                    assert k <= ch[0]
                elif trace.rule in ("or-i1", "or-i2", "ex-i"):
                    assert k <= ch[0] + 1
                elif trace.rule == "neg-i":
                    assert k <= ch[0] + 2
                elif trace.rule == "cut":
                    assert k <= ch[0] + ch[1] + 1
                elif trace.rule == "or-i3":
                    assert k <= ch[0] + ch[1] + 4
                elif trace.rule == "m-rule":
                    kk = max(ch[0], 1)
                    assert k <= (2 ** kk - 1) * trace.premise_size + 2

    def test_memoized_images_match_an_image_per_occurrence(self, monkeypatch):
        class PerOccurrence(tr._Translator):
            def image(self, f, x):
                return tp.apply_chain(f, x)

        made = []
        apply_chain = tp.apply_chain

        def counted(f, x):
            made.append((f, x))
            return apply_chain(f, x)

        translated = 0
        for entry in base_corpus() + mprop_entries():
            try:
                res = translate_proof(entry.proof, entry.policy)
            except (UnsupportedRule, UncheckedInput):
                continue
            translated += 1
            ref = PerOccurrence(entry.policy)
            f, q = ref.run(entry.proof)
            assert (res.chain, res.proof, res.traces) == (f, q, ref.traces), entry.name
            made.clear()
            with monkeypatch.context() as m:
                m.setattr(tp, "apply_chain", counted)
                translate_proof(entry.proof, entry.policy)
            assert len(made) == len(set(made)), entry.name
        assert translated == len(base_corpus())

    def test_unchecked_input_rejected(self):
        bad = Proof(seq(e(c(1), c(2))), "axiom3")
        with pytest.raises(UncheckedInput):
            translate_proof(bad, M_POLICY)

    def test_extension_rules_unsupported(self):
        from satkit.corpus import mprop_entries
        entry = mprop_entries()[0]
        with pytest.raises((UnsupportedRule, UncheckedInput)):
            translate_proof(entry.proof, entry.policy)

    def test_retranslate_after_hypothesis_move(self):
        from satkit.corpus import neq_from_hypotheses
        from satkit.transform import move_hypotheses
        t = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        r = sx.Mul(c(2), c(3))
        h1, h2 = e(t, c(2)), e(r, c(6))
        p = neq_from_hypotheses(t, r, std(2), std(6))
        moved = move_hypotheses(p, [h1, h2])
        res = translate_proof(moved, M_POLICY)
        rep = check(res.proof, TEMPLATE_POLICY)
        assert rep.ok
        want = {n(e(t, r)), n(h1), n(h2)}
        got = {tp.refold(f) for f in res.proof.conclusion.sentences}
        assert got == want
