import re

import pytest

import satkit.sexpr as sexpr
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


def _trace_text(t):
    """rule:chain_len, then <child lengths and #premise size when present."""
    s = f"{t.rule}:{t.chain_len}"
    if t.child_lens:
        s += "<" + ",".join(map(str, t.child_lens))
    if t.premise_size:
        s += f"#{t.premise_size}"
    return s


def _parameter_renaming(old, new):
    """The map on omega-bracket q<n> names under which each field of old
    reads as the same field of new, or None when no one map does."""
    renaming = {}
    for a, b in zip(old, new, strict=True):
        pa, pb = _PARAM.split(str(a)), _PARAM.split(str(b))
        if len(pa) != len(pb):
            return None
        for i, (x, y) in enumerate(zip(pa, pb)):
            if i % 2 == 0 and x != y:
                return None
            if i % 2 == 1 and renaming.setdefault(x, y) != y:
                return None
    return renaming


_PARAM = re.compile(r"(?<=ω\[)(q\d+)(?=\])")


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
            def under(self, f):
                return lambda x: tp.apply_chain(f, x)

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
            ref = PerOccurrence()
            f, q = ref.run(entry.proof)
            assert (res.chain, res.proof, res.traces) == (f, q, ref.traces), entry.name
            made.clear()
            with monkeypatch.context() as m:
                m.setattr(tp, "apply_chain", counted)
                translate_proof(entry.proof, entry.policy)
            assert len(made) == len(set(made)), entry.name
        assert translated == len(base_corpus())

    def test_translations_match_the_recorded_ones(self):
        # chain length, the per-node traces and the printed chain of every
        # corpus entry, so each node keeps the decomposition it had
        got = {}
        for entry in base_corpus():
            res = translate_proof(entry.proof, entry.policy)
            traces = " ".join(map(_trace_text, res.traces))
            got[entry.name] = (len(res.chain), traces, sexpr.print_chain(res.chain))
        assert got == GOLDEN_TRANSLATIONS

    def test_rerecorded_translations_only_rename_parameters(self):
        # one bijection on q<n> names carries every field of an earlier
        # literal onto the current one
        for name, old in EARLIER_TRANSLATIONS.items():
            new = GOLDEN_TRANSLATIONS[name]
            assert old != new, name
            renaming = _parameter_renaming(old, new)
            assert renaming is not None, name
            assert len(set(renaming.values())) == len(renaming), name

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


# recorded before the kernel's rule matcher replaced translation's own;
# identical under string-hash seeds 0, 1 and 2. The EARLIER_TRANSLATIONS
# entries were re-recorded when eldiag numbered its proof parameters apart
# from its witness search, and differ from the earlier ones by a renaming.
GOLDEN_TRANSLATIONS = {
    'or-commutes': (
        6,
        'axiom1:1 weak:1<1 axiom1:1 weak:1<1 or-i3:4<1,1 or-i1:5<4 or-i2:5<5 or-i1:6<5'
        ' or-i2:6<6',
        '(chain (or (not (or (= 0 0) (= (sc 0) (sc 0)))) (or (= (sc 0) (sc 0)) (= 0 0)))'
        ' (not (or (= 0 0) (= (sc 0) (sc 0)))) (not (= (sc 0) (sc 0))) (or (= (sc 0) (sc'
        ' 0)) (= 0 0)) (or (= 0 0) (= (sc 0) (sc 0))) (not (= 0 0)))',
    ),
    'or-commutes-2': (
        6,
        'axiom1:1 weak:1<1 axiom1:1 weak:1<1 or-i3:4<1,1 or-i1:5<4 or-i2:5<5 or-i1:6<5'
        ' or-i2:6<6',
        '(chain (or (not (or (= (sc 0) (sc 0)) (= c2 c2))) (or (= c2 c2) (= (sc 0) (sc'
        ' 0)))) (not (or (= (sc 0) (sc 0)) (= c2 c2))) (not (= (sc 0) (sc 0))) (or (= c2'
        ' c2) (= (sc 0) (sc 0))) (or (= (sc 0) (sc 0)) (= c2 c2)) (not (= c2 c2)))',
    ),
    'or-commutes-3': (
        6,
        'axiom1:1 weak:1<1 axiom1:1 weak:1<1 or-i3:4<1,1 or-i1:5<4 or-i2:5<5 or-i1:6<5'
        ' or-i2:6<6',
        '(chain (or (not (or (= 0 0) (not (= c2 c2)))) (or (not (= c2 c2)) (= 0 0))) (not'
        ' (or (= 0 0) (not (= c2 c2)))) (not (not (= c2 c2))) (or (not (= c2 c2)) (= 0'
        ' 0)) (or (= 0 0) (not (= c2 c2))) (not (= 0 0)))',
    ),
    'neq-from-hypotheses': (
        13,
        'axiomL:0 weak:0<0 weak:0<0 axiomL:0 weak:0<0 axiom4:3 cut:3<0,3 weak:3<3'
        ' weak:3<3 axiom5:5 cut:7<3,5 weak:7<7 weak:7<7 axiom5:5 weak:5<5 cut:11<7,5'
        ' cut:11<0,11 axiom2:3 weak:3<3 cut:13<11,3',
        '(chain (not (= c2 (* (sc (sc 0)) (sc (sc 0))))) (not (= (* (sc (sc 0)) (sc (sc'
        ' 0))) c4)) (not (= (+ (sc 0) (sc 0)) (* (sc (sc 0)) (sc (sc 0))))) (not (= c2 (+'
        ' (sc 0) (sc 0)))) (not (= (+ (sc 0) (sc 0)) c2)) (= c2 (* (sc (sc 0)) (sc (sc'
        ' 0)))) (= (* (sc (sc 0)) (sc (sc 0))) c4) (= (+ (sc 0) (sc 0)) (* (sc (sc 0))'
        ' (sc (sc 0)))) (= c2 (+ (sc 0) (sc 0))) (= (+ (sc 0) (sc 0)) c2) (not (= c2 c4))'
        ' (= c2 c4) c2)',
    ),
    'axiom1': (
        1,
        'axiom1:1',
        '(chain (not (= (sc 0) (sc 0))))',
    ),
    'axiom2': (
        3,
        'axiom2:3',
        '(chain (not (= c3 c4)) (= c3 c4) c3)',
    ),
    'axiom3': (
        1,
        'axiom3:1',
        '(chain (= (sc 0) (sc 0)))',
    ),
    'axiom4': (
        3,
        'axiom4:3',
        '(chain (not (= (sc 0) (+ 0 (sc 0)))) (= (+ 0 (sc 0)) (sc 0)) (= (sc 0) (+ 0 (sc'
        ' 0))))',
    ),
    'axiom5': (
        5,
        'axiom5:5',
        '(chain (not (= (sc 0) (+ 0 (sc 0)))) (not (= (+ 0 (sc 0)) (* (sc 0) (sc 0)))) (='
        ' (sc 0) (+ 0 (sc 0))) (= (sc 0) (* (sc 0) (sc 0))) (= (+ 0 (sc 0)) (* (sc 0) (sc'
        ' 0))))',
    ),
    'axiom6': (
        5,
        'axiom6:5',
        '(chain (not (= (sc 0) (+ 0 (sc 0)))) (= (sc (sc 0)) (sc (+ 0 (sc 0)))) (sc (+ 0'
        ' (sc 0))) (= (sc 0) (+ 0 (sc 0))) (sc (sc 0)))',
    ),
    'axiom7': (
        6,
        'axiom7:6',
        '(chain (not (= (+ 0 (sc 0)) (+ 0 (sc 0)))) (= (+ (sc 0) (+ 0 (sc 0))) (+ (sc 0)'
        ' (+ 0 (sc 0)))) (not (= (sc 0) (sc 0))) (+ (sc 0) (+ 0 (sc 0))) (= (+ 0 (sc 0))'
        ' (+ 0 (sc 0))) (= (sc 0) (sc 0)))',
    ),
    'axiom8': (
        6,
        'axiom8:6',
        '(chain (not (= (+ 0 (sc 0)) (+ 0 (sc 0)))) (= (* (sc 0) (+ 0 (sc 0))) (* (sc 0)'
        ' (+ 0 (sc 0)))) (not (= (sc 0) (sc 0))) (* (sc 0) (+ 0 (sc 0))) (= (+ 0 (sc 0))'
        ' (+ 0 (sc 0))) (= (sc 0) (sc 0)))',
    ),
    'axiom9': (
        3,
        'axiom9:3',
        '(chain (= (sc c4) c5) (sc c4) c4)',
    ),
    'axiom10': (
        3,
        'axiom10:3',
        '(chain (= (+ c2 c3) c5) (+ c2 c3) c2)',
    ),
    'axiom11': (
        3,
        'axiom11:3',
        '(chain (= (* c2 c3) c6) (* c2 c3) c2)',
    ),
    'axiom12': (
        3,
        'axiom12:3',
        '(chain (ex 0 (= (sc 0) v0)) (= (sc 0) v0) v0)',
    ),
    'weak-over-axiom': (
        1,
        'axiom3:1 weak:1<1',
        '(chain (= 0 0))',
    ),
    'excluded-middle': (
        2,
        'axiom1:1 or-i1:2<1 or-i2:2<2',
        '(chain (or (= 0 0) (not (= 0 0))) (not (= 0 0)))',
    ),
    'excluded-middle-delta2': (
        2,
        'axiom1:1 or-i1:2<1 or-i2:2<2',
        '(chain (or (or (or (not (= 0 0)) (not (= 0 0))) (or (not (= 0 0)) (not (= 0'
        ' 0)))) (not (or (or (not (= 0 0)) (not (= 0 0))) (or (not (= 0 0)) (not (= 0'
        ' 0)))))) (not (or (or (not (= 0 0)) (not (= 0 0))) (or (not (= 0 0)) (not (= 0'
        ' 0))))))',
    ),
    'exists-intro': (
        2,
        'axiom3:1 ex-i:2<1',
        '(chain (ex 0 (= v0 c3)) (= c3 c3))',
    ),
    'conjunction-of-truths': (
        8,
        'axiom3:1 neg-i:3<1 axiom3:1 neg-i:3<1 or-i3:8<3,3',
        '(chain (not (or (not (= 0 0)) (not (= (sc 0) (sc 0))))) (not (not (= (sc 0) (sc'
        ' 0)))) (or (not (= 0 0)) (not (= (sc 0) (sc 0)))) (not (not (= 0 0))) (not (='
        ' (sc 0) (sc 0))) (not (= 0 0)) (= (sc 0) (sc 0)) (= 0 0))',
    ),
    'cut-over-weakenings': (
        2,
        'axiom3:1 weak:1<1 axiom3:1 weak:1<1 cut:2<1,1',
        '(chain (not (= 0 0)) (= (sc 0) (sc 0)))',
    ),
    'diagram-0': (
        16,
        'axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4 axiom9:3 weak:3<3 axiom5:4'
        ' cut:6<3,4 cut:8<4,6 weak:8<8 axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4'
        ' axiom9:3 weak:3<3 axiom5:4 cut:6<3,4 cut:8<4,6 weak:8<8 weak:8<8 axiom7:5'
        ' cut:11<8,5 cut:11<8,11 weak:11<11 axiom10:3 weak:3<3 weak:3<3 axiom5:5'
        ' cut:7<3,5 cut:15<11,7 axiom3:1 axiom4:2 cut:2<1,2 weak:2<2 weak:2<2 axiom5:4'
        ' cut:4<2,4 cut:16<15,4',
        '(chain (not (= (+ (sc 0) (sc 0)) c2)) (not (= (+ (sc 0) (sc 0)) (+ c1 c1))) (not'
        ' (= (sc 0) (sc 0))) (not (= (sc 0) c1)) (= (+ (sc 0) (sc 0)) c2) (not (= (+ c1'
        ' c1) c2)) (= (+ (sc 0) (sc 0)) (+ c1 c1)) (not (= 0 0)) (+ (sc 0) (sc 0)) (= (sc'
        ' 0) (sc 0)) (= (sc 0) c1) (= (+ c1 c1) c2) (sc 0) (= 0 0) (+ c1 c1) 0)',
    ),
    'diagram-1': (
        3,
        'axiom3:1 axiom4:2 cut:2<1,2 weak:2<2 weak:2<2 axiom5:2 cut:2<2,2 axiom3:1'
        ' weak:1<1 weak:1<1 axiom5:2 cut:2<1,2 cut:2<2,2 axiom2:3 cut:3<2,3',
        '(chain (not (= c3 c3)) (= c3 c3) c3)',
    ),
    'diagram-2': (
        8,
        'axiom3:1 weak:1<1 axiom3:1 weak:1<1 weak:1<1 axiom8:4 cut:4<1,4 cut:4<1,4'
        ' weak:4<4 axiom11:3 weak:3<3 axiom5:4 cut:6<3,4 cut:8<4,6 axiom3:1 axiom4:2'
        ' cut:2<1,2 weak:2<2 weak:2<2 axiom5:4 cut:4<2,4 cut:8<8,4',
        '(chain (not (= (* c2 c3) c6)) (not (= (* c2 c3) (* c2 c3))) (not (= c2 c2)) (='
        ' (* c2 c3) c6) (= (* c2 c3) (* c2 c3)) (* c2 c3) (= c3 c3) c2)',
    ),
    'diagram-3': (
        3,
        'axiom3:1 axiom3:1 axiom4:2 cut:2<1,2 weak:2<2 axiom5:2 cut:2<2,2 cut:2<1,2'
        ' or-i1:3<2',
        '(chain (or (= 0 0) (= 0 (sc 0))) (not (= 0 0)) (= 0 0))',
    ),
    'diagram-4': (
        3,
        'axiom3:1 axiom3:1 axiom4:2 cut:2<1,2 weak:2<2 axiom5:2 cut:2<2,2 cut:2<1,2'
        ' ex-i:3<2',
        '(chain (ex 0 (= v0 c7)) (not (= c7 c7)) (= c7 c7))',
    ),
    'diagram-5': (
        6,
        'axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4 axiom9:3 weak:3<3 axiom5:4'
        ' cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3 weak:9<9 weak:9<9 axiom5:5'
        ' cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2'
        ' axiom2:3 weak:3<3 cut:10<10,3 m-rule:6<10#1',
        '(chain (not (ex 0 (= (sc v0) 0))) (ex 0 (= (sc v0) 0)) (not (= (sc cω[q0]) 0))'
        ' (= (sc cω[q0]) 0) (sc cω[q0]) cω[q0])',
    ),
    'diagram-6': (
        9,
        'axiom3:1 weak:1<1 axiom3:1 weak:1<1 weak:1<1 axiom7:4 cut:4<1,4 cut:4<1,4'
        ' weak:4<4 axiom10:3 weak:3<3 axiom5:4 cut:6<3,4 cut:8<4,6 axiom3:1 axiom4:2'
        ' cut:2<1,2 weak:2<2 weak:2<2 axiom5:4 cut:4<2,4 cut:8<8,4 ex-i:9<8',
        '(chain (ex 0 (= (+ v0 c2) c5)) (not (= (+ c3 c2) c5)) (not (= (+ c3 c2) (+ c3'
        ' c2))) (not (= c3 c3)) (= (+ c3 c2) c5) (= (+ c3 c2) (+ c3 c2)) (= c2 c2) (+ c3'
        ' c2) c3)',
    ),
    'diagram-7': (
        10,
        'axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4 axiom9:3 weak:3<3 axiom5:4'
        ' cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3 weak:9<9 weak:9<9 axiom5:5'
        ' cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2'
        ' axiom2:3 weak:3<3 cut:10<10,3',
        '(chain (not (= (sc 0) (sc 0))) (not (= c1 (sc 0))) (not (= (sc 0) c1)) (not (= 0'
        ' 0)) (= (sc 0) (sc 0)) (= c1 (sc 0)) (= (sc 0) c1) (sc 0) (= 0 0) 0)',
    ),
    'uniform-refutation-0': (
        6,
        'axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4 axiom9:3 weak:3<3 axiom5:4'
        ' cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3 weak:9<9 weak:9<9 axiom5:5'
        ' cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2'
        ' axiom2:3 weak:3<3 cut:10<10,3 m-rule:6<10#1',
        '(chain (not (ex 0 (= (sc v0) 0))) (ex 0 (= (sc v0) 0)) (not (= (sc cω[q0]) 0))'
        ' (= (sc cω[q0]) 0) (sc cω[q0]) cω[q0])',
    ),
    'uniform-refutation-1': (
        6,
        'axiom3:1 weak:1<1 axiom3:1 weak:1<1 weak:1<1 axiom7:4 cut:4<1,4 cut:4<1,4'
        ' weak:4<4 axiom10:3 weak:3<3 axiom5:4 cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3'
        ' cut:9<8,3 weak:9<9 weak:9<9 axiom5:5 cut:10<9,5 axiom3:1 weak:1<1 weak:1<1'
        ' axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2 axiom2:3 weak:3<3 cut:10<10,3'
        ' m-rule:6<10#1',
        '(chain (not (ex 0 (= (+ v0 c5) c2))) (ex 0 (= (+ v0 c5) c2)) (not (= (+ cω[q0]'
        ' c5) c2)) (= (+ cω[q0] c5) c2) (+ cω[q0] c5) cω[q0])',
    ),
    'uniform-refutation-2': (
        8,
        'axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4 axiom9:3 weak:3<3 axiom5:4'
        ' cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3 weak:9<9 weak:9<9 axiom5:5'
        ' cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2'
        ' axiom2:3 weak:3<3 cut:10<10,3 axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4'
        ' axiom9:3 weak:3<3 axiom5:4 cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3'
        ' weak:9<9 weak:9<9 axiom5:5 cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2'
        ' cut:2<1,2 weak:2<2 cut:10<10,2 axiom2:3 weak:3<3 cut:10<10,3 m-rule:6<10#1'
        ' or-i3:14<10,6 m-rule:8<14#1',
        '(chain (not (ex 0 (or (= (sc v0) 0) (ex 1 (= (sc v1) 0))))) (ex 0 (or (= (sc v0)'
        ' 0) (ex 1 (= (sc v1) 0)))) (not (or (= (sc cω[q0]) 0) (ex 1 (= (sc v1) 0)))) (or'
        ' (= (sc cω[q0]) 0) (ex 1 (= (sc v1) 0))) (ex 1 (= (sc v1) 0)) (= (sc cω[q0]) 0)'
        ' (sc cω[q0]) cω[q0])',
    ),
}


# the m-rule entries of GOLDEN_TRANSLATIONS as recorded while eldiag's witness
# search and its proofs drew parameter names from one counter
EARLIER_TRANSLATIONS = {
    'diagram-5': (
        6,
        'axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4 axiom9:3 weak:3<3 axiom5:4'
        ' cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3 weak:9<9 weak:9<9 axiom5:5'
        ' cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2'
        ' axiom2:3 weak:3<3 cut:10<10,3 m-rule:6<10#1',
        '(chain (not (ex 0 (= (sc v0) 0))) (ex 0 (= (sc v0) 0)) (not (= (sc cω[q1]) 0))'
        ' (= (sc cω[q1]) 0) (sc cω[q1]) cω[q1])',
    ),
    'uniform-refutation-0': (
        6,
        'axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4 axiom9:3 weak:3<3 axiom5:4'
        ' cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3 weak:9<9 weak:9<9 axiom5:5'
        ' cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2'
        ' axiom2:3 weak:3<3 cut:10<10,3 m-rule:6<10#1',
        '(chain (not (ex 0 (= (sc v0) 0))) (ex 0 (= (sc v0) 0)) (not (= (sc cω[q1]) 0))'
        ' (= (sc cω[q1]) 0) (sc cω[q1]) cω[q1])',
    ),
    'uniform-refutation-1': (
        6,
        'axiom3:1 weak:1<1 axiom3:1 weak:1<1 weak:1<1 axiom7:4 cut:4<1,4 cut:4<1,4'
        ' weak:4<4 axiom10:3 weak:3<3 axiom5:4 cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3'
        ' cut:9<8,3 weak:9<9 weak:9<9 axiom5:5 cut:10<9,5 axiom3:1 weak:1<1 weak:1<1'
        ' axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2 axiom2:3 weak:3<3 cut:10<10,3'
        ' m-rule:6<10#1',
        '(chain (not (ex 0 (= (+ v0 c5) c2))) (ex 0 (= (+ v0 c5) c2)) (not (= (+ cω[q1]'
        ' c5) c2)) (= (+ cω[q1] c5) c2) (+ cω[q1] c5) cω[q1])',
    ),
    'uniform-refutation-2': (
        8,
        'axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4 axiom9:3 weak:3<3 axiom5:4'
        ' cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3 weak:9<9 weak:9<9 axiom5:5'
        ' cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2 cut:2<1,2 weak:2<2 cut:10<10,2'
        ' axiom2:3 weak:3<3 cut:10<10,3 axiom3:1 weak:1<1 axiom6:4 cut:4<1,4 weak:4<4'
        ' axiom9:3 weak:3<3 axiom5:4 cut:6<3,4 cut:8<4,6 weak:8<8 axiom4:3 cut:9<8,3'
        ' weak:9<9 weak:9<9 axiom5:5 cut:10<9,5 axiom3:1 weak:1<1 weak:1<1 axiom5:2'
        ' cut:2<1,2 weak:2<2 cut:10<10,2 axiom2:3 weak:3<3 cut:10<10,3 m-rule:6<10#1'
        ' or-i3:14<10,6 m-rule:8<14#1',
        '(chain (not (ex 0 (or (= (sc v0) 0) (ex 1 (= (sc v1) 0))))) (ex 0 (or (= (sc v0)'
        ' 0) (ex 1 (= (sc v1) 0)))) (not (or (= (sc cω[q3]) 0) (ex 1 (= (sc v1) 0)))) (or'
        ' (= (sc cω[q3]) 0) (ex 1 (= (sc v1) 0))) (ex 1 (= (sc v1) 0)) (= (sc cω[q3]) 0)'
        ' (sc cω[q3]) cω[q3])',
    ),
}
