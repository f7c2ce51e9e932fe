import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest

import satkit.semantics as semantics
import satkit.sexpr as sexpr
import satkit.syntax as sx
import satkit.template as tp
from satkit.congruence import build_quotient, subterm_closure
from satkit.corpus import (
    base_corpus, commute_or_proof, template_tautology_corpus,
)
from satkit.eldiag import prove_eldiag
from satkit.elements import ElementError, Std, Sym, half, std, sym
from satkit.ground_model import FALSE, TRUE, UNKNOWN, eval_tr, val
from satkit.kernel import (
    M_POLICY, Proof, Sequent, TEMPLATE_POLICY, check, seq,
)
from satkit.semantics import (
    BadWitnessParams, OracleUndecided, SatFragment, SemanticsError, SoundnessViolation,
    TStructure, audit_soundness, check_fragment, delta_structure,
    free_tower, ground_truth_structure,
    henkin_extend, models, quotient_witness, sc_tower, structure_oracle,
    tr_sigma, uses_axiom12, val_t,
)
from satkit.translate import translate_proof

e, n, o = sx.Eq, sx.Not, sx.Or


def c(k):
    return sx.const(std(k))


def fragment_structure(frag: SatFragment) -> TStructure:
    """The structure reading boxed truth exactly as the fragment decided."""
    q = check_fragment(frag).quotient

    def t_set(phi: sx.Formula) -> bool:
        v = frag.decided.get(phi)
        if v is not None:
            return v
        if isinstance(phi, sx.Not):
            v = frag.decided.get(phi.body)
            return (not v) if v is not None else False
        return False

    def t_val(t: sx.Term):
        if q is not None and t in q.parent:
            e = q.const_of.get(q.find(t))
            if e is not None:
                return e
        return semantics._ground_value(t)

    return TStructure("fragment", t_set, t_val)


def dict_structure(truths, values=None, name="adhoc", **kw):
    values = values or {}
    return TStructure(
        name,
        lambda f: f in truths,
        lambda t: values.get(t, Std(0)),
        **kw,
    )


class TestValuation:
    def test_boxed_term_reads_the_map(self):
        t = sx.Succ(sx.ZERO)
        s = dict_structure(set(), {t: std(9)})
        assert val_t(s, tp.TemplTerm(t)) == std(9)

    def test_homomorphism_clause(self):
        t = sx.Succ(sx.ZERO)
        s = dict_structure(set(), {t: std(9)})
        assert val_t(s, sx.Succ(tp.TemplTerm(t))) == std(10)
        assert val_t(s, sx.Add(tp.TemplTerm(t), c(4))) == std(13)

    def test_free_variable_has_no_valuation(self):
        s = dict_structure(set())
        with pytest.raises(SemanticsError, match="no valuation"):
            val_t(s, sx.Succ(sx.Var(0)))


class TestModels:
    def test_boxed_formula_reads_the_oracle(self):
        phi = e(sx.ZERO, sx.ZERO)
        s = dict_structure({phi})
        assert models(s, tp.TemplForm(phi)) is TRUE
        assert models(s, tp.TemplForm(n(phi))) is FALSE

    def test_left_disjunct_wins_regardless_of_oracle(self):
        psi = e(c(5), c(6))
        s = dict_structure(set())
        f = o(e(sx.ZERO, sx.ZERO), tp.TemplForm(psi))
        assert models(s, f) is TRUE

    def test_exists_finds_standard_witness(self):
        s = dict_structure(set())
        f = sx.Ex(0, e(sx.Var(0), c(3)))
        assert models(s, f, fuel=8) is TRUE

    def test_exists_generic_refutation(self):
        s = dict_structure(set())
        f = sx.Ex(0, e(sx.Succ(sx.Var(0)), sx.ZERO))
        assert models(s, f, fuel=8) is FALSE

    def test_exists_unknown_on_exhaustion(self):
        s = dict_structure(set())
        f = sx.Ex(0, e(sx.Mul(sx.Var(0), sx.Var(0)), c(49)))
        assert models(s, f, fuel=3) is UNKNOWN

    def test_candidates_come_before_the_generic_refutation(self):
        # the oracle rejects the generic box, yet the tower's target is a witness
        h, a = sym("h"), sym("a")
        s = sc_tower("num", h, a)
        body = tp.TemplForm(e(sx.SymTermRef("num", h), sx.Var(0)))
        assert models(s, tp.templ_substitute(body, Sym("generic0"), 0), 4) is FALSE
        assert models(s, sx.Ex(0, body), 4) is TRUE


def _ref_tower_value(root_index, family, a, t):
    # the tower valuation that picked its step by the family's name, kept
    # as the reference for the one that steps by the inverse of its row's head
    if isinstance(t, sx.SymTermRef) and t.family == family:
        idx = t.index
        if (isinstance(idx, Sym) and idx.base == root_index.base
                and idx.coeff == root_index.coeff and idx.offset <= root_index.offset):
            k = root_index.offset - idx.offset
            if family == "num":
                return Sym(a.base, a.coeff, a.offset - k)
            v = a
            for _ in range(k):
                v = half(v)
            return v
    e = sx.const_elem(t)
    return Std(0) if e is None else e


def _outcome(fn, *args):
    """fn's value, or the type of the element error it raises."""
    try:
        return fn(*args)
    except ElementError as err:
        return type(err)


def _ref_leaf(root_index, family, a):
    """val's leaf for the reference: a box's object and a family reference
    are valued by _ref_tower_value."""
    def leaf(x):
        return _ref_tower_value(root_index, family, a, x.obj if isinstance(x, tp.TemplTerm) else x)
    return leaf


class TestGallery:
    def test_delta_structure_depth_eight(self):
        a = sym("a")
        t = delta_structure(a)
        target = sx.delta(a)
        steps = [sx.delta(Sym("a", a.coeff, -k)) for k in range(9)]
        for k in range(9):
            approx = tp.apply_to_object(tp.ApproxChain(tuple(steps[:k])), target)
            assert models(t, approx, fuel=4) is TRUE

    def test_delta_structure_requires_symbolic_index(self):
        with pytest.raises(BadWitnessParams):
            delta_structure(std(4))

    def test_sc_tower_valuations(self):
        for family in ("num", "addtower"):
            h, a = sym("h"), sym("a")
            t = sc_tower(family, h, a)
            root = sx.SymTermRef(family, h)
            for k in range(11):
                chain = tp.ApproxChain(tuple(
                    sx.SymTermRef(family, Sym("h", h.coeff, -j)) for j in range(k)))
                assert val_t(t, tp.apply_to_object(chain, root)) == a
            target = e(root, sx.const(a))
            assert models(t, tp.TemplForm(target)) is TRUE

    def test_multiplication_tower_rejected(self):
        with pytest.raises(BadWitnessParams):
            sc_tower("multower", sym("h"), sym("a"))

    @pytest.mark.parametrize("family", ["delta", "eps"])
    def test_formula_towers_rejected(self, family):
        # their rows' head, Or, has no inverse to step a value down by
        with pytest.raises(BadWitnessParams):
            sc_tower(family, sym("h"), sym("a"))

    @pytest.mark.parametrize("family", ["num", "addtower"])
    @pytest.mark.parametrize("a", [sym("a"), Sym("a", Fraction(4), 2)])
    def test_tower_valuations_agree_with_the_reference(self, family, a):
        # 4a+2 halves once exactly and then has an odd offset
        h, b = sym("h"), sym("b")
        for t, root, target in ((sc_tower(family, h, a), sx.SymTermRef(family, h), a),
                                (free_tower(a, b), sx.numeral(a), b)):
            fam, idx = root.family, root.index
            probes = [sx.SymTermRef(g, Sym(base, idx.coeff, idx.offset + d))
                      for g in ("num", "addtower") for base in (idx.base, "g")
                      for d in range(-5, 3)]
            probes += [sx.SymTermRef(fam, Sym(idx.base, 2 * idx.coeff, idx.offset)),
                       sx.ZERO, c(5), sx.const(sym("q")), sx.Succ(root)]
            for x in probes:
                assert (_outcome(t.t_val, x)
                        == _outcome(_ref_tower_value, idx, fam, target, x)), x
            for k in range(11):
                chain = tp.ApproxChain(tuple(
                    sx.SymTermRef(fam, Sym(idx.base, idx.coeff, idx.offset - j))
                    for j in range(k)))
                x = tp.apply_to_object(chain, root)
                assert (_outcome(val_t, t, x)
                        == _outcome(val, x, _ref_leaf(idx, fam, target))), k

    def test_prime_counterexample_desk_instance(self):
        # a multiplication-bearing tower instantiated at desk scale is
        # refuted outright for a prime target
        t = sx.Mul(sx.Succ(sx.Succ(c(1))), sx.Succ(sx.Succ(sx.ZERO)))  # 3 * 2
        target = e(t, c(7))
        p = prove_eldiag(target)
        assert p.conclusion.sentences == {n(target)}
        assert check(p, M_POLICY).ok

    def test_tr_sigma_oracle(self):
        s = tr_sigma(1)
        assert models(s, tp.TemplForm(e(c(2), c(2)))) is TRUE
        assert models(s, tp.TemplForm(e(c(2), c(3)))) is FALSE
        exists = sx.Ex(0, e(sx.Var(0), c(3)))
        assert models(s, tp.TemplForm(exists)) is TRUE

    def test_quotient_witness_values_through_canonical_map(self):
        lhs = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        uni = subterm_closure([lhs, c(2), c(1)])
        q = build_quotient([(lhs, c(2)), (sx.Succ(sx.ZERO), c(1))], uni)
        assert q.injective_on_constants and q.surjective_on_universe
        s = quotient_witness(q)
        assert val_t(s, tp.TemplTerm(lhs)) == std(2)
        assert models(s, tp.TemplForm(e(lhs, c(2)))) is TRUE

    def test_quotient_witness_requires_bijection(self):
        lhs = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        uni = subterm_closure([lhs, c(2), c(1)])
        q = build_quotient([(lhs, c(2))], uni)  # Sc(0) is never named
        assert not q.surjective_on_universe
        with pytest.raises(BadWitnessParams):
            quotient_witness(q)

    def test_free_tower_negated_existential(self):
        a, b = sym("a"), sym("b")
        t = free_tower(a, b)
        assert not t.supports_axiom12
        target = n(sx.Ex(0, e(sx.numeral(a), sx.Var(0))))
        base_chain = [target, target.body, e(sx.numeral(a), sx.Var(0)), sx.Var(0)]
        for k in range(7):
            steps = base_chain + [sx.numeral(Sym("a", a.coeff, -j)) for j in range(k)]
            f = tp.normalize(tp.ApproxChain(tuple(steps)))
            approx = tp.apply_to_object(f, target)
            assert models(t, approx, fuel=6) is TRUE


class TestAudit:
    def _structures(self):
        return [
            delta_structure(sym("a")),
            sc_tower("num", sym("h"), sym("a")),
            tr_sigma(1),
            ground_truth_structure(),
            free_tower(sym("a"), sym("b")),
        ]

    def test_matrix_never_false(self):
        entries = base_corpus()
        structures = self._structures()
        audited = 0
        for entry in entries:
            res = translate_proof(entry.proof, entry.policy)
            for s in structures:
                report = audit_soundness(res.proof, s, fuel=8)
                if report.applicable:
                    audited += 1
                    assert report.verdict != FALSE
        assert audited >= len(entries)  # at least one structure per proof

    def test_axiom_leaf_true_everywhere(self):
        p = Proof(seq(e(sx.Succ(c(4)), c(5))), "axiom9")
        res = translate_proof(p, M_POLICY)
        for s in self._structures():
            report = audit_soundness(res.proof, s, fuel=8)
            if report.applicable:
                assert report.verdict is TRUE

    def test_corrupted_proof_rejected_before_audit(self):
        p = commute_or_proof(e(sx.ZERO, sx.ZERO), e(c(2), c(2)))
        res = translate_proof(p, M_POLICY)
        bad = Proof(Sequent(frozenset((tp.TemplForm(e(c(1), c(2))),))),
                    res.proof.rule, res.proof.premises, res.proof.uniform)
        assert not check(bad, TEMPLATE_POLICY).ok

    def test_deep_weakening_chain(self):
        # 3000 weakenings over one leaf: deeper than the recursion limit
        def chain(leaf):
            for _ in range(3000):
                leaf = Proof(leaf.conclusion, "weak", (leaf,))
            return leaf

        exists = sx.Ex(0, e(sx.ZERO, sx.Var(0)))
        assert uses_axiom12(chain(Proof(seq(exists), "axiom12")))
        hyp = chain(Proof(seq(e(c(2), c(2))), "axiomL"))
        assert not uses_axiom12(hyp)
        report = audit_soundness(hyp, ground_truth_structure(), fuel=4)
        assert report.applicable and report.verdict is TRUE

    def test_soundness_violation_raises(self):
        # a deliberately wrong conclusion evaluated directly
        lie = Proof(Sequent(frozenset((e(sx.ZERO, sx.Succ(sx.ZERO)),))), "axiom3")
        with pytest.raises(SoundnessViolation):
            audit_soundness(lie, ground_truth_structure(), fuel=4)


class TestCompletenessSmoke:
    def test_tautologies_true_in_all_small_structures_and_proved(self):
        corpus = template_tautology_corpus(100)
        assert len(corpus) == 100
        for item in corpus:
            # enumerate every structure over the finite template universe
            for bits in product((False, True), repeat=len(item.atoms)):
                truths = {a for a, b in zip(item.atoms, bits) if b}
                s = dict_structure(truths)
                assert models(s, item.formula, fuel=4) is TRUE
            rep = check(item.proof, TEMPLATE_POLICY)
            assert rep.ok, item.name
            assert item.proof.conclusion.sentences == {item.formula}


def _consistent_pairing(frag) -> bool:
    """Whether no decided sentence has the same value as its decided negation."""
    return not any(isinstance(f, sx.Not) and frag.decided.get(f.body, not v) == v
                   for f, v in frag.decided.items())


class TestHenkin:
    def test_fragment_values_a_class_at_its_first_constant(self):
        # 1 = 2 identifies two constants; the class is valued at the one
        # that comes first in the quotient's universe
        frag = SatFragment(decided={e(c(1), c(2)): True, e(sx.Succ(c(1)), c(7)): True})
        q = check_fragment(frag).quotient
        assert not q.injective_on_constants
        s = fragment_structure(frag)
        got = [s.t_val(t) for t in (c(1), c(2), sx.Succ(c(1)), c(7), sx.Succ(c(2)), c(9))]
        assert got == [std(1), std(1), std(7), std(7), std(3), std(9)]

    def test_ground_truth_fragment(self):
        enum = []
        for k in range(12):
            enum.append(e(sx.numeral(std(k % 4)), sx.numeral(std(k % 3))))
        enum.append(sx.Ex(0, e(sx.Var(0), c(3))))
        enum.append(n(e(sx.ZERO, sx.Succ(sx.ZERO))))
        frag = henkin_extend([], enum, budget=16)
        rep = check_fragment(frag)
        assert rep.passed, rep.failures
        for f in enum:
            want = eval_tr(f, "s1", 32) is TRUE
            assert frag.decided[f] == want

    def test_existential_gets_witness(self):
        exists = sx.Ex(0, e(sx.Var(0), c(3)))
        frag = henkin_extend([], [exists], budget=8)
        assert frag.decided[exists]
        assert frag.witnesses[exists] == std(3)
        inst = e(c(3), c(3))
        assert frag.decided[inst]

    def test_delta_family_accepted(self):
        a = sym("a")
        lam = [sx.delta(a)]
        enum = [sx.delta(Sym("a", a.coeff, -k)) for k in range(1, 7)]
        frag = henkin_extend(lam, enum,
                             oracle=structure_oracle(delta_structure(a)))
        for f in enum:
            assert frag.decided[f] is True
        assert _consistent_pairing(frag)
        rep = check_fragment(frag)
        assert rep.passed, rep.failures

    def test_delta_family_with_mixed_enumeration(self):
        a = sym("a")
        lam = [sx.delta(a)]
        enum = [sx.delta(Sym("a", a.coeff, -k)) for k in range(1, 7)]
        enum += [e(sx.ZERO, sx.ZERO), e(c(1), c(2))]
        oracle = structure_oracle(delta_structure(a, with_ground_truth=True))
        frag = henkin_extend(lam, enum, oracle=oracle)
        assert all(frag.decided[f] for f in enum[:-2])
        assert frag.decided[e(sx.ZERO, sx.ZERO)] is True
        assert frag.decided[e(c(1), c(2))] is False
        rep = check_fragment(frag)
        assert rep.passed, rep.failures

    def test_oracle_undecided_halts(self):
        # an oracle that cannot certify either branch
        def mute(sentences):
            return False

        with pytest.raises(OracleUndecided):
            henkin_extend([], [e(sx.ZERO, sx.ZERO)], oracle=mute)

    def test_fragment_induces_structure(self):
        enum = [e(sx.numeral(std(k)), sx.numeral(std(k))) for k in range(4)]
        enum += [e(sx.Add(c(1), c(1)), c(2)), n(e(c(1), c(2)))]
        frag = henkin_extend([], enum, budget=8)
        s = fragment_structure(frag)
        for f, value in frag.decided.items():
            boxed = tp.TemplForm(f)
            assert models(s, boxed, fuel=8) is (TRUE if value else FALSE)
            # every chain image of an accepted member stays true
            if value:
                full = tp.full_depth_approx([f], 2)
                assert models(s, tp.apply_to_object(full, f), fuel=8) is not FALSE


def _reference_oracle(t_struct):
    """structure_oracle without its verdict memo: every member of every
    set is evaluated again."""

    def oracle(sentences):
        for f in sentences:
            if models(t_struct, semantics._boxed(f), semantics.ORACLE_FUEL) is not TRUE:
                return False
            for k in range(1, semantics.ORACLE_DEPTH + 1):
                image = tp.apply_to_object(tp.full_depth_approx([f], k), f)
                if models(t_struct, image, semantics.ORACLE_FUEL) is FALSE:
                    return False
        return True

    return oracle


def _memo_free_ground_truth():
    """ground_truth_structure without its verdict memo: every sentence
    is decided again each time it is asked."""

    def t_set(phi):
        for cls in ("d0", "s1", "s2"):
            try:
                return semantics.eval_tr(phi, cls, 64) is TRUE
            except Exception:
                continue
        return False

    return TStructure("ground-truth", t_set, semantics._ground_value)


def _cli_session_enumeration(rng):
    """The shape of a cli-session henkin request: two sums, a
    disequation, a disjunction and two existentials, seeded constants."""
    a, b, c_, d = (rng.randrange(1, 10) for _ in range(4))
    texts = [f"(= (+ c{a} c{b}) c{a + b})", f"(= (+ c{a} c{b}) c{a + b + c_})",
             f"(not (= c{c_} c{c_ + d}))", f"(or (= c{a} c{a + d}) (= c{b} c{b}))",
             f"(ex 0 (= (+ v0 c{a}) c{a + c_}))", f"(ex 0 (= (+ v0 c{a + c_}) c{a}))"]
    return [sexpr.parse_formula(t) for t in dict.fromkeys(texts)]


def _henkin_cases():
    """(lam, enumeration, structure or None for ground truth, budget):
    the inputs of TestHenkin and of cli-session's henkin requests, with
    and without a delta witness."""
    a = sym("a")
    family = [sx.delta(Sym("a", a.coeff, -k)) for k in range(1, 7)]
    cases = [
        ([], [e(sx.numeral(std(k % 4)), sx.numeral(std(k % 3))) for k in range(12)]
         + [sx.Ex(0, e(sx.Var(0), c(3))), n(e(sx.ZERO, sx.Succ(sx.ZERO)))], None, 16),
        ([], [sx.Ex(0, e(sx.Var(0), c(3)))], None, 8),
        ([sx.delta(a)], family, delta_structure(a), 32),
        ([sx.delta(a)], family + [e(sx.ZERO, sx.ZERO), e(c(1), c(2))],
         delta_structure(a, with_ground_truth=True), 32),
        ([], [e(sx.numeral(std(k)), sx.numeral(std(k))) for k in range(4)]
         + [e(sx.Add(c(1), c(1)), c(2)), n(e(c(1), c(2)))], None, 8),
    ]
    rng = random.Random(1313)
    for _ in range(6):
        enum = _cli_session_enumeration(rng)
        cases.append(([], enum, None, 32))
        cases.append(([], enum, delta_structure(sym("a"), with_ground_truth=True), 32))
    return cases


def _henkin_outcome(lam, enum, oracle, budget):
    frag = henkin_extend(lam, enum, oracle=oracle, budget=budget)
    return list(frag.decided.items()), frag.witnesses, frag.stage_log


class TestOracleMemo:
    def test_models_runs_once_per_sentence_and_depth(self, monkeypatch):
        calls = []

        def counted(t_struct, gamma, *args, **kwargs):
            calls.append(gamma)
            return models(t_struct, gamma, *args, **kwargs)

        monkeypatch.setattr(semantics, "models", counted)
        true = [e(c(k), c(k)) for k in range(3)]
        false, after = e(c(1), c(2)), e(c(5), c(5))
        oracle = structure_oracle(ground_truth_structure())
        for k in range(1, 4):
            assert oracle(true[:k])
            assert oracle(true[:k] + true[:k])
        assert len(calls) == 3 * (1 + semantics.ORACLE_DEPTH)
        # left to right, stopping at the first failing member: the boxed
        # test refutes it, and the member after it is never evaluated
        assert not oracle(true + [false, after])
        assert not oracle([false, after])
        assert len(calls) == 3 * (1 + semantics.ORACLE_DEPTH) + 1
        assert after not in {g.obj for g in calls if isinstance(g, tp.TemplForm)}
        # the memo lives as long as its oracle
        assert structure_oracle(ground_truth_structure())(true[:1])
        assert len(calls) == 4 * (1 + semantics.ORACLE_DEPTH) + 1

    def test_henkin_matches_an_oracle_without_the_memo(self):
        for lam, enum, t_struct, budget in _henkin_cases():
            # None runs henkin_extend's own default oracle
            memo = None if t_struct is None else structure_oracle(t_struct)
            reference = _reference_oracle(t_struct or ground_truth_structure())
            got = _henkin_outcome(lam, enum, memo, budget)
            assert got == _henkin_outcome(lam, enum, reference, budget), enum

    def test_truth_structure_matches_one_without_its_memo(self):
        for lam, enum, t_struct, budget in _henkin_cases():
            if t_struct is None:  # henkin_extend's default: ground truth
                reference = structure_oracle(_memo_free_ground_truth())
                got = _henkin_outcome(lam, enum, None, budget)
                assert got == _henkin_outcome(lam, enum, reference, budget), enum

    def test_eval_tr_runs_once_per_sentence_of_a_request(self, monkeypatch):
        calls = []

        def counted(phi, cls, fuel):
            calls.append((phi, cls))
            return eval_tr(phi, cls, fuel)

        monkeypatch.setattr(semantics, "eval_tr", counted)
        enum = _cli_session_enumeration(random.Random(1313))
        henkin_extend([], enum)
        # one call per sentence and class tried, where the structure
        # without the memo repeats 16 of 66
        assert len(calls) == len(set(calls)) == 50
        del calls[:]
        henkin_extend([], enum, oracle=structure_oracle(_memo_free_ground_truth()))
        assert len(calls) == 66 and len(set(calls)) == 50


# ---------------------------------------------------------------------------
# approximations of towers keep their sharing


def unshared(x):
    """A copy of x with every node built fresh, boxes and their objects
    included: the tree that x's DAG stands for."""
    if isinstance(x, sx.Sealed):
        return type(x)(unshared(x.obj))
    kids = x.children
    return x.rebuild(*map(unshared, kids)) if kids else dataclasses.replace(x)


def distinct_nodes(x) -> int:
    """Nodes of x counted by identity, boxes' objects included."""
    seen, stack = set(), [x]
    while stack:
        y = stack.pop()
        if id(y) not in seen:
            seen.add(id(y))
            stack.extend(y.children)
            if isinstance(y, sx.Sealed):
                stack.append(y.obj)
    return len(seen)


def tower_chain(family, k):
    """The target, the chain of its first k unfoldings and the witness
    structure, as `satkit witness` builds them at --depth k."""
    a, h = sym("a"), sym("h")
    if family == "delta":
        steps = [sx.delta(Sym("a", a.coeff, a.offset - j)) for j in range(k)]
        return sx.delta(a), tp.ApproxChain(tuple(steps)), delta_structure(a)
    steps = [sx.SymTermRef(family, Sym("h", h.coeff, h.offset - j)) for j in range(k)]
    return sx.SymTermRef(family, h), tp.ApproxChain(tuple(steps)), sc_tower(family, h, a)


def concrete_chain(family, k):
    """A standard tower of height k and the chain that unfolds it fully."""
    make = sx.delta if family == "delta" else sx.addtower
    return make(std(k)), tp.ApproxChain(tuple(make(std(k - j)) for j in range(k)))


class TestSharedApproximations:
    @pytest.mark.parametrize("family", ["addtower", "delta"])
    @pytest.mark.parametrize("k", range(11))
    def test_same_results_as_the_unshared_tree(self, family, k):
        target, f, t = tower_chain(family, k)
        x = tp.templ(target)
        for tau in f.steps:
            step = tp.f_step(tau, x)
            assert step == tp.f_step(tau, unshared(x))
            x = step
        assert x == tp.apply_to_object(f, target)
        if family == "delta":
            assert models(t, x, fuel=8) is models(t, unshared(x), fuel=8) is TRUE
        else:
            assert val_t(t, x) == val_t(t, unshared(x)) == sym("a")

    @pytest.mark.parametrize("family", ["addtower", "delta"])
    @pytest.mark.parametrize("k", range(11))
    def test_concrete_towers_agree_with_their_unshared_trees(self, family, k):
        target, f = concrete_chain(family, k)
        t = ground_truth_structure()
        for j in range(k + 1):
            x = tp.apply_chain(tp.ApproxChain(f.steps[:j]), tp.templ(target))
            assert x == tp.apply_chain(tp.ApproxChain(f.steps[:j]), tp.templ(unshared(target)))
            if family == "delta":
                assert models(t, x) is models(t, unshared(x)) is FALSE
            else:
                assert val_t(t, x) == val_t(t, unshared(x)) == Std(0)

    @pytest.mark.parametrize("family", ["addtower", "delta"])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 12])
    def test_approximations_have_linearly_many_nodes(self, family, k):
        target, f, _ = tower_chain(family, k)
        x = tp.apply_to_object(f, target)
        # k inner nodes over one box and its reference; the tree it stands
        # for doubles per level
        assert distinct_nodes(x) <= 2 * (k + 1)
        assert distinct_nodes(unshared(x)) >= 2 ** k

    @pytest.mark.parametrize("family", ["addtower", "delta"])
    def test_walks_visit_each_node_once(self, family, monkeypatch):
        import satkit.ground_model as gm
        calls = {"walk": 0, "val": 0, "decide": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tp, "_walk", counted("walk", tp._walk))
        monkeypatch.setattr(gm, "val", counted("val", gm.val))
        monkeypatch.setattr(gm.Tarski, "decide", counted("decide", gm.Tarski.decide))
        k = 12  # the depth-40 runs are in test_cli, in a child process
        target, f, t = tower_chain(family, k)
        x = tp.apply_to_object(f, target)
        # the one walk visits each node of the output once (stepping the
        # chain one step at a time walked the j nodes above the box at step j)
        assert calls["walk"] <= 2 * (k + 1)
        if family == "delta":
            assert models(t, x, fuel=8) is TRUE
            assert calls["decide"] <= 2 * (k + 1)
        else:
            assert val_t(t, x) == sym("a")
            assert calls["val"] <= 2 * (k + 1)
