import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.eldiag as eldiag
import satkit.sexpr as sexpr
import satkit.syntax as sx
from satkit.eldiag import EldiagError, FuelExhausted, NotUniform, _Prover, prove_eldiag
from satkit.elements import ElementError, Indeterminate, Sym, add, mul, std, succ, sym
from satkit.ground_model import FALSE, TRUE, UNKNOWN, witness_candidates
from satkit.kernel import DEFAULT_SAMPLES, M_POLICY, Proof, Sequent, check, seq
from generators import random_decidable_sentence

e, n = sx.Eq, sx.Not


def c(k):
    return sx.const(std(k))


def rules_used(p):
    out = {p.rule}
    for q in p.premises:
        out |= rules_used(q)
    if p.uniform is not None:
        out |= rules_used(p.uniform.schema)
    return out


class TestNamedExamples:
    def test_sum_goes_through_compat_ground_trans(self):
        phi = e(sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)), c(2))
        p = prove_eldiag(phi)
        assert p.conclusion.sentences == {phi}
        assert check(p, M_POLICY).ok
        assert {"axiom7", "axiom10", "axiom5"} <= rules_used(p)

    def test_false_constant_equality_uses_distinctness(self):
        phi = e(c(3), c(4))
        p = prove_eldiag(phi)
        assert p.conclusion.sentences == {n(phi)}
        assert check(p, M_POLICY).ok
        assert "axiom2" in rules_used(p)

    def test_true_existential_records_witness(self):
        phi = sx.Ex(0, e(sx.Add(sx.Var(0), c(2)), c(5)))
        p = prove_eldiag(phi)
        assert check(p, M_POLICY).ok
        assert p.rule == "ex-i" and p.info["witness"] == std(3)

    def test_false_existential_goes_uniform(self):
        phi = sx.Ex(0, e(sx.Succ(sx.Var(0)), sx.ZERO))
        p = prove_eldiag(phi)
        assert p.conclusion.sentences == {n(phi)}
        assert p.rule == "m-rule" and p.uniform is not None
        assert check(p, M_POLICY).ok

    def test_open_formula_rejected(self):
        with pytest.raises(EldiagError):
            prove_eldiag(e(sx.Var(0), sx.ZERO))

    def test_family_reference_has_no_ground_value(self):
        phi = e(sx.numeral(sym("a")), sx.ZERO)
        with pytest.raises(EldiagError, match="no ground value"):
            prove_eldiag(phi)

    def test_constants_in_the_body_guide_the_witness_search(self):
        phi = sx.Ex(0, e(sx.Var(0), c(150)))
        p = prove_eldiag(phi, fuel=10)
        assert p.info["witness"] == std(150)

    def test_fuel_exhaustion(self):
        # true, but the least witness is a square root the search never names
        phi = sx.Ex(0, e(sx.Mul(sx.Var(0), sx.Var(0)), c(144)))
        with pytest.raises(FuelExhausted):
            prove_eldiag(phi, fuel=5)


class TestRandomisedDiagram:
    def test_true_sentences_prove(self):
        rng = random.Random(101)
        for _ in range(200):
            phi = random_decidable_sentence(rng, want_true=True)
            p = prove_eldiag(phi)
            assert p.conclusion.sentences == {phi}
            assert check(p, M_POLICY).ok

    def test_false_sentences_refute(self):
        rng = random.Random(103)
        for _ in range(100):
            phi = random_decidable_sentence(rng, want_true=False)
            p = prove_eldiag(phi)
            assert p.conclusion.sentences == {sx.Not(phi)}
            assert check(p, M_POLICY).ok


class _RefNaming(_Prover):
    """The reference naming proof: one case for Sc and another for + and
    *, each building its image h(c..) afresh at every use."""

    def prove_named(self, t):
        e_ = sx.const_elem(t)
        if e_ is not None:
            return e_, Proof(seq(sx.Eq(t, t)), "axiom3")
        if isinstance(t, sx.Succ):
            b, pb = self.prove_named(t.arg)
            a = succ(b)
            cb, ca = sx.const(b), sx.const(a)
            mid = sx.Eq(sx.Succ(t.arg), sx.Succ(cb))
            ax6 = Proof(Sequent(frozenset((sx.Not(sx.Eq(t.arg, cb)), mid))), "axiom6")
            named = eldiag._cut(frozenset((mid,)), sx.Eq(t.arg, cb), pb, ax6)
            ax9 = Proof(seq(sx.Eq(sx.Succ(cb), ca)), "axiom9")
            return a, self.trans_eq(named, ax9, t, sx.Succ(cb), ca)
        if isinstance(t, (sx.Add, sx.Mul)):
            op = sx.Add if isinstance(t, sx.Add) else sx.Mul
            b, pb = self.prove_named(t.left)
            d, pd = self.prove_named(t.right)
            a = add(b, d) if op is sx.Add else mul(b, d)
            cb, cd, ca = sx.const(b), sx.const(d), sx.const(a)
            mid = sx.Eq(t, op(cb, cd))
            compat = "axiom7" if op is sx.Add else "axiom8"
            ax = Proof(Sequent(frozenset((
                sx.Not(sx.Eq(t.left, cb)), sx.Not(sx.Eq(t.right, cd)), mid))), compat)
            s1 = eldiag._cut(frozenset((sx.Not(sx.Eq(t.right, cd)), mid)),
                             sx.Eq(t.left, cb), pb, ax)
            named = eldiag._cut(frozenset((mid,)), sx.Eq(t.right, cd), pd, s1)
            ground = "axiom10" if op is sx.Add else "axiom11"
            axg = Proof(seq(sx.Eq(op(cb, cd), ca)), ground)
            return a, self.trans_eq(named, axg, t, op(cb, cd), ca)
        raise EldiagError(f"cannot name {t!r}")


def _random_closed_term(rng, depth):
    """A closed term over standard and symbolic constants, with shared
    arguments at times; a sum or product over two symbolic bases has no
    value."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return sx.SymTermRef("num", sym("p"))  # no ground value
        if roll < 0.4:
            return sx.const(sym(rng.choice("pq"), rng.choice((1, 2)), rng.randrange(3)))
        return sx.const(std(rng.randrange(6)))
    head = rng.choice((sx.Succ, sx.Add, sx.Mul))
    if head is sx.Succ:
        return sx.Succ(_random_closed_term(rng, depth - 1))
    left = _random_closed_term(rng, depth - 1)
    return head(left, left if rng.random() < 0.2 else _random_closed_term(rng, depth - 1))


def _named(prover_class, t):
    """The printed naming proof of t and its value, or the error's type
    and message."""
    try:
        a, p = prover_class(fuel=200, samples=DEFAULT_SAMPLES).prove_named(t)
    except (EldiagError, ElementError) as exc:
        return type(exc), str(exc)
    return a, sexpr.print_proof(p)


class TestNaming:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_naming_proofs_agree_with_the_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            t = _random_closed_term(rng, 4)
            assert _named(_Prover, t) == _named(_RefNaming, t)

    def test_the_terms_reach_every_outcome(self):
        rng = random.Random(7)
        outcomes = {"named": 0, EldiagError: 0, Indeterminate: 0}
        for _ in range(500):
            t = _random_closed_term(rng, 4)
            try:
                _, p = _Prover(fuel=200, samples=DEFAULT_SAMPLES).prove_named(t)
            except (EldiagError, ElementError) as exc:
                outcomes[type(exc)] += 1
                continue
            outcomes["named"] += 1
            assert check(p, M_POLICY).ok
        assert all(k >= 30 for k in outcomes.values()), outcomes


class _SearchAgain(_Prover):
    """Proof building that searches a true existential's witness again
    instead of reading the one its decision found."""

    def _prove_true(self, phi, params):
        if not isinstance(phi, sx.Ex):
            return super()._prove_true(phi, params)
        for w in witness_candidates(phi.body, self.fuel):
            inst = sx.substitute(phi.body, sx.const(w), phi.index)
            if self.decide(inst, params) is TRUE:
                sub = self._prove_true(inst, params)
                return Proof(seq(phi), "ex-i", (sub,), info={"witness": w})
        raise FuelExhausted(f"no witness for {phi!r} within fuel")


class _CandidatesFirst(_SearchAgain):
    """The reference order: every witness candidate, then the generic
    instance, whose parameter is drawn from the proof counter as when
    the search and the proofs shared one. Its loop is written out here,
    apart from the prover's, and ``calls`` counts its runs."""

    calls = 0

    def exists(self, phi, params):
        _CandidatesFirst.calls += 1
        for w in witness_candidates(phi.body, self.fuel):
            if self.decide(sx.substitute(phi.body, sx.const(w), phi.index), params) is TRUE:
                return TRUE
        base = f"q{next(self._proof_names)}"
        generic = sx.substitute(phi.body, sx.const(Sym(base)), phi.index)
        return FALSE if self.decide(generic, params | {base}) is FALSE else UNKNOWN


def _with_existentials(cases):
    """The cases whose sentence holds an existential: the reference
    decides each of these at least once."""
    return sum(any(isinstance(o, sx.Ex) for o in sx.subobjects(phi)) for phi, _ in cases)


_PARAM = re.compile(r"(?<![A-Za-z0-9_])[qd]\d+(?![A-Za-z0-9_])")


def _up_to_renaming(p):
    """p printed with its parameters renamed in order of appearance; each
    conclusion's sentences are re-sorted, since printing sorts them by
    their text."""
    names = {}
    text = _PARAM.sub(lambda m: names.setdefault(m.group(), f"p{len(names)}"),
                      sexpr.print_proof(p))

    def canon(node):
        if not isinstance(node, list):
            return node
        kids = [canon(k) for k in node]
        if kids[0] == "concl":
            kids[1:] = sorted(kids[1:], key=repr)
        return kids
    return canon(sexpr.read_one(text))


def _proved(prover_class, phi, fuel=200):
    prover = prover_class(fuel=fuel, samples=DEFAULT_SAMPLES)
    try:
        return prover.prove(phi, frozenset())
    except NotUniform:
        return None


def _not_uniform_sentences():
    """Sentences decide leaves UNKNOWN, each with its fuel."""
    v, w = sx.Var(0), sx.Var(1)
    return [
        # true, but its one witness lies beyond the fuel
        (sx.Ex(0, e(sx.Mul(v, v), c(144))), 5),
        # false at every witness, yet its atoms are not uniform in the parameter
        (sx.Ex(0, n(sx.Or(n(e(v, c(3))), e(v, c(3))))), 200),
        (sx.Ex(0, sx.Ex(1, n(sx.Or(n(e(w, v)), e(w, v))))), 200),
    ]


class TestGenericInstanceFirst:
    def _sentences(self):
        rng = random.Random(1111)  # criterion 11's draws
        out = [random_decidable_sentence(rng, want_true=i < 200) for i in range(300)]
        rng = random.Random(808)
        out += [random_decidable_sentence(rng, want_true=rng.random() < 0.5, qdepth=3)
                for _ in range(100)]
        return out

    def test_verdicts_match_the_candidates_first_order(self):
        cases = [(phi, fuel) for phi in self._sentences() for fuel in (200, 2)]
        cases += _not_uniform_sentences()
        verdicts = set()
        before = _CandidatesFirst.calls
        for phi, fuel in cases:
            want = _CandidatesFirst(fuel=fuel, samples=DEFAULT_SAMPLES).decide(phi, frozenset())
            got = _Prover(fuel=fuel, samples=DEFAULT_SAMPLES).decide(phi, frozenset())
            assert got is want, (phi, fuel)
            verdicts.add(got)
        assert _CandidatesFirst.calls - before >= _with_existentials(cases) > 0
        assert verdicts == {TRUE, FALSE, UNKNOWN}
        for phi, fuel in _not_uniform_sentences():
            assert _Prover(fuel=fuel, samples=DEFAULT_SAMPLES).decide(phi, frozenset()) is UNKNOWN

    def test_proofs_match_the_candidates_first_order_up_to_renaming(self):
        cases = [(phi, 200) for phi in self._sentences()] + _not_uniform_sentences()
        before = _CandidatesFirst.calls
        for phi, fuel in cases:
            got = _proved(_Prover, phi, fuel)
            want = _proved(_CandidatesFirst, phi, fuel)
            assert (got is None) == (want is None), phi
            if got is not None:
                assert _up_to_renaming(got) == _up_to_renaming(want), phi
        assert _CandidatesFirst.calls - before >= _with_existentials(cases) > 0

    def test_reading_the_recorded_witness_changes_no_proof(self):
        for phi in self._sentences():
            got = sexpr.print_proof(_proved(_Prover, phi))
            assert got == sexpr.print_proof(_proved(_SearchAgain, phi)), phi


def _counting_candidates(monkeypatch):
    tried = []

    def counted(body, bound):
        for w in witness_candidates(body, bound):
            tried.append(w)
            yield w
    monkeypatch.setattr(eldiag, "witness_candidates", counted)
    return tried


def _nested_refutation():
    # the corpus's uniform-refutation-2
    return sx.Ex(0, sx.Or(e(sx.Succ(sx.Var(0)), sx.ZERO),
                          sx.Ex(1, e(sx.Succ(sx.Var(1)), sx.ZERO))))


class TestSearchWork:
    @pytest.mark.parametrize("phi", [
        sx.Ex(0, e(sx.Succ(sx.Var(0)), sx.ZERO)), _nested_refutation()])
    def test_false_existentials_try_no_candidate(self, monkeypatch, phi):
        tried = _counting_candidates(monkeypatch)
        p = prove_eldiag(phi)
        assert p.conclusion.sentences == {n(phi)}
        assert check(p, M_POLICY).ok
        assert tried == []

    def test_a_true_existential_is_searched_once(self, monkeypatch):
        tried = _counting_candidates(monkeypatch)
        p = prove_eldiag(sx.Ex(0, e(sx.Add(sx.Var(0), c(2)), c(5))))
        assert p.info["witness"] == std(3)
        # the body's constants 2 and 5, then 0 to 3
        assert tried == [std(2), std(5), std(0), std(1), std(3)]

    def test_proofs_name_no_search_parameter(self):
        rng = random.Random(1111)
        sentences = [random_decidable_sentence(rng, want_true=i < 200) for i in range(300)]
        for phi in sentences + [_nested_refutation()]:
            p = prove_eldiag(phi)
            params = [b for q in sx.subobjects(p) if q.uniform is not None
                      for b in q.uniform.params]
            assert len(params) == len(set(params)), phi
            assert all(re.fullmatch(r"q\d+", b) for b in params), phi
            assert "ω[d" not in sexpr.print_proof(p), phi

    def test_nested_schemas_take_consecutive_proof_names(self):
        p = prove_eldiag(_nested_refutation())
        params = [q.uniform.params for q in sx.subobjects(p) if q.uniform is not None]
        assert params == [("q0",), ("q1",)]

    def test_vacuous_nested_existentials_take_one_decision_per_level(self):
        # Ex0 Ex0 ... (v0 = v0): each body is its own generic instance, so
        # the generic decision and the first candidate share a memo entry
        sizes = {}
        for depth in (101, 201):
            phi = e(sx.Var(0), sx.Var(0))
            for _ in range(depth):
                phi = sx.Ex(0, phi)
            prover = _Prover(fuel=200, samples=DEFAULT_SAMPLES)
            p = prover.prove(phi, frozenset())
            assert p.conclusion.sentences == {phi}
            assert check(p, M_POLICY).ok
            sizes[depth] = len(prover._decided)
        assert sizes[201] - sizes[101] == 100
