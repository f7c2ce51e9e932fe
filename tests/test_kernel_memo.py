"""The kernel's check-result memo.

Inside a uniform schema the checker records every subproof that passes,
with its height and the active parameters it passed under; a later check
of the same object under a subset of those parameters reuses the result.
These tests hold the memo checker to a reference checker whose memo never
stores, pin the handler calls and the fact fills it makes on criterion
11, and the prop handler calls and the free-variable fills of
certificate checking on the certified corpus, show that a pass under
fewer parameters is never reused under more, and show that no entry
outlives its sample, its schema or the check.
"""

import dataclasses
import random
from functools import partial

import pytest

import satkit.kernel as kernel
import satkit.propcalc as propcalc
import satkit.syntax as sx
import satkit.template as tp
from satkit.eldiag import prove_eldiag
from satkit.elements import Sym, std
from satkit.corpus import base_corpus
from satkit.kernel import M_POLICY, Proof, RulePolicy, Uniform, check, seq
from satkit.transform import to_certified_calculus
from generators import random_decidable_sentence
from test_kernel_reports import report_cases


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


class _Unmemoized(kernel._Checker):
    """The checker with a memo that never stores: every subproof is
    checked wherever it occurs."""

    def __init__(self, policy):
        super().__init__(policy)
        self.passed = _NeverStores()


def _outcome(checker_class, p, policy):
    ck = checker_class(policy)
    h = ck.check(p)
    return h is not None and not ck.errors, h, ck.errors


def _same_outcome(p, policy):
    want = _outcome(_Unmemoized, p, policy)
    assert _outcome(kernel._Checker, p, policy) == want
    return want


@pytest.fixture(scope="module")
def cases():
    """report_cases: every base_corpus() and mprop_entries() proof, the
    block-rule examples, their certified conversions, the negated roots,
    the recorded mutants and the malformed rule uses."""
    return [(p, pol) for _, p, pol in report_cases()]


@pytest.fixture(scope="module")
def criterion_11_proofs():
    rng = random.Random(1111)
    return [prove_eldiag(random_decidable_sentence(rng, want_true=i < 200))
            for i in range(300)]


class TestSameOutcomeAsUnmemoized:
    def test_corpus_conversions_negations_and_mutants(self, cases):
        outcomes = [_same_outcome(p, pol) for p, pol in cases]
        assert {ok for ok, _, _ in outcomes} == {True, False}

    def test_criterion_11_draws(self, criterion_11_proofs):
        for p in criterion_11_proofs:
            assert _same_outcome(p, M_POLICY)[0]

    def test_nested_draws(self):
        rng = random.Random(1010)
        for _ in range(200):
            phi = random_decidable_sentence(rng, want_true=rng.random() < 0.5, qdepth=3)
            assert _same_outcome(prove_eldiag(phi), M_POLICY)[0]


def test_handler_calls_on_criterion_11(monkeypatch, criterion_11_proofs):
    # each node check runs one rule handler or _check_axiom; without the
    # memo the 300 proofs took 110,188 of them, 6.58 per node
    calls = [0]
    counted = partial(_counted, calls)
    for tag, row in kernel._RULES.items():
        monkeypatch.setitem(kernel._RULES, tag,
                            dataclasses.replace(row, handler=counted(row.handler)))
    monkeypatch.setattr(kernel._Checker, "_check_axiom",
                        counted(kernel._Checker._check_axiom))
    nodes = 0
    for p in criterion_11_proofs:
        nodes += sum(1 for _ in sx.subobjects(p))
        assert check(p, M_POLICY).ok
    assert (calls[0], nodes) == (54788, 16743)


def test_fact_fills_in_checks_on_criterion_11(monkeypatch):
    # a node rebuilt at a sample keeps its original's free variables and
    # template flag where its children keep theirs, so most instance
    # sentences read both from their slots; instances built with empty
    # slots took 57,443 free-variable and 62,834 template fills; before
    # eldiag built each h(c..) image once per named term, 30,036 and 35,426
    rng = random.Random(1111)
    proofs = [prove_eldiag(random_decidable_sentence(rng, want_true=i < 200))
              for i in range(300)]
    for x in (sx.ZERO, sx.FALSUM):  # shared by every test; filled here or before
        sx.free_vars(x), tp.has_templates(x)
    fills = {"_fv": 0, "_tm": 0}

    def counted(slot, compute):
        def fill(x):
            fills[slot] += 1
            return compute(x)
        return sx.fact(slot, fill)

    monkeypatch.setattr(sx, "free_vars", counted("_fv", sx._free_vars))
    monkeypatch.setattr(tp, "_template_fact", counted("_tm", tp._templates))
    for p in proofs:
        assert check(p, M_POLICY).ok
    assert fills == {"_fv": 27362, "_tm": 32752}


def test_prop_handler_calls_on_the_certified_corpus(monkeypatch):
    # a certified node whose sentences, premises and certificate lack a
    # sample's parameter is the schema's own object at that sample, so the
    # memo skips it; replaying every certificate at every sample took 1,241
    calls = [0]
    row = kernel._RULES["prop"]
    monkeypatch.setitem(kernel._RULES, "prop",
                        dataclasses.replace(row, handler=_counted(calls, row.handler)))
    for entry in base_corpus():
        pol = RulePolicy(allow_prop=True, extra_axioms=entry.policy.extra_axioms)
        assert check(to_certified_calculus(entry.proof), pol).ok, entry.name
    assert calls[0] == 701


def test_free_var_fills_in_certificate_checks_on_the_certified_corpus(monkeypatch):
    # certificate_errors takes the closedness of an ax line that rebuilds
    # from closed arguments, and of an mp line citing a closed implication,
    # from its justification; walking every line made 89,223 fills, and
    # before instances kept their schema's facts there were 11,139, and
    # before eldiag built each h(c..) image once per named term 10,347
    fills, inside = [0], [False]
    fill = sx._free_vars
    errors = propcalc.certificate_errors

    def counted_fill(x):
        fills[0] += inside[0]
        return fill(x)

    def counted_errors(*args, **kwargs):
        inside[0] = True
        try:
            return errors(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(sx, "free_vars", sx.fact("_fv", counted_fill))
    monkeypatch.setattr(propcalc, "certificate_errors", counted_errors)
    for entry in base_corpus():
        pol = RulePolicy(allow_prop=True, extra_axioms=entry.policy.extra_axioms)
        assert check(to_certified_calculus(entry.proof), pol).ok, entry.name
    assert fills[0] == 10312


def _counted(calls, handler):
    def run(*args):
        calls[0] += 1
        return handler(*args)
    return run


# two proofs in which one subproof object is checked first inside a schema
# over a, where it passes, and then inside a schema that also binds b, where
# it fails; a memo keyed on the object alone would accept both
_A, _B = sx.const(Sym("a")), sx.const(Sym("b"))
_SAMPLES = ((std(0),), (std(1),))


def _refl(i):
    return sx.Eq(sx.Var(i), sx.Var(i))


def _or_i3(left: Proof, right: Proof, f, g) -> Proof:
    """From context plus not f and context plus not g, the context plus
    not (f or g); here not f is in the context."""
    concl = left.conclusion.sentences | {sx.Not(sx.Or(f, g))}
    return Proof(seq(*concl), "or-i3", (left, right))


def _under_a(inner: Proof) -> Proof:
    """An m-rule over a whose schema weakens inner by not (a = a)."""
    context = inner.conclusion.sentences
    schema = Proof(seq(sx.Not(sx.Eq(_A, _A)), *context), "weak", (inner,))
    return Proof(seq(sx.Not(sx.Ex(3, _refl(3))), *context), "m-rule", (),
                 Uniform(("a",), schema, _SAMPLES))


def shared_axiom2():
    """not (b = 3) is axiom2 while b is a free constant, not once b is a
    parameter: b could be sampled at 3."""
    three = sx.const(std(3))
    f, g = sx.Eq(_B, three), sx.Ex(1, sx.Eq(sx.Var(1), three))
    leaf = Proof(seq(sx.Not(f)), "axiom2")
    over_b = Proof(seq(sx.Not(g)), "m-rule", (), Uniform(("b",), leaf, _SAMPLES))
    right = Proof(seq(sx.Not(f), sx.Not(g)), "weak", (over_b,))
    return _under_a(_or_i3(leaf, right, f, g))


def shared_m_rule():
    """An m-rule over b is fine on its own but not inside another schema
    over b, where b is not fresh."""
    f, g = sx.Ex(1, sx.Not(_refl(1))), sx.Ex(2, _refl(2))
    b_is_b = sx.Eq(_B, _B)
    inner_schema = Proof(seq(sx.Not(sx.Not(b_is_b))), "neg-i", (Proof(seq(b_is_b), "axiom3"),))
    inner = Proof(seq(sx.Not(f)), "m-rule", (), Uniform(("b",), inner_schema, _SAMPLES))
    wrap_schema = Proof(seq(sx.Not(b_is_b), sx.Not(f)), "weak", (inner,))
    wrap = Proof(seq(sx.Not(g), sx.Not(f)), "m-rule", (), Uniform(("b",), wrap_schema, _SAMPLES))
    return _under_a(_or_i3(inner, wrap, f, g))


class TestFewerParametersOnly:
    @pytest.mark.parametrize("build, error", [
        (shared_axiom2, "u/0/1/0/u: conclusion does not instantiate axiom2"),
        (shared_m_rule, "u/0/1/u/0: parameter b is not fresh"),
    ])
    def test_a_pass_is_not_reused_under_more_parameters(self, build, error):
        p = build()
        rep = check(p, M_POLICY)
        assert (rep.ok, rep.height, [str(x) for x in rep.errors]) == (False, None, [error])
        assert _same_outcome(p, M_POLICY)[0] is False

    @pytest.mark.parametrize("build", [shared_axiom2, shared_m_rule])
    def test_the_shared_subproof_passes_outside_the_inner_schema(self, build):
        # the or-i3 node's left premise is the shared object; it checks
        # on its own and under a alone
        left = build().uniform.schema.premises[0].premises[0]
        assert check(left, M_POLICY).ok
        assert kernel._Checker(M_POLICY).check(left, (), frozenset({"a"})) is not None


def _nested_refutation():
    # the corpus's uniform-refutation-2: a schema nested in a schema
    return sx.Ex(0, sx.Or(sx.Eq(sx.Succ(sx.Var(0)), sx.ZERO),
                          sx.Ex(1, sx.Eq(sx.Succ(sx.Var(1)), sx.ZERO))))


class TestEntriesEndWithTheirSchema:
    def test_no_entry_outlives_its_sample_its_schema_or_the_check(
            self, monkeypatch, cases, criterion_11_proofs):
        spans = []  # per schema: the memo's keys on entering and on leaving
        samples = []  # per schema being checked: the memo's keys at each sample

        def watched(handler):
            def run(ck, *args):
                before = list(ck.passed)
                samples.append([])
                h = handler(ck, *args)
                at_samples = samples.pop()
                assert all(keys == at_samples[0] for keys in at_samples)
                spans.append((before, list(ck.passed)))
                return h
            return run

        def instantiate(ck, *args):
            samples[-1].append(list(ck.passed))
            return checker_instantiate(ck, *args)

        checker_instantiate = kernel._Checker._instantiate
        monkeypatch.setattr(kernel._Checker, "_instantiate", instantiate)
        for tag in ("m-rule", "m-inf"):
            row = kernel._RULES[tag]
            monkeypatch.setitem(kernel._RULES, tag,
                                dataclasses.replace(row, handler=watched(row.handler)))
        proofs = [(prove_eldiag(_nested_refutation()), M_POLICY),
                  (shared_axiom2(), M_POLICY), (shared_m_rule(), M_POLICY)]
        proofs += [(p, M_POLICY) for p in criterion_11_proofs[::10]]
        proofs += cases
        for p, pol in proofs:
            ck = kernel._Checker(pol)
            ck.check(p)
            assert ck.passed == {}
        for before, after in spans:
            assert after == before
        # and the memo did store: a schema nested in another starts with
        # the outer one's entries
        assert any(before for before, _ in spans)
