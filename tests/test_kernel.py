import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.kernel as kernel
import satkit.syntax as sx
import satkit.template as tp
from satkit.corpus import (
    axiom_instances, base_corpus, commute_or_proof, mprop_entries,
    neq_from_hypotheses,
)
from satkit.elements import ElementError, Std, Sym, add, mul, std, subst_base, succ, sym
from satkit.kernel import (
    AXIOM_TAGS, DEFAULT_SAMPLES, FUNCTION_AXIOMS, KernelError, M_FREE_POLICY, M_POLICY,
    TEMPLATE_POLICY, Proof, RulePolicy, Sequent, Uniform, bases_of, check, match_axiom,
    match_instance, seq, subst_param_proof, vee,
)
from satkit.syntax import fold, subobjects
from satkit.skolem import quantseq, table_of
from generators import random_formula, random_templated, random_term


def c(n):
    return sx.const(std(n))


def v(i):
    return sx.Var(i)


e, n, o = sx.Eq, sx.Not, sx.Or
ZERO_EQ = e(sx.ZERO, sx.ZERO)
ONE_EQ = e(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))


def omega_demo_proof(count: int = 3) -> Proof:
    """A finite truncation of a genuinely non-uniform premise family,
    which the checker rejects as incomplete."""
    target = n(sx.Ex(1, n(e(v(1), v(1)))))
    prems = []
    for k in range(count):
        ax = Proof(seq(e(c(k), c(k))), "axiom3")
        prems.append(Proof(seq(n(n(e(c(k), c(k))))), "neg-i", (ax,)))
    return Proof(seq(target), "m-rule", tuple(prems), None,
                 {"note": "demonstration only"})


class TestSequents:
    def test_set_semantics(self):
        assert seq(ZERO_EQ, ZERO_EQ) == seq(ZERO_EQ)

    def test_open_sentence_rejected(self):
        with pytest.raises(KernelError):
            seq(e(v(0), sx.ZERO))

    def test_abbreviation_rejected(self):
        with pytest.raises(KernelError):
            seq(sx.And(ZERO_EQ, ZERO_EQ))

    def test_canonical_disjunction_is_code_ordered(self):
        d = vee({ZERO_EQ, ONE_EQ, n(ZERO_EQ)})
        assert isinstance(d, sx.Or)
        assert vee({ONE_EQ, n(ZERO_EQ), ZERO_EQ}) == d
        assert vee(()) == sx.FALSUM


class TestFigureTrees:
    def test_commutativity_proof_checks_with_height(self):
        p = commute_or_proof(ZERO_EQ, ONE_EQ)
        rep = check(p, M_POLICY)
        assert rep.ok and rep.height == 6

    def test_hypothesis_proof_checks(self):
        t = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        r = sx.Mul(c(2), c(3))
        hyps = {e(t, c(2)), e(r, c(6))}
        p = neq_from_hypotheses(t, r, std(2), std(6))
        rep = check(p, RulePolicy(extra_axioms=hyps.__contains__))
        assert rep.ok

    def test_hypothesis_proof_fails_without_oracle(self):
        t = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        p = neq_from_hypotheses(t, c(9), std(2), std(9))
        rep = check(p, M_POLICY)
        assert not rep.ok

    def test_omega_demo_never_completes(self):
        rep = check(omega_demo_proof(), M_POLICY)
        assert not rep.ok
        assert "complete" in (rep.first_error() or "")


class TestAxiomMatching:
    def test_all_axiom_instances(self):
        for entry in axiom_instances():
            assert check(entry.proof, entry.policy).ok, entry.name

    def test_axiom2_needs_distinct_elements(self):
        bad = Proof(seq(n(e(c(3), c(3)))), "axiom2")
        assert not check(bad, M_POLICY).ok

    def test_axiom9_ground_arithmetic(self):
        good = Proof(seq(e(sx.Succ(c(4)), c(5))), "axiom9")
        bad = Proof(seq(e(sx.Succ(c(4)), c(6))), "axiom9")
        assert check(good, M_POLICY).ok
        assert not check(bad, M_POLICY).ok

    def test_axiom9_symbolic(self):
        a = sym("a")
        good = Proof(seq(e(sx.Succ(sx.const(a)), sx.const(Sym("a", a.coeff, 1)))),
                     "axiom9")
        assert check(good, M_POLICY).ok

    def test_axiom12_excluded_in_free_mode(self):
        p = Proof(seq(sx.Ex(0, e(sx.Succ(sx.ZERO), v(0)))), "axiom12")
        assert check(p, M_POLICY).ok
        assert not check(p, M_FREE_POLICY).ok

    def test_free_proofs_check_in_full_logic(self):
        for entry in base_corpus():
            rep_free = check(entry.proof, RulePolicy(
                logic="m-free", extra_axioms=entry.policy.extra_axioms))
            if rep_free.ok:
                rep_full = check(entry.proof, RulePolicy(
                    logic="m", extra_axioms=entry.policy.extra_axioms))
                assert rep_full.ok


def _ref_match_compat(s, head):
    """The reference compatibility matcher: one branch for Sc and one for
    + and *, with their parts."""
    for f in s:
        if not (isinstance(f, sx.Eq) and isinstance(f.left, head) and isinstance(f.right, head)):
            continue
        if head is sx.Succ:
            t, tp_ = f.left.arg, f.right.arg
            n1 = sx.Not(sx.Eq(t, tp_))
            if s == {n1, f} and _ref_closed(t) and _ref_closed(tp_):
                return {"t": t, "t2": tp_, "eq": f}
            continue
        t, r = f.left.left, f.left.right
        t2, r2 = f.right.left, f.right.right
        n1, n2 = sx.Not(sx.Eq(t, t2)), sx.Not(sx.Eq(r, r2))
        if s == {n1, n2, f} and all(_ref_closed(x) for x in (t, r, t2, r2)):
            return {"t": t, "r": r, "t2": t2, "r2": r2, "eq": f}
    return None


def _ref_match_ground_op(s, op):
    """The reference ground-operation matcher, over an op string."""
    if len(s) != 1:
        return None
    (f,) = s
    if not isinstance(f, sx.Eq):
        return None
    w = sx.const_elem(f.right)
    if w is None:
        return None
    try:
        if op == "sc":
            if not isinstance(f.left, sx.Succ):
                return None
            u = sx.const_elem(f.left.arg)
            if u is None or succ(u) != w:
                return None
            return {"a": u, "b": w}
        head = sx.Add if op == "+" else sx.Mul
        if not isinstance(f.left, head):
            return None
        u, v = sx.const_elem(f.left.left), sx.const_elem(f.left.right)
        if u is None or v is None:
            return None
        got = add(u, v) if op == "+" else mul(u, v)
        if got != w:
            return None
        return {"a": u, "b": v, "c": w}
    except ElementError:
        return None


def _ref_closed(t):
    return isinstance(t, sx.Term) and sx.is_closed(t)


_HEADS = (sx.Succ, sx.Add, sx.Mul)
_ARITY = {sx.Succ: 1, sx.Add: 2, sx.Mul: 2}
_REF_OPS = {sx.Succ: "sc", sx.Add: "+", sx.Mul: "*"}


def _axiom_elem(rng):
    """A standard element, or a symbolic one over p or q, so that sums and
    products over two of them are at times Indeterminate."""
    if rng.random() < 0.6:
        return std(rng.randrange(5))
    return sym(rng.choice("pq"), rng.choice((1, 2, Fraction(1, 2))), rng.randrange(3))


def _axiom_arg(rng):
    roll = rng.random()
    if roll < 0.5:
        return sx.const(_axiom_elem(rng))
    if roll < 0.85:
        return random_term(rng, 2, max_const=4, closed=True)
    return random_term(rng, 2, max_const=4)  # open at times


def _compat_sequent(rng, head):
    """{t_k != t'_k, h(t..) = h(t'..)}, at times with a wrong pair, a
    dropped or extra sentence, a swapped equation or another head."""
    arity = _ARITY[head]
    ts = [_axiom_arg(rng) for _ in range(arity)]
    t2s = [t if rng.random() < 0.3 else _axiom_arg(rng) for t in ts]
    eq = sx.Eq(head(*ts), head(*t2s))
    negs = [sx.Not(sx.Eq(t, t2)) for t, t2 in zip(ts, t2s)]
    roll = rng.random()
    if roll < 0.1:
        k = rng.randrange(arity)
        negs[k] = sx.Not(sx.Eq(t2s[k], ts[k]))
    elif roll < 0.2:
        negs[rng.randrange(arity)] = sx.Not(sx.Eq(_axiom_arg(rng), _axiom_arg(rng)))
    elif roll < 0.25:
        negs.pop()
    elif roll < 0.3:
        negs.append(sx.Eq(sx.ZERO, sx.ZERO))
    elif roll < 0.35:
        other = rng.choice(_HEADS)
        eq = sx.Eq(eq.left, other(*[ts[0]] * _ARITY[other]))
    return frozenset((*negs, eq))


def _ground_sequent(rng, head):
    """{h(c..) = c'}, c' the operation's value when it has one, at times
    off by one, over a non-constant argument, or with an extra sentence."""
    arity = _ARITY[head]
    args = [_axiom_elem(rng) for _ in range(arity)]
    try:
        w = sx.OPERATIONS[head](*args)
    except ElementError:
        w = _axiom_elem(rng)
    if rng.random() < 0.2:
        w = succ(w)
    terms = [sx.const(a) for a in args]
    if rng.random() < 0.15:
        terms[rng.randrange(arity)] = _axiom_arg(rng)
    right = sx.const(w) if rng.random() < 0.9 else _axiom_arg(rng)
    s = {sx.Eq(head(*terms), right)}
    if rng.random() < 0.1:
        s.add(sx.Eq(sx.ZERO, sx.ZERO))
    return frozenset(s)


class TestFunctionAxioms:
    """The compatibility and ground-operation matchers, one per function
    symbol's row, held to the per-symbol references."""

    def test_every_row_names_axiom_tags_its_corpus_instances_match(self):
        instances = {entry.name: entry.proof for entry in axiom_instances()}
        assert set(FUNCTION_AXIOMS) == set(sx.OPERATIONS)
        for head, tags in FUNCTION_AXIOMS.items():
            for tag in tags:
                assert tag in AXIOM_TAGS
                s = instances[tag].conclusion.sentences
                parts = match_axiom(tag, s, frozenset())
                assert parts is not None and type(parts["eq"].left) is head, tag
                assert parts["eq"] in s

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_matchers_agree_with_the_references(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            head = rng.choice(_HEADS)
            compat = rng.random() < 0.5
            s = _compat_sequent(rng, head) if compat else _ground_sequent(rng, head)
            for tagged in _HEADS:  # the right head and both wrong ones
                tag_c, tag_g = FUNCTION_AXIOMS[tagged]
                want = _ref_match_compat(s, tagged)
                assert match_axiom(tag_c, s, frozenset()) == (
                    None if want is None else {"eq": want["eq"]})
                want = _ref_match_ground_op(s, _REF_OPS[tagged])
                assert match_axiom(tag_g, s, frozenset()) == (
                    None if want is None else {"eq": next(iter(s))})

    def test_the_sequents_reach_every_verdict(self):
        rng = random.Random(6)
        seen = {(tag, ok): 0 for tags in FUNCTION_AXIOMS.values() for tag in tags
                for ok in (True, False)}
        indeterminate = 0
        for _ in range(3000):
            head = rng.choice(_HEADS)
            compat = rng.random() < 0.5
            s = _compat_sequent(rng, head) if compat else _ground_sequent(rng, head)
            tag = FUNCTION_AXIOMS[head][0 if compat else 1]
            seen[tag, match_axiom(tag, s, frozenset()) is not None] += 1
            if not compat and len(s) == 1 and head is not sx.Succ:
                args = [sx.const_elem(t) for t in next(iter(s)).left.children]
                if None not in args:
                    try:
                        sx.OPERATIONS[head](*args)
                    except ElementError:
                        indeterminate += 1
        assert all(k >= 50 for k in seen.values()), seen
        assert indeterminate >= 50


class TestRuleArity:
    def test_cut_with_one_premise(self):
        ax = Proof(seq(ZERO_EQ), "axiom3")
        bad = Proof(seq(ZERO_EQ), "cut", (ax,))
        rep = check(bad, M_POLICY)
        assert not rep.ok and "two premises" in rep.first_error()

    def test_weak_cannot_add_two(self):
        ax = Proof(seq(ZERO_EQ), "axiom3")
        bad = Proof(seq(ZERO_EQ, ONE_EQ, n(n(ZERO_EQ))), "weak", (ax,))
        assert not check(bad, M_POLICY).ok

    def test_corrupted_node_rejected(self):
        p = commute_or_proof(ZERO_EQ, ONE_EQ)
        bad = Proof(seq(o(ONE_EQ, ZERO_EQ)), p.rule, p.premises, p.uniform)
        assert not check(bad, M_POLICY).ok


class _RefNoMatch(Exception):
    pass


def _ref_match_instance(f, i, psi):
    """The reference matcher: a walk over f and psi together, collecting
    the constants that stand for v_i, with one witness when they agree. It
    refuses an abbreviation inside a box, which match_instance substitutes
    through, so the properties below give it none."""
    tp.has_templates(f)
    if i not in sx.free_vars(f):
        return [] if f == psi else None
    found = []
    try:
        _ref_match_walk(f, psi, False, i, found)
    except _RefNoMatch:
        return None
    if not found or any(w != found[0] for w in found):
        return None
    return [found[0]]


def _ref_match_walk(a, b, shadowed, i, found):
    if shadowed:
        if a != b:
            raise _RefNoMatch
        return
    if type(a) is sx.Var and a.index == i:
        w = sx.const_elem(b)
        if w is None:
            raise _RefNoMatch
        found.append(w)
        return
    if type(a) is not type(b) or a.extended:
        raise _RefNoMatch
    if isinstance(a, sx.Sealed):
        _ref_match_walk(a.obj, b.obj, False, i, found)
        return
    kids = a.children
    if not kids:
        if a != b:
            raise _RefNoMatch
        return
    if a.scope and a.index != b.index:
        raise _RefNoMatch
    for pos, (x, y) in enumerate(zip(kids, b.children)):
        _ref_match_walk(x, y, pos in a.scope and a.index == i, i, found)


def _with_constant(x, k, new):
    """x with its k-th constant in pre-order, boxes read through, made new."""
    seen = 0

    def go(y):
        nonlocal seen
        if isinstance(y, sx.Sealed):
            return type(y)(go(y.obj))
        if sx.const_elem(y) is not None:
            seen += 1
            return new if seen == k else y
        return y.rebuild(*map(go, y.children))

    return go(x)


def _random_elem(rng):
    return std(rng.randrange(4)) if rng.random() < 0.7 else sym("p", 1, rng.randrange(2))


def _instance_query(rng):
    """(f, i, psi): f with boxes and towers over symbolic indices (or
    plain), under a binder that shadows v_i at times; psi an instance of
    f, an instance with one constant changed (inconsistent witnesses when
    it stood for v_i), an unrelated formula, or f itself."""
    f = random_templated(rng, 3) if rng.random() < 0.5 else random_formula(rng, 3, max_const=3)
    if rng.random() < 0.3:
        f = sx.Or(f, sx.Ex(rng.randrange(3), f))
    i = rng.randrange(3)
    psi = tp.templ_substitute(f, _random_elem(rng), i)
    roll = rng.random()
    if roll < 0.35:
        psi = _with_constant(psi, rng.randrange(1, 6), sx.const(_random_elem(rng)))
    elif roll < 0.45:
        psi = random_formula(rng, 3, max_const=3)
    elif roll < 0.5:
        psi = f
    return f, i, psi


class TestExistentialRules:
    def test_witness_inference(self):
        body = e(v(0), c(3))
        p = Proof(seq(sx.Ex(0, body)), "ex-i",
                  (Proof(seq(e(c(3), c(3))), "axiom3"),))
        assert check(p, M_POLICY).ok  # witness found by matching

    def test_wrong_instance_rejected(self):
        body = e(v(0), c(3))
        p = Proof(seq(sx.Ex(0, body)), "ex-i",
                  (Proof(seq(e(c(4), c(4))), "axiom3"),))
        assert not check(p, M_POLICY).ok

    def test_match_instance_consistency(self):
        body = e(sx.Add(v(0), v(0)), c(4))
        assert match_instance(body, 0, e(sx.Add(c(2), c(2)), c(4))) == [std(2)]
        assert match_instance(body, 0, e(sx.Add(c(2), c(3)), c(4))) is None

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_match_instance_agrees_with_the_reference_walk(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            f, i, psi = _instance_query(rng)
            assert match_instance(f, i, psi) == _ref_match_instance(f, i, psi)

    def test_the_instance_queries_reach_every_verdict(self):
        rng = random.Random(5)
        verdicts = {"none": 0, "any": 0, "std": 0, "sym": 0}
        for _ in range(1000):
            ws = match_instance(*_instance_query(rng))
            kind = "none" if ws is None else "any" if not ws else \
                "std" if isinstance(ws[0], Std) else "sym"
            verdicts[kind] += 1
        assert all(n >= 50 for n in verdicts.values()), verdicts

    @pytest.mark.parametrize("info", [{"witness": std(0)}, {}], ids=["witness", "matched"])
    def test_instance_under_a_boxed_abbreviation(self, info):
        # substitution reaches an abbreviation inside a box, so the
        # instance checks with its witness given and with it matched
        body = tp.TemplForm(sx.And(e(v(0), sx.ZERO), ZERO_EQ))
        inst = tp.TemplForm(sx.And(ZERO_EQ, ZERO_EQ))
        assert match_instance(body, 0, inst) == [std(0)]
        ax = Proof(seq(inst, n(inst)), "axiom1")
        p = Proof(seq(sx.Ex(0, body), n(inst)), "ex-i", (ax,), info=info)
        rep = check(p, TEMPLATE_POLICY)
        assert rep.ok and rep.height == 1

    def test_match_instance_rejects_an_abbreviation(self):
        # certificate lines reach it unchecked (prop-check --first-order)
        body = sx.And(e(v(0), c(2)), e(v(0), c(2)))
        inst = sx.And(e(c(2), c(2)), e(c(2), c(2)))
        for i, psi in ((0, inst), (1, body)):  # an instance, and a vacuous match
            with pytest.raises(tp.TemplateError, match="non-primitive node And"):
                match_instance(body, i, psi)

    def test_m_rule_requires_fresh_parameter(self):
        base = "p"
        inst = n(e(sx.Succ(sx.const(Sym(base))), sx.ZERO))
        schema = Proof(seq(inst), "axiomL")
        target = n(sx.Ex(0, e(sx.Succ(v(0)), sx.ZERO)))
        # conclusion mentioning the parameter base is rejected
        poisoned = Proof(
            Sequent(frozenset((target, e(sx.const(Sym(base)), sx.const(Sym(base)))))),
            "m-rule", (), Uniform((base,), schema, ((std(0),),)))
        rep = check(poisoned, RulePolicy(extra_axioms=lambda f: True))
        assert not rep.ok and "fresh" in rep.first_error()

    def test_m_rule_sampling_catches_bad_instance(self):
        # schema claims c_p != c_17, which fails at the sample p := 17
        base = "p"
        schema = Proof(seq(n(e(sx.const(Sym(base)), c(17)))), "axiom2")
        target = n(sx.Ex(0, e(v(0), c(17))))
        node = Proof(seq(target), "m-rule", (),
                     Uniform((base,), schema, ((std(17),),)))
        rep = check(node, M_POLICY)
        assert not rep.ok

    def test_m_rule_structural_parametricity_catches_bad_axiom2(self):
        # even without the witnessing sample, the parametric check rejects
        base = "p"
        schema = Proof(seq(n(e(sx.const(Sym(base)), c(17)))), "axiom2")
        target = n(sx.Ex(0, e(v(0), c(17))))
        node = Proof(seq(target), "m-rule", (),
                     Uniform((base,), schema, ((std(0),), (std(1),))))
        assert not check(node, M_POLICY).ok

    def test_sample_leaving_the_naturals_is_a_located_error(self):
        rep = check(_half_sample_proof(), M_POLICY)
        assert not rep.ok
        assert [str(err).split(":")[0] for err in rep.errors] == ["s/1"]
        assert "not a natural" in rep.first_error()

    def test_instantiation_shares_what_lacks_the_parameter(self):
        plain = e(c(3), c(3))
        plain_proof = Proof(seq(plain), "axiom3")
        mentions = e(sx.const(Sym("p")), sx.const(Sym("p")))
        p = Proof(seq(mentions, plain), "weak", (plain_proof,))
        got = subst_param_proof(p, "p", std(4))
        assert got.conclusion.sentences == {e(c(4), c(4)), plain}
        assert got.premises[0] is plain_proof
        assert any(f is plain for f in got.conclusion)
        assert subst_param_proof(plain_proof, "p", std(4)) is plain_proof

    def test_unsampled_uniform_rejected(self):
        base = "p"
        schema = Proof(seq(n(e(sx.Succ(sx.const(Sym(base))), sx.ZERO))), "axiomL")
        target = n(sx.Ex(0, e(sx.Succ(v(0)), sx.ZERO)))
        node = Proof(seq(target), "m-rule", (), Uniform((base,), schema, ()))
        rep = check(node, RulePolicy(extra_axioms=lambda f: True))
        assert not rep.ok and "unsampled" in rep.first_error().lower()


def _half_sample_proof():
    """An m-rule whose schema cuts on c_{q/2} = c_{q/2}; at q := 1 that
    constant would name 1/2, so sample 1 cannot be instantiated."""
    q = sx.const(Sym("q"))
    half = sx.const(sym("q", Fraction(1, 2)))
    claim = n(n(e(q, q)))
    schema = Proof(seq(claim), "cut", (
        Proof(seq(claim, e(half, half)), "weak", (Proof(seq(e(half, half)), "axiom3"),)),
        Proof(seq(claim, n(e(half, half))), "weak", (
            Proof(seq(claim), "neg-i", (Proof(seq(e(q, q)), "axiom3"),)),)),
    ))
    target = n(sx.Ex(0, n(e(v(0), v(0)))))
    return Proof(seq(target), "m-rule", (),
                 Uniform(("q",), schema, tuple((s,) for s in DEFAULT_SAMPLES)))


def _proof_nodes(p):
    yield p
    for q in p.premises:
        yield from _proof_nodes(q)
    if p.uniform is not None:
        yield from _proof_nodes(p.uniform.schema)


def _post_order(p):
    for q in p.children:
        yield from _post_order(q)
    yield p


def _ref_inst(x, base, value):
    """Instantiate ``base := value`` in every element slot, with no memo,
    rebuilding every node."""
    if isinstance(x, sx.Const):
        return sx.const(subst_base(x.elem, base, value))
    if isinstance(x, sx.SymTermRef):
        idx = subst_base(x.index, base, value)
        if isinstance(idx, Std):
            return sx.numeral(idx) if x.family == "num" else sx.addtower(idx)
        return sx.SymTermRef(x.family, idx)
    if isinstance(x, sx.SymFormulaRef):
        idx = subst_base(x.index, base, value)
        payload = None if x.payload is None else _ref_inst(x.payload, base, value)
        if isinstance(idx, Std):
            return sx.delta(idx) if x.family == "delta" else sx.epsilon(idx, payload)
        return sx.SymFormulaRef(x.family, idx, payload)
    return type(x)(*(_ref_inst(v, base, value) if isinstance(v, (sx.Term, sx.Formula)) else v
                     for v in (getattr(x, f.name) for f in dataclasses.fields(x))))


class TestInstantiationMemo:
    def test_memoized_instantiation_matches_a_fresh_one(self):
        # one memo per (parameter, value) shared by every call, as within
        # one check, against a fresh memo per call and an unmemoized walk;
        # every prop and pred node comes out with its certificate instantiated
        from satkit.transform import to_certified_calculus
        proofs = [e.proof for e in mprop_entries()] + \
            [to_certified_calculus(e.proof) for e in base_corpus()]
        shared: dict = {}
        certified = parametric = 0
        for p in proofs:
            bases = set().union(*(bases_of(f) for q in _proof_nodes(p) for f in q.conclusion))
            for base in sorted(bases) or ["p"]:
                for value in DEFAULT_SAMPLES:
                    memo = shared.setdefault((base, value), {})
                    got = subst_param_proof(p, base, value, memo)
                    fresh = subst_param_proof(p, base, value)
                    assert got == fresh
                    for old, a, b in zip(_proof_nodes(p), _proof_nodes(got),
                                         _proof_nodes(fresh)):
                        assert a.conclusion.sentences == b.conclusion.sentences == {
                            _ref_inst(f, base, value) for f in old.conclusion}
                        if old.rule in ("prop", "pred"):
                            assert a.info["prop"]["cert"].lines == \
                                b.info["prop"]["cert"].lines
                            certified += 1
                            parametric += bool(bases)
        assert certified > 0 and parametric > 0

    def test_equal_sentences_share_one_instance_across_calls(self):
        mentions = e(sx.const(Sym("p")), sx.const(Sym("p")))
        memo: dict = {}
        first = subst_param_proof(Proof(seq(mentions), "axiom3"), "p", std(4), memo)
        twin = e(sx.const(Sym("p")), sx.const(Sym("p")))
        second = subst_param_proof(Proof(seq(twin, ZERO_EQ), "weak", (first,)),
                                   "p", std(4), memo)
        (a,) = first.conclusion.sentences
        assert a == e(c(4), c(4)) and any(f is a for f in second.conclusion)

    def test_a_certified_subtree_without_the_parameter_is_kept(self):
        from satkit.transform import to_certified_calculus
        cp = sx.const(Sym("p"))
        plain = to_certified_calculus(commute_or_proof(ZERO_EQ, ONE_EQ))
        mentions = to_certified_calculus(commute_or_proof(e(cp, cp), ONE_EQ))
        assert plain.rule == mentions.rule == "prop"
        root = Proof(Sequent(plain.conclusion.sentences | mentions.conclusion.sentences),
                     "weak", (plain,))
        got = subst_param_proof(root, "p", std(4))
        assert got is not root and got.premises[0] is plain
        moved = subst_param_proof(mentions, "p", std(4))
        assert moved is not mentions and moved.info["prop"] != mentions.info["prop"]
        assert check(moved, RulePolicy(allow_prop=True)).ok


def _ref_subst_param_proof(p, base, value, memo):
    """The fold-based instantiation that plans replaced: every subproof is
    stepped at every sample, and one is rebuilt when a sentence, its side
    data or a premise changed."""
    def inst(f):
        return kernel.subst_elem_in_obj(f, base, value, memo)

    def step(p, subs):
        new, same = [], True
        for f in p.conclusion.sentences:
            if base in bases_of(f):  # then f's instance is a new object
                same = False
                g = memo.get(f)
                if g is None:
                    g = memo[f] = kernel._subst_elem(f, base, value, memo)
                f = g
            new.append(f)
        concl = p.conclusion if same else Sequent(frozenset(new))
        same = same and all(q2 is q for q2, q in zip(subs, p.children))
        info = dict(p.info) if p.info else {}
        if "witness" in info:
            info["witness"] = subst_base(info["witness"], base, value)
            same = same and info["witness"] is p.info["witness"]
        if "tuple" in info:
            info["tuple"] = tuple(subst_base(a, base, value) for a in info["tuple"])
            same = same and all(a is b for a, b in zip(info["tuple"], p.info["tuple"]))
        if "skolem" in info:
            sk = dict(info["skolem"])
            sk["phi"] = inst(sk["phi"])
            same = same and sk["phi"] is info["skolem"]["phi"]
            info["skolem"] = sk
        if "prop" in info:
            cert = info["prop"]["cert"]
            same = same and not any(
                base in bases_of(line.formula)
                or line.just[0] == "ax" and any(base in bases_of(a) for a in line.just[3])
                for line in cert.lines)
            if not same:
                hyp_map = {vee(q.conclusion.sentences): vee(r.conclusion.sentences)
                           for q, r in zip(p.premises, subs)}
                info["prop"] = {"cert": kernel._subst_certificate(
                    cert, inst, hyp_map, vee(concl.sentences))}
        return p if same else p.rebuild(concl, subs, info)

    return fold(p, step)


def _replay_sources():
    """The seeded criterion-11 eldiag output with a refutation of depth 2,
    base_corpus() and mprop_entries(), the certified conversions of both,
    and a schema whose sample 1 leaves the naturals."""
    from satkit.eldiag import prove_eldiag
    from satkit.transform import to_certified_calculus
    from generators import random_decidable_sentence
    rng = random.Random(1111)
    proofs = [prove_eldiag(random_decidable_sentence(rng, want_true=i < 200))
              for i in range(300)]
    proofs.append(prove_eldiag(sx.Ex(0, o(e(sx.Succ(v(0)), sx.ZERO),
                                          sx.Ex(1, e(sx.Succ(v(1)), sx.ZERO))))))
    corpus = [entry.proof for entry in base_corpus() + mprop_entries()]
    side_only = [_side_only_proof("ex-i", {"witness": Sym("q")}),
                 _side_only_proof("i-ex-inf", {"block": (1,), "tuple": (Sym("q"),)})]
    return (proofs + corpus + [to_certified_calculus(q) for q in corpus]
            + [_half_sample_proof()] + side_only)


def _side_only_proof(rule, info):
    """An m-rule over q whose schema introduces ex v1 (0 = 0) by ``rule``
    with side data ``info``, which alone names q there."""
    cq, ex = sx.const(Sym("q")), sx.Ex(1, ZERO_EQ)
    intro = Proof(seq(ex), rule, (Proof(seq(ZERO_EQ), "axiom3"),), info=info)
    schema = Proof(seq(ex, n(n(e(cq, cq)))), "weak", (intro,))
    return Proof(seq(ex, n(sx.Ex(0, n(e(v(0), v(0)))))), "m-rule", (),
                 Uniform(("q",), schema, tuple((a,) for a in DEFAULT_SAMPLES)))


class TestPlanReplay:
    def test_replay_is_the_fold_at_every_sample_of_every_schema(self):
        from satkit.sexpr import print_proof
        seen = {"nested": 0, "same": 0, "rebuilt": 0, "errors": 0, "certified": 0}
        for p in _replay_sources():
            memos: dict = {}  # one per side and (base, value), as in one check
            plans: dict = {}
            todo = [p]
            while todo:
                tree = todo.pop()
                for q in subobjects(tree):
                    if q.uniform is None:
                        continue
                    u = q.uniform
                    seen["nested"] += any(r.uniform is not None for r in subobjects(u.schema))
                    for values in u.sampled:
                        got = want = u.schema
                        try:
                            for base, value in zip(u.params, values):
                                memo = memos.setdefault(("ref", base, value), {})
                                want = _ref_subst_param_proof(want, base, value, memo)
                        except (ElementError, KernelError) as exc:
                            want = f"{type(exc).__name__}: {exc}"
                        try:
                            for base, value in zip(u.params, values):
                                plan = plans.setdefault((id(got), base),
                                                        (got, kernel.plan_instantiation(got, base)))
                                memo = memos.setdefault(("plan", base, value), {})
                                got = kernel.replay_plan(got, plan[1], base, value, memo)
                        except (ElementError, KernelError) as exc:
                            got = f"{type(exc).__name__}: {exc}"
                        if isinstance(want, str):
                            assert got == want
                            seen["errors"] += 1
                            continue
                        if any("prop" in r.info for r in subobjects(got)):
                            # printing certificates took most of this test's
                            # time; equal proofs print equally
                            assert got == want
                        else:
                            assert print_proof(got) == print_proof(want)
                        for old, a, b in zip(_proof_nodes(u.schema), _proof_nodes(got),
                                             _proof_nodes(want)):
                            assert (a is old) == (b is old)
                            seen["same" if a is old else "rebuilt"] += 1
                            seen["certified"] += a is not old and "prop" in a.info
                        if got is not u.schema:
                            todo.append(got)  # its schemas, instances themselves
        assert all(seen.values()), seen

    def test_without_the_checker_the_call_plans_for_itself(self):
        cq = sx.const(Sym("q"))
        leaf = Proof(seq(e(cq, cq)), "axiom3")
        plain = Proof(seq(ZERO_EQ), "axiom3")
        p = Proof(seq(e(cq, cq), ZERO_EQ), "weak", (leaf,))
        root = Proof(seq(e(cq, cq), ZERO_EQ, ONE_EQ), "weak", (p,))
        plan = kernel.plan_instantiation(root, "q")
        assert [step[0] for step in plan] == [leaf, p, root]
        assert kernel.plan_instantiation(plain, "q") == []
        got = subst_param_proof(root, "q", std(3))
        assert got.conclusion == seq(e(c(3), c(3)), ZERO_EQ, ONE_EQ)
        assert got.premises[0].premises[0].conclusion == seq(e(c(3), c(3)))
        assert subst_param_proof(plain, "q", std(3)) is plain
        # two premises that are one object stay one object, as in the fold
        twin = Proof(seq(e(cq, cq), ZERO_EQ), "cut", (p, p))
        got = subst_param_proof(twin, "q", std(3))
        assert got.premises[0] is got.premises[1] is not p
        assert got == _ref_subst_param_proof(twin, "q", std(3), {})

    def test_a_witness_alone_moves_its_node(self):
        p = _side_only_proof("ex-i", {"witness": Sym("q")})
        assert check(p, M_POLICY).ok
        schema = p.uniform.schema
        got = subst_param_proof(schema, "q", std(5))
        assert got.premises[0].info == {"witness": std(5)}
        assert got.premises[0].premises[0] is schema.premises[0].premises[0]


class TestProofProtocol:
    def test_rebuild_over_own_subproofs_is_the_node(self):
        uniform = 0
        for entry in base_corpus() + mprop_entries():
            for q in subobjects(entry.proof):
                same = q.rebuild(q.conclusion, q.children)
                assert same == q, entry.name
                assert same.info is not q.info
                uniform += q.uniform is not None
        assert uniform > 0

    def test_children_are_premises_then_schema(self):
        node = next(q for entry in base_corpus() for q in subobjects(entry.proof)
                    if q.uniform is not None)
        assert node.children == node.premises + (node.uniform.schema,)
        leaf = Proof(seq(ZERO_EQ), "axiom3")
        swapped = node.rebuild(node.conclusion, [leaf], info={"k": 1})
        assert swapped.uniform.schema is leaf and swapped.premises == ()
        assert swapped.uniform.params == node.uniform.params
        assert swapped.uniform.sampled == node.uniform.sampled
        assert swapped.info == {"k": 1} and swapped.rule == node.rule

    def test_subobjects_is_the_recursive_pre_order(self):
        for entry in base_corpus() + mprop_entries():
            got, want = list(subobjects(entry.proof)), list(_proof_nodes(entry.proof))
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want))

    def test_fold_steps_in_the_recursive_post_order(self):
        for entry in base_corpus() + mprop_entries():
            stepped = []

            def step(q, results):
                assert [r[0] for r in results] == list(q.children)
                stepped.append(q)
                return q, results

            assert fold(entry.proof, step)[0] is entry.proof
            want = list(_post_order(entry.proof))
            assert len(stepped) == len(want) and all(a is b for a, b in zip(stepped, want))

    def test_proof_nodes_on_a_deep_chain(self):
        # subobjects and the rewrites on fold take any height; the
        # checker recurses and is not called here
        from satkit.transform import move_hypotheses, to_certified_calculus
        from satkit.translate import _Translator

        def chain(leaf):
            for _ in range(3000):
                leaf = Proof(leaf.conclusion, "weak", (leaf,))
            return leaf

        p = chain(Proof(seq(ZERO_EQ), "axiom3"))
        assert sum(1 for _ in subobjects(p)) == 3001
        cp = sx.const(Sym("p"))
        inst = subst_param_proof(chain(Proof(seq(e(cp, cp)), "axiom3")), "p", std(4))
        assert all(q.conclusion == seq(e(c(4), c(4))) for q in subobjects(inst))
        certified = to_certified_calculus(p)
        assert [q.rule for q in subobjects(certified)] == ["prop"] * 3000 + ["axiom3"]
        moved = move_hypotheses(chain(Proof(seq(ONE_EQ), "axiomL")), [ONE_EQ])
        assert [q.rule for q in subobjects(moved)] == ["weak"] * 3000 + ["axiom1"]
        assert moved.conclusion == seq(ONE_EQ, n(ONE_EQ))
        tr = _Translator()
        f, q = tr.run(p)
        assert sum(1 for _ in subobjects(q)) == 3001 and len(tr.traces) == 3001


    def test_checker_height_at_the_default_recursion_limit(self):
        # the checker recurses once per proof level; with the premise
        # heights collected in a comprehension, one frame more per level,
        # a chain of 340 levels already raised RecursionError
        p = Proof(seq(ZERO_EQ), "axiom3")
        for k in range(1, 451):
            p = Proof(seq(*p.conclusion, e(c(k), c(k))), "weak", (p,))
        rep = check(p)
        assert rep.ok and rep.height == 450


def schema_block_proof(rule, info):
    """An m-rule over q concluding not ex v0 not ex v1 (v1 = v0), whose
    schema introduces ex v1 (v1 = c_q) by ``rule`` with side data ``info``
    over axiom3 on c_q = c_q."""
    cq = sx.const(Sym("q"))
    ex = sx.Ex(1, e(v(1), cq))
    intro = Proof(seq(ex), rule, (Proof(seq(e(cq, cq)), "axiom3"),), info=info)
    schema = Proof(seq(n(n(ex))), "neg-i", (intro,))
    return Proof(seq(n(sx.Ex(0, n(sx.Ex(1, e(v(1), v(0))))))), "m-rule", (),
                 Uniform(("q",), schema, tuple((a,) for a in DEFAULT_SAMPLES)))


class TestExtendedRules:
    def test_prop_rule(self):
        for entry in mprop_entries():
            assert check(entry.proof, entry.policy).ok, entry.name

    def test_prop_rule_needs_policy_flag(self):
        entry = mprop_entries()[0]
        assert not check(entry.proof, M_POLICY).ok

    def test_block_instantiation(self):
        # exists v0 v1 v2 (v0 + v1 = v2) instantiated by a coded triple
        body = e(sx.Add(v(0), v(1)), v(2))
        target = sx.Ex(0, sx.Ex(1, sx.Ex(2, body)))
        inst = e(sx.Add(c(2), c(3)), c(5))
        prem = Proof(seq(inst), "axiomL")
        node = Proof(seq(target), "i-ex-inf", (prem,),
                     info={"block": (0, 1, 2), "tuple": (std(2), std(3), std(5))})
        pol = RulePolicy(allow_inf=True, extra_axioms={inst}.__contains__)
        assert check(node, pol).ok

    def test_block_arity_mismatch(self):
        body = e(sx.Add(v(0), v(1)), v(2))
        target = sx.Ex(0, sx.Ex(1, sx.Ex(2, body)))
        inst = e(sx.Add(c(2), c(3)), c(5))
        prem = Proof(seq(inst), "axiomL")
        node = Proof(seq(target), "i-ex-inf", (prem,),
                     info={"block": (0, 1, 2), "tuple": (std(2), std(3))})
        pol = RulePolicy(allow_inf=True, extra_axioms={inst}.__contains__)
        rep = check(node, pol)
        assert not rep.ok and "arity" in rep.first_error()

    @pytest.mark.parametrize("rule, info, verdict", [
        ("i-ex-inf", {"block": (1,), "tuple": (Sym("q"),)}, None),
        ("ex-i", {"witness": Sym("q")}, None),
        ("i-ex-inf", {"block": (1,), "tuple": (Sym("q", 1, 1),)},
         "u/0: premise is not a block instance of the conclusion"),
        ("i-ex-inf", {"block": (1,), "tuple": (std(0),)},
         "u/0: premise is not a block instance of the conclusion"),
    ], ids=["tuple", "witness", "tuple-off-by-one", "tuple-standard"])
    def test_block_tuple_is_instantiated_at_samples(self, rule, info, verdict):
        # i-ex-inf's tuple mentions the schema's parameter, as ex-i's
        # witness does; each sample instantiates both alike
        p = schema_block_proof(rule, info)
        rep = check(p, RulePolicy(allow_inf=True))
        assert (rep.ok, rep.height, rep.first_error()) == (
            (True, 3, None) if verdict is None else (False, None, verdict))

    def test_m_inf_block_schema(self):
        # not exists v0 v1 (Sc(v0 + v1) = 0) via a two-parameter schema
        body = e(sx.Succ(sx.Add(v(0), v(1))), sx.ZERO)
        target = n(sx.Ex(0, sx.Ex(1, body)))
        pa, pb = Sym("pa"), Sym("pb")
        inst = n(e(sx.Succ(sx.Add(sx.const(pa), sx.const(pb))), sx.ZERO))
        schema = Proof(seq(inst), "axiomL")
        node = Proof(seq(target), "m-inf", (),
                     Uniform(("pa", "pb"), schema, ((std(0), std(0)), (std(2), std(5)))),
                     info={"block": (0, 1)})
        pol = RulePolicy(allow_inf=True, extra_axioms=lambda f: True)
        assert check(node, pol).ok

    def test_skolem_rule(self):
        q = quantseq(("A", 0), ("E", 1))
        phi = e(v(1), sx.Succ(v(0)))
        table = table_of({(k,): (k + 1,) for k in range(3)})
        samples = ((0,), (1,), (2,))
        from satkit.skolem import apply_skolem, build_prefixed
        target = build_prefixed(q, phi)
        prems = tuple(
            Proof(seq(apply_skolem(phi, q, table, a)), "axiomL") for a in samples)
        node = Proof(seq(target), "skolem", prems,
                     info={"skolem": {"q": q, "table": table, "phi": phi,
                                      "samples": samples}})
        pol = RulePolicy(allow_skolem=True, extra_axioms=lambda f: True)
        assert check(node, pol).ok

    def test_pred_rule_quantifier_axiom(self):
        from satkit.propcalc import CertLine, PropCertificate, imp
        exists = sx.Ex(0, e(v(0), c(2)))
        inst = e(c(2), c(2))
        prem = Proof(seq(inst), "axiom3")
        cert = PropCertificate((
            CertLine(inst, ("hyp",)),
            CertLine(imp(inst, exists), ("ax-fo",)),
            CertLine(exists, ("mp", 1, 0)),
        ))
        node = Proof(seq(exists), "pred", (prem,), info={"prop": {"cert": cert}})
        rep = check(node, RulePolicy(allow_pred=True))
        assert rep.ok
        # the same certificate is rejected in the propositional rule
        node2 = Proof(seq(exists), "prop", (prem,), info={"prop": {"cert": cert}})
        assert not check(node2, RulePolicy(allow_prop=True)).ok


    def test_wrong_scheme_arity_is_a_located_rejection(self):
        from satkit.propcalc import CertLine, PropCertificate
        cert = PropCertificate((CertLine(ZERO_EQ, ("ax", "add", "l", (ZERO_EQ,))),))
        node = Proof(seq(ZERO_EQ), "prop", (), info={"prop": {"cert": cert}})
        rep = check(node, RulePolicy(allow_prop=True))
        assert not rep.ok and rep.first_error() == "root: certificate rejected"


    @pytest.mark.parametrize("scheme, form, args", [
        ("add", "r", (ZERO_EQ, e(c(1), c(1)))),
        ("cut", "full", (ZERO_EQ, e(c(1), c(1)), e(c(2), c(2))))])
    def test_unlisted_scheme_form_is_a_located_rejection(self, scheme, form, args):
        # the line is the instance of a listed form; cited under a form the
        # scheme manifest does not list, it is rejected
        from satkit.propcalc import CertLine, PropCertificate, axiom_instance
        line = axiom_instance(scheme, form, args)
        for cited, ok in ((form, True), ("zz", False)):
            cert = PropCertificate((CertLine(line, ("ax", scheme, cited, args)),))
            node = Proof(seq(line), "prop", (), info={"prop": {"cert": cert}})
            rep = check(node, RulePolicy(allow_prop=True))
            assert rep.ok == ok
            assert ok or rep.first_error() == "root: certificate rejected"


class TestDerivedCalculus:
    def test_structural_rules_map_to_certified_steps(self):
        from satkit.transform import to_certified_calculus
        for entry in base_corpus():
            pol = RulePolicy(allow_prop=True,
                             extra_axioms=entry.policy.extra_axioms)
            converted = to_certified_calculus(entry.proof)
            rep = check(converted, pol)
            assert rep.ok, (entry.name, rep.first_error())
            assert converted.conclusion == entry.proof.conclusion

    def test_inconsistency_assembly_and_explosion(self):
        # from proofs of a sentence and its negation, a proof of the empty
        # set by cut; from the empty set, any sentence by weakening
        phi = ZERO_EQ
        lam = {n(phi)}
        pol = RulePolicy(extra_axioms=lam.__contains__)
        p_pos = Proof(seq(phi), "axiom3")
        p_neg = Proof(seq(n(phi)), "axiomL")
        empty = Proof(Sequent(frozenset()), "cut", (p_pos, p_neg))
        rep = check(empty, pol)
        assert rep.ok
        anything = Proof(seq(e(c(5), c(6))), "weak", (empty,))
        assert check(anything, pol).ok


class TestTemplateLogic:
    def test_template_axioms(self):
        boxed = tp.TemplForm(ZERO_EQ)
        a1 = Proof(Sequent(frozenset((boxed, n(boxed)))), "axiom1")
        assert check(a1, RulePolicy(logic="template")).ok
        t = tp.TemplTerm(sx.Succ(sx.ZERO))
        a3 = Proof(Sequent(frozenset((e(t, t),))), "axiom3")
        assert check(a3, RulePolicy(logic="template")).ok
        a12 = Proof(Sequent(frozenset((sx.Ex(0, e(t, v(0))),))), "axiom12")
        assert check(a12, RulePolicy(logic="template")).ok
        assert not check(a12, RulePolicy(logic="template-free")).ok

    @pytest.mark.parametrize("policy, reason", [
        (M_POLICY, "abbreviation {!r} in a sequent"),
        (TEMPLATE_POLICY, "ill-formed template sentence {!r}"),
    ], ids=["ground", "template"])
    def test_abbreviation_is_a_located_error(self, policy, reason):
        # sequents built directly, past Sequent.of's own test; the
        # abbreviation sits in the first premise of a cut
        bad = sx.And(ZERO_EQ, ZERO_EQ)
        ax = Proof(seq(ZERO_EQ), "axiom3")
        prems = tuple(Proof(Sequent(frozenset((ZERO_EQ, f))), "weak", (ax,))
                      for f in (bad, n(bad)))
        rep = check(Proof(seq(ZERO_EQ), "cut", prems), policy)
        assert not rep.ok and rep.first_error() == "0: " + reason.format(bad)

    def test_ground_logic_rejects_templates(self):
        boxed = tp.TemplForm(ZERO_EQ)
        a1 = Proof(Sequent(frozenset((boxed, n(boxed)))), "axiom1")
        assert not check(a1, M_POLICY).ok

    def test_messages_name_a_large_sentence_by_its_size(self):
        # a shared tower's repr writes every occurrence of each level (224
        # KB at delta(12)); past 256 nodes a message names the sentence by
        # its node count, a box's object included
        tower = sx.delta(12)  # 5 * 2^12 - 1 nodes
        opened, abbreviated = o(tower, e(v(0), sx.ZERO)), sx.And(tower, ZERO_EQ)
        with pytest.raises(KernelError) as err:
            seq(opened)
        assert str(err.value) == "open sentence in a sequent: <a formula of 20483 nodes>"
        with pytest.raises(KernelError) as err:
            seq(abbreviated)
        assert str(err.value) == "abbreviation in a sequent: <a formula of 20483 nodes>"
        boxed = o(tp.TemplForm(tower), e(v(0), sx.ZERO))
        for f, policy, reason in [
                (opened, M_POLICY, "open sentence <a formula of 20483 nodes>"),
                (abbreviated, M_POLICY, "abbreviation <a formula of 20483 nodes> in a sequent"),
                (abbreviated, TEMPLATE_POLICY,
                 "ill-formed template sentence <a formula of 20483 nodes>"),
                (boxed, TEMPLATE_POLICY, "open sentence <a formula of 20484 nodes>")]:
            rep = check(Proof(Sequent(frozenset((f,))), "axiom3"), policy)
            assert rep.first_error() == "root: " + reason
        cp = sx.const(Sym("p"))
        with pytest.raises(KernelError) as err:
            subst_param_proof(Proof(seq(tp.TemplForm(sx.And(tower, e(cp, cp)))), "axiomL"),
                              "p", std(1))
        assert str(err.value) == "cannot instantiate inside <a formula of 20483 nodes>"


def test_proving_and_checking_leave_no_garbage_cycles():
    # no call leaves a reference cycle behind (a self-referencing nested
    # function, a class made per call), so the cyclic collector finds
    # nothing after criterion-11 proofs and a corpus proof's pipeline
    import gc
    import random
    from generators import random_decidable_sentence
    from satkit.eldiag import prove_eldiag
    from satkit.semantics import audit_soundness, ground_truth_structure, tr_sigma
    from satkit.transform import to_certified_calculus
    from satkit.translate import translate_proof
    rng = random.Random(1111)
    sentences = [random_decidable_sentence(rng, want_true=i < 70) for i in range(100)]
    (entry,) = [x for x in base_corpus() if x.name == "uniform-refutation-2"]
    structures = [ground_truth_structure(), tr_sigma(1)]
    gc.collect()
    gc.disable()
    try:
        for phi in sentences:
            assert check(prove_eldiag(phi), M_POLICY).ok
        res = translate_proof(entry.proof, entry.policy)
        assert check(res.proof, TEMPLATE_POLICY).ok
        for s in structures:
            assert audit_soundness(res.proof, s, fuel=8).verdict is not None
        conv = to_certified_calculus(entry.proof)
        assert check(conv, RulePolicy(allow_prop=True)).ok
        assert gc.collect() == 0
    finally:
        gc.enable()
