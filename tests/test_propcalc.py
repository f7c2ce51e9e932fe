import dataclasses
import functools
import hashlib
import random

import pytest

import satkit.syntax as sx
from satkit import sexpr
from satkit.corpus import base_corpus, mprop_entries
from satkit.elements import std
from satkit import kernel
from satkit.kernel import RulePolicy, bases_of, check, subst_param_proof, vee
from satkit.propcalc import (
    CertLine, Exhausted, PropCertificate, PropError, axiom_instance, certificate_errors,
    check_certificate, derive_or_search, expand_pf, extract_hypotheses, imp,
    is_axiom, is_tautology, match_fo_axiom, match_prop_axiom, one_line, pf_height_check,
    SCHEME_FORMS, recheck_unlabelled, scheme_manifest, weakening_cert,
)
from satkit.transform import to_certified_calculus
from generators import random_formula

e, n, o = sx.Eq, sx.Not, sx.Or
ZERO_EQ = e(sx.ZERO, sx.ZERO)
PHI = e(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
# match_prop_axiom over the seeded draw of test_matcher_results_are_the_recorded_ones,
# recorded from the earlier matcher, which tested each shape by hand
MATCHES_SHA256 = "37e93d0040cf107069bd3763099e84d3e7e90a8307bed930c4a32ddc387cd480"


class TestSchemes:
    def test_instances_are_tautologies(self):
        rng = random.Random(7)
        for _ in range(300):
            args3 = tuple(random_formula(rng, 1, max_const=3) for _ in range(3))
            assert is_tautology(axiom_instance("cut", "contract", args3[:1]))
            assert is_tautology(axiom_instance("cut", "full", args3))
            for form in ("l", "r"):
                assert is_tautology(axiom_instance("add", form, args3[:2]))
            for form in ("rr", "ll", "rc", "lc"):
                assert is_tautology(axiom_instance("sum", form, args3))

    def test_matcher_round_trip(self):
        rng = random.Random(9)
        for _ in range(200):
            args = tuple(random_formula(rng, 1, max_const=3) for _ in range(3))
            for scheme, form, need in (("cut", "contract", 1), ("cut", "full", 3),
                                       ("add", "l", 2), ("add", "r", 2),
                                       ("sum", "rr", 3), ("sum", "ll", 3),
                                       ("sum", "rc", 3), ("sum", "lc", 3)):
                inst = axiom_instance(scheme, form, args[:need])
                assert match_prop_axiom(inst) is not None

    def test_matcher_results_are_the_recorded_ones(self):
        # scheme instances over a three-atom pool, half of them with one
        # subformula swapped for another, and Or/Not trees over the same
        # atoms, so that schemes overlap and near misses are common
        rng = random.Random(2024)
        atoms = [ZERO_EQ, PHI, e(sx.const(std(1)), sx.const(std(2)))]
        forms = [(s, f, 1 if f == "contract" else 2 if s == "add" else 3)
                 for s in ("add", "sum", "cut") for f in SCHEME_FORMS[s]]

        def tree(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(atoms)
            if rng.random() < 0.4:
                return n(tree(depth - 1))
            return o(tree(depth - 1), tree(depth - 1))

        def mutate(f):
            if not isinstance(f, (sx.Not, sx.Or)) or rng.random() < 0.25:
                return tree(1)
            if isinstance(f, sx.Not):
                return n(mutate(f.body))
            if rng.random() < 0.5:
                return o(mutate(f.left), f.right)
            return o(f.left, mutate(f.right))

        lines = []
        for _ in range(20000):
            if rng.random() < 0.5:
                scheme, form, need = rng.choice(forms)
                f = axiom_instance(scheme, form, tuple(tree(1) for _ in range(need)))
                if rng.random() < 0.5:
                    f = mutate(f)
            else:
                f = o(n(tree(3)), tree(4))
            got = match_prop_axiom(f)
            lines.append("-" if got is None else " ".join(
                got[:2] + tuple(map(sexpr.print_obj, got[2]))))
        assert 3000 < lines.count("-") < 17000
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == MATCHES_SHA256

    def test_wrong_arity_raises_prop_error(self):
        for scheme, form, need in (("cut", "contract", 1), ("cut", "full", 3),
                                   ("add", "l", 2), ("sum", "rr", 3)):
            for k in (need - 1, need + 1):
                with pytest.raises(PropError, match=f"takes {need} formulas"):
                    axiom_instance(scheme, form, (ZERO_EQ,) * k)

    @pytest.mark.parametrize("scheme, form", [("add", "zz"), ("cut", "zz"), ("sum", "l"),
                                              ("add", ""), ("zz", "l"), ("ax-fo", "full")])
    def test_unknown_scheme_form_raises_prop_error(self, scheme, form):
        # a pair the scheme manifest does not list has no instance, at any arity
        for k in (1, 2, 3):
            with pytest.raises(PropError, match=f"unknown scheme {scheme}/{form}$"):
                axiom_instance(scheme, form, (ZERO_EQ,) * k)

    def test_manifest_lists_all_schemes(self):
        m = scheme_manifest()
        assert set(m["schemes"]) >= {"add", "sum", "cut"}


class TestCertificates:
    def test_one_line_hypothesis(self):
        cert = one_line(PHI)
        assert check_certificate(cert, {PHI}.__contains__)
        assert not check_certificate(cert, lambda f: False)

    def test_modus_ponens(self):
        cert = PropCertificate((
            CertLine(PHI, ("hyp",)),
            CertLine(imp(PHI, ZERO_EQ), ("hyp",)),
            CertLine(ZERO_EQ, ("mp", 1, 0)),
        ))
        hyps = {PHI, imp(PHI, ZERO_EQ)}
        assert check_certificate(cert, hyps.__contains__)

    def test_citing_later_line_invalid(self):
        cert = PropCertificate((
            CertLine(ZERO_EQ, ("mp", 1, 2)),
            CertLine(imp(PHI, ZERO_EQ), ("hyp",)),
            CertLine(PHI, ("hyp",)),
        ))
        assert not check_certificate(cert, lambda f: True)

    def test_open_line_invalid(self):
        cert = one_line(e(sx.Var(0), sx.ZERO))
        assert not check_certificate(cert, lambda f: True)

    def test_double_negation_is_found_without_building_it(self, monkeypatch):
        # finding PHI doubly negated in the target builds no Not: every
        # Not that weakening_cert builds is a node of its certificate
        built = []
        init = sx.Not.__init__

        def counting(self, body):
            init(self, body)
            built.append(self)

        target = o(ZERO_EQ, o(n(n(PHI)), n(ZERO_EQ)))
        monkeypatch.setattr(sx.Not, "__init__", counting)
        cert = weakening_cert(PHI, target)
        used = {id(y) for line in cert.lines for y in sx.subobjects(line.formula)}
        assert built and all(id(x) in used for x in built)
        assert check_certificate(cert, {PHI}.__contains__)
        assert cert.lines[-1].formula == target


class TestExtraction:
    def test_plain_hypotheses(self):
        cert = PropCertificate((
            CertLine(PHI, ("hyp",)),
            CertLine(imp(PHI, ZERO_EQ), ("hyp",)),
            CertLine(ZERO_EQ, ("mp", 1, 0)),
        ))
        assert extract_hypotheses(cert) == {PHI, imp(PHI, ZERO_EQ)}

    def test_axiom_instance_excluded(self):
        ax = axiom_instance("add", "l", (PHI, ZERO_EQ))
        cert = PropCertificate((
            CertLine(ax, ("hyp",)),  # stated as a hypothesis, but an axiom
            CertLine(PHI, ("hyp",)),
            CertLine(o(PHI, ZERO_EQ), ("mp", 0, 1)),
        ))
        got = extract_hypotheses(cert)
        assert ax not in got and PHI in got

    def test_round_trip_on_searched_certificates(self):
        rng = random.Random(13)
        for _ in range(40):
            hyp = random_formula(rng, 1, max_const=3)
            goal = o(hyp, random_formula(rng, 1, max_const=3))
            try:
                cert = derive_or_search(goal, [hyp], fuel=2500)
            except Exhausted:
                continue
            got = extract_hypotheses(cert)
            assert recheck_unlabelled(cert, got.__contains__)


# an open formula, for mutants that must fail as "line is not a sentence"
OPEN = e(sx.Var(0), sx.ZERO)


def _certificate_errors_closed_first(cert, hyp, first_order=False):
    """The reference checker: certificate_errors as it was before a line
    could take its closedness from its justification, with a full
    free-variable walk of every line first. It calls the current
    axiom_instance, so both reject a scheme/form pair the manifest does
    not list."""
    errors = []
    for i, line in enumerate(cert.lines):
        f = line.formula
        if not sx.is_closed(f):
            errors.append((i, "line is not a sentence"))
            continue
        tag = line.just[0]
        if tag == "hyp":
            if not hyp(f):
                errors.append((i, "hypothesis not accepted"))
        elif tag == "ax":
            _, scheme, form, args = line.just
            try:
                want = axiom_instance(scheme, form, args)
            except PropError as exc:
                errors.append((i, str(exc)))
                continue
            if want != f:
                errors.append((i, "axiom instantiation does not rebuild the line"))
            elif scheme not in SCHEME_FORMS and not first_order:
                errors.append((i, "unknown scheme"))
        elif tag == "ax-fo":
            if not first_order:
                errors.append((i, "first-order axiom in a propositional certificate"))
            elif match_fo_axiom(f) is None:
                errors.append((i, "not a quantifier-instantiation axiom"))
        elif tag == "mp":
            _, j, k = line.just
            if not (0 <= j < i and 0 <= k < i):
                errors.append((i, "modus ponens cites a line not before this one"))
            elif cert.lines[j].formula != imp(cert.lines[k].formula, f):
                errors.append((i, "cited lines are not an implication pair"))
        else:
            errors.append((i, f"unknown justification {tag!r}"))
    return errors


def _recheck_unlabelled_cubic(cert, hyp, first_order=False):
    """The reference for recheck_unlabelled: every pair of earlier lines."""
    for i, line in enumerate(cert.lines):
        f = line.formula
        if is_axiom(f, first_order) or hyp(f):
            continue
        if any(cert.lines[j].formula == imp(cert.lines[k].formula, f)
               for j in range(i) for k in range(i)):
            continue
        return False
    return True


def _extract_hypotheses_cubic(cert, first_order=False):
    """The reference for extract_hypotheses: every pair of lines."""
    present = {line.formula for line in cert.lines}
    out = set()
    for f in present:
        if is_axiom(f, first_order):
            continue
        if any(g == imp(h, f) for g in present for h in present):
            continue
        out.add(f)
    return frozenset(out)


def _certified_nodes(p):
    return [q for q in sx.subobjects(p) if "prop" in q.info]


@functools.cache
def _certificate_cases():
    """(certificate, accepted hypotheses, first_order) of every certified
    node, one per distinct certificate: the certified base corpus, the
    mprop entries, and the certificates that _subst_certificate replays at
    each sample of the certified corpus's uniform schemas."""
    cases = {}

    def add(nodes):
        for q in nodes:
            hyps = frozenset(vee(r.conclusion.sentences) for r in q.premises)
            cases.setdefault((q.info["prop"]["cert"], q.rule == "pred"), hyps)

    for entry in base_corpus():
        conv = to_certified_calculus(entry.proof)
        add(_certified_nodes(conv))
        for u in (q.uniform for q in sx.subobjects(conv) if q.uniform is not None):
            for values in u.sampled:
                inst = u.schema
                for base, value in zip(u.params, values):
                    inst = subst_param_proof(inst, base, value)
                add(_certified_nodes(inst))
    for entry in mprop_entries():
        add(_certified_nodes(entry.proof))
    return [(cert, hyps, fo) for (cert, fo), hyps in cases.items()]


def _with(cert, edits):
    """cert with the lines at the keys of edits replaced by their values."""
    return PropCertificate(tuple(edits.get(i, line) for i, line in enumerate(cert.lines)))


def _mutants(cert, rng):
    """Certificates one fault away from cert, each at a seeded line."""
    lines = cert.lines
    n_lines = len(lines)
    by_tag = {}
    for i, line in enumerate(lines):
        by_tag.setdefault(line.just[0], []).append(i)
    yield "dropped line", PropCertificate(lines[:(d := rng.randrange(n_lines))] + lines[d + 1:])
    if "ax" in by_tag:
        i = rng.choice(by_tag["ax"])
        f, (_, scheme, form, args) = lines[i].formula, lines[i].just
        for s2, f2 in (rng.choice([(s, g) for s in SCHEME_FORMS for g in SCHEME_FORMS[s]
                                   if (s, g) != (scheme, form)]),
                       (scheme, "zz"), ("zz", form)):
            yield "changed scheme or form", _with(cert, {i: CertLine(f, ("ax", s2, f2, args))})
        m = rng.randrange(len(args))
        opened = args[:m] + (o(args[m], OPEN),) + args[m + 1:]
        yield "open argument", _with(cert, {i: CertLine(f, ("ax", scheme, form, opened))})
        yield "open argument, line rebuilt", _with(cert, {i: CertLine(
            axiom_instance(scheme, form, opened), ("ax", scheme, form, opened))})
    if "hyp" in by_tag:
        i = rng.choice(by_tag["hyp"])
        yield "open hypothesis", _with(cert, {i: CertLine(o(lines[i].formula, OPEN), ("hyp",))})
    if "mp" in by_tag:
        i = rng.choice(by_tag["mp"])
        f, (_, j, k) = lines[i].formula, lines[i].just
        later = rng.randrange(i, n_lines + 1)
        for just in (("mp", later, k), ("mp", j, later), ("mp", k, j), ("mp", j, j),
                     ("mp", -1, k)):
            yield "modus ponens citation", _with(cert, {i: CertLine(f, just)})
        # the cited implication line open through its antecedent, the
        # line itself closed
        h = o(lines[k].formula, OPEN)
        yield "open cited lines", _with(cert, {
            j: CertLine(imp(h, f), ("hyp",)), k: CertLine(h, ("hyp",))})
        # the cited implication line and the line itself open
        g = o(f, OPEN)
        yield "open conclusion", _with(cert, {
            j: CertLine(imp(lines[k].formula, g), ("hyp",)), i: CertLine(g, lines[i].just)})


def _with_antecedents_dropped(cases):
    """Each case, then the same without the line its first modus ponens
    cites as the antecedent, which leaves that implication unusable."""
    for cert, hyps, fo in cases:
        yield cert, hyps, fo
        k = next((line.just[2] for line in cert.lines if line.just[0] == "mp"), None)
        if k is not None:
            yield PropCertificate(cert.lines[:k] + cert.lines[k + 1:]), hyps, fo


def _errors_and_asked(check_errors, cert, hyps, first_order):
    """The errors, and the formulas hyp was asked about, in order; hyp
    fails the test when asked about an open formula."""
    asked = []

    def hyp(f):
        assert sx.is_closed(f), "hyp asked about an open formula"
        asked.append(f)
        return f in hyps

    return check_errors(cert, hyp, first_order), asked


class TestClosureByJustification:
    """certificate_errors takes a line's closedness from its justification
    where the line meets it; its list must be the reference checker's."""

    def test_same_errors_on_every_certificate_and_mutant(self):
        rng = random.Random(16)
        kinds = {}
        cases = _certificate_cases()
        assert len(cases) > 300
        for cert, hyps, fo in cases:
            for kind, mutant in [("certificate", cert)] + list(_mutants(cert, rng)):
                want = _errors_and_asked(_certificate_errors_closed_first, mutant, hyps, fo)
                assert _errors_and_asked(certificate_errors, mutant, hyps, fo) == want, kind
                kinds.setdefault(kind, set()).add(bool(want[0]))
        # every certificate passes, and every kind of mutant occurs, the
        # faults among them rejected
        assert kinds.pop("certificate") == {False}
        assert set(kinds) == {
            "dropped line", "changed scheme or form", "open argument",
            "open argument, line rebuilt", "open hypothesis", "modus ponens citation",
            "open cited lines", "open conclusion"}
        assert all(True in seen for seen in kinds.values())

    def test_open_line_messages(self):
        a = imp(PHI, ZERO_EQ)
        cert = PropCertificate((
            CertLine(OPEN, ("hyp",)),
            CertLine(imp(OPEN, PHI), ("hyp",)),
            CertLine(PHI, ("mp", 1, 0)),  # closed, citing open lines
            CertLine(axiom_instance("add", "l", (OPEN, PHI)), ("ax", "add", "l", (OPEN, PHI))),
            CertLine(o(a, OPEN), ("mp", 3, 0)),  # open, not a pair
            CertLine(a, ("ax", "add", "zz", (PHI, ZERO_EQ))),
        ))
        got = certificate_errors(cert, lambda f: True)
        assert got == [(0, "line is not a sentence"), (1, "line is not a sentence"),
                       (3, "line is not a sentence"), (4, "line is not a sentence"),
                       (5, "unknown scheme add/zz")]
        assert got == _certificate_errors_closed_first(cert, lambda f: True)

    def test_hypothesis_helpers_match_the_pairwise_versions(self):
        # the pairwise references cost seconds on the longest certificates,
        # so they run on every certificate of at most 30 lines
        cases = [(c, h, fo) for c, h, fo in _certificate_cases() if len(c.lines) <= 30]
        assert len(cases) > 150
        verdicts = set()
        for cert, hyps, fo in _with_antecedents_dropped(cases):
            got = extract_hypotheses(cert, fo)
            assert got == _extract_hypotheses_cubic(cert, fo)
            for accept in (got, hyps, frozenset()):
                ok = recheck_unlabelled(cert, accept.__contains__, fo)
                assert ok == _recheck_unlabelled_cubic(cert, accept.__contains__, fo)
                verdicts.add(ok)
        assert verdicts == {True, False}


def _ref_subst_certificate(cert, inst, hyp_map, goal):
    """The earlier replay, which rebuilt each axiom line from its
    instantiated arguments and each modus ponens line from its cited
    implication."""
    from satkit.propcalc import CertBuilder
    b = CertBuilder()
    remap = {}
    for i, line in enumerate(cert.lines):
        f2 = inst(line.formula)
        tag = line.just[0]
        if tag == "hyp":
            canon = hyp_map.get(line.formula)
            if canon is None or canon == f2:
                remap[i] = b.hyp(f2 if canon is None else canon)
            else:
                j = b.hyp(canon)
                k = b.tree_implication(canon, f2)
                remap[i] = b.mp(k, j)
        elif tag == "ax":
            _, scheme, form, args = line.just
            remap[i] = b.ax(scheme, form, tuple(inst(a) for a in args))
        elif tag == "ax-fo":
            remap[i] = b._emit(f2, ("ax-fo",))
        elif tag == "mp":
            _, j, k = line.just
            remap[i] = b.mp(remap[j], remap[k])
        else:
            raise PropError(f"cannot instantiate justification {tag!r}")
    last = remap[len(cert.lines) - 1]
    if b.lines[last].formula != goal:
        k = b.tree_implication(b.lines[last].formula, goal)
        b.mp(k, last)
    return b.certificate(goal)


def _uniform_nodes(p):
    return [q for q in sx.subobjects(p) if q.uniform is not None]


def _certified_corpus():
    """The certified base corpus and the mprop entries, with the policy
    each checks under."""
    for entry in base_corpus():
        yield to_certified_calculus(entry.proof), RulePolicy(
            allow_prop=True, extra_axioms=entry.policy.extra_axioms)
    for entry in mprop_entries():
        yield entry.proof, entry.policy


def _path_to(p, target, path=()):
    """The checker's path from p to the node target, through premises
    only; None when target is not among them."""
    if p is target:
        return path
    for i, q in enumerate(p.premises):
        got = _path_to(q, target, path + (i,))
        if got is not None:
            return got
    return None


def _replace_at(p, path, new):
    if not path:
        return new
    prems = list(p.premises)
    prems[path[0]] = _replace_at(prems[path[0]], path[1:], new)
    return p.rebuild(p.conclusion, prems + ([p.uniform.schema] if p.uniform else []))


class TestInstanceReplay:
    """A certificate is replayed at a sample with its axiom and modus
    ponens lines instantiated in place; the earlier replay is the
    reference."""

    def test_same_lines_as_the_rebuilding_replay_at_every_sample(self, monkeypatch):
        calls = []
        replay = kernel._subst_certificate

        def recorded(cert, inst, hyp_map, goal):
            got = replay(cert, inst, hyp_map, goal)
            calls.append((got, _ref_subst_certificate(cert, inst, hyp_map, goal)))
            # a hypothesis whose canonical disjunction the sample reorders
            bridged.extend(line for line in cert.lines if line.just[0] == "hyp"
                           and hyp_map.get(line.formula) not in (None, inst(line.formula)))
            return got

        bridged = []
        monkeypatch.setattr(kernel, "_subst_certificate", recorded)
        for proof, _ in _certified_corpus():
            for u in (q.uniform for q in _uniform_nodes(proof)):
                for values in u.sampled:
                    inst = u.schema
                    for base, value in zip(u.params, values):
                        inst = subst_param_proof(inst, base, value)
        assert len(calls) > 400 and len(bridged) > 100
        for got, want in calls:
            assert got.lines == want.lines

    def test_a_faulty_line_stays_faulty_in_every_instance(self):
        # an axiom line whose formula is not its scheme's instance: the
        # rebuilding replay mended it at a sample, the in-place one keeps
        # it, so the sample's re-check rejects the certificate at its node
        pol, u, r, path, i = _first_parametric_axiom_line()
        cert = r.info["prop"]["cert"]
        bad = CertLine(n(cert.lines[i].formula), cert.lines[i].just)
        faulty = r.rebuild(r.conclusion, r.children, {**r.info, "prop": {"cert": _with(cert, {i: bad})}})
        schema = _replace_at(u.schema, path, faulty)
        for values in u.sampled:
            inst = schema
            for base, value in zip(u.params, values):
                inst = subst_param_proof(inst, base, value)
            rep = check(inst, pol)
            assert [(e.path, e.reason) for e in rep.errors] == [(path, "certificate rejected")]


def _first_parametric_axiom_line():
    """(policy, uniform, certified node of its schema, that node's path,
    line index): the first axiom line of the certified corpus whose
    formula holds its schema's parameter."""
    for proof, pol in _certified_corpus():
        for u in (q.uniform for q in _uniform_nodes(proof)):
            for r in sx.subobjects(u.schema):
                cert, path = r.info.get("prop", {}).get("cert"), _path_to(u.schema, r)
                if cert is None or path is None:
                    continue
                for i, line in enumerate(cert.lines):
                    if line.just[0] == "ax" and u.params[0] in bases_of(line.formula):
                        return pol, u, r, path, i
    raise AssertionError("no axiom line holds a parameter")


class TestSearch:
    def test_excluded_middle_found(self):
        cert = derive_or_search(o(PHI, n(PHI)), [])
        assert check_certificate(cert, lambda f: False)
        assert cert.lines[-1].formula == o(PHI, n(PHI))

    def test_hypothesis_goal_is_one_line(self):
        cert = derive_or_search(PHI, [PHI])
        assert len(cert.lines) == 1

    def test_non_theorem_exhausts(self):
        assert not is_tautology(n(ZERO_EQ))
        with pytest.raises(Exhausted):
            derive_or_search(n(ZERO_EQ), [])

    def test_commuted_disjunction(self):
        cert = derive_or_search(o(PHI, ZERO_EQ), [o(ZERO_EQ, PHI)])
        assert check_certificate(cert, {o(ZERO_EQ, PHI)}.__contains__)

    def test_soundness_of_empty_hypothesis_certificates(self):
        goals = [o(PHI, n(PHI)), o(n(ZERO_EQ), ZERO_EQ),
                 imp(o(ZERO_EQ, ZERO_EQ), ZERO_EQ)]
        for g in goals:
            cert = derive_or_search(g, [])
            assert check_certificate(cert, lambda f: False)
            assert is_tautology(g)


class TestPfPredicates:
    def test_axiom_disjunction_base(self):
        phi = vee({ZERO_EQ, n(ZERO_EQ)})
        assert pf_height_check(phi, 1) is not None

    def test_non_axiom_base(self):
        assert pf_height_check(n(ZERO_EQ), 1) is None

    def test_non_theorem_false_at_small_levels(self):
        for k in range(1, 5):
            assert pf_height_check(n(ZERO_EQ), k) is None

    def test_monotone(self):
        phi = vee({ZERO_EQ, n(ZERO_EQ)})
        for k in (1, 2, 3):
            assert pf_height_check(phi, k) is not None

    def test_corpus_relations(self):
        pol = RulePolicy(allow_prop=True)
        for entry in mprop_entries():
            rep = check(entry.proof, entry.policy)
            assert rep.ok
            target = vee(entry.proof.conclusion.sentences)
            level = rep.height + 1  # strict-height indexing of the predicate
            ev = pf_height_check(target, level, hint=entry.proof)
            assert ev is not None, entry.name
            back = expand_pf(ev)
            rep2 = check(back, pol)
            assert rep2.ok, (entry.name, rep2.first_error())
            assert rep2.height <= 3 * ev.level - 2

    def test_height_two_proof_passes_level_two(self):
        entry = next(x for x in mprop_entries() if x.name == "prop-height-2")
        rep = check(entry.proof, entry.policy)
        assert rep.height == 2
        target = vee(entry.proof.conclusion.sentences)
        ev = pf_height_check(target, 2)
        assert ev is not None
        back = expand_pf(ev)
        rep2 = check(back, RulePolicy(allow_prop=True))
        assert rep2.ok and rep2.height <= 4

    def test_existential_shape(self):
        exists = sx.Ex(0, e(sx.Var(0), sx.const(std(2))))
        target = vee({exists, ZERO_EQ})
        ev = pf_height_check(target, 3)
        assert ev is not None
        back = expand_pf(ev)
        rep = check(back, RulePolicy(allow_prop=True))
        assert rep.ok and rep.height <= 3 * 3 - 2

    def test_hint_names_the_existential_its_witness_instantiates(self):
        # two existentials, the premise keeps both and adds 3 = 3: the
        # witness 3 instantiates only exists v0 (v0 = 3)
        from satkit.kernel import Proof, seq
        from satkit.transform import to_certified_calculus, weak_to
        three, four = sx.const(std(3)), sx.const(std(4))
        ex3 = sx.Ex(0, e(sx.Var(0), three))
        ex4 = sx.Ex(0, e(sx.Var(0), four))
        inst = e(three, three)
        prem = to_certified_calculus(
            weak_to(Proof(seq(inst), "axiom3"), frozenset((inst, ex3, ex4))))
        p = Proof(seq(ex3, ex4), "ex-i", (prem,), info={"witness": std(3)})
        pol = RulePolicy(allow_prop=True)
        assert check(p, pol).ok
        ev = pf_height_check(vee(p.conclusion.sentences), 4, hint=p)
        assert ev.kind == "ex" and ev.data["d"] == ex3 and ev.data["w"] == std(3)
        rep = check(expand_pf(ev), pol)
        assert rep.ok, rep.first_error()
