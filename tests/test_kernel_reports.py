"""Golden kernel reports.

Each case is checked and its ``(ok, height, first_error())`` compared with
a literal recorded before the kernel memoized schema instantiation, so
the memo is held to the verdicts, heights and located errors of the
unmemoized kernel: the corpus, its certified conversions, the proofs with
a negated root, and a fixed handful of mutants. The block-rule examples
and the malformed uses of the uniform and block rules were recorded before
m-rule became the one-block case of m-inf, so the shared rule matcher is
held to each rule's own messages.
"""

import dataclasses

import satkit.syntax as sx
from satkit.corpus import CorpusEntry, base_corpus, mprop_entries
from satkit.elements import Sym, std, succ
from satkit.kernel import RULE_TAGS, Proof, RulePolicy, Sequent, Uniform, check, seq
from satkit.transform import to_certified_calculus

# the entries whose mutants are recorded: a propositional one, a
# structural one, diagram proofs with one and with nested schemas, and
# the two block rules
MUTATED = ("prop-height-2", "or-commutes", "neq-from-hypotheses",
           "diagram-5", "uniform-refutation-0", "uniform-refutation-2",
           "oracle-schema", "block-instance", "block-schema")


def _paths(p, path=()):
    """The path of every node, in pre-order, as the kernel locates errors."""
    yield path, p
    for i, q in enumerate(p.premises):
        yield from _paths(q, path + (i,))
    if p.uniform is not None:
        yield from _paths(p.uniform.schema, path + ("u",))


def _replace_at(p, path, change):
    if not path:
        return change(p)
    head, rest = path[0], path[1:]
    if head == "u":
        schema = _replace_at(p.uniform.schema, rest, change)
        return dataclasses.replace(p, uniform=dataclasses.replace(p.uniform, schema=schema))
    prems = list(p.premises)
    prems[head] = _replace_at(prems[head], rest, change)
    return dataclasses.replace(p, premises=tuple(prems))


def _other_tag(p):
    return dataclasses.replace(
        p, rule=RULE_TAGS[(RULE_TAGS.index(p.rule) + 1) % len(RULE_TAGS)])


def _drop_last_premise(p):
    return dataclasses.replace(p, premises=p.premises[:-1])


def _perturb_sample(p):
    u = p.uniform
    first = tuple(succ(e) for e in u.sampled[0])
    return dataclasses.replace(p, uniform=Uniform(u.params, u.schema,
                                                  (first,) + u.sampled[1:]))


def mutants(p):
    """(kind, mutant): the root's and the last leaf's rule tag changed,
    the first inference's last premise dropped, the first schema's first
    sample moved up by one."""
    nodes = list(_paths(p))
    leaf = [path for path, q in nodes if not q.premises and q.uniform is None][-1]
    picks = [("tag", (), _other_tag), ("leaf-tag", leaf, _other_tag)]
    for kind, want, change in (("drop", lambda q: q.premises, _drop_last_premise),
                               ("sample", lambda q: q.uniform and q.uniform.sampled,
                                _perturb_sample)):
        first = next((path for path, q in nodes if want(q)), None)
        if first is not None:
            picks.append((kind, first, change))
    return [(kind, _replace_at(p, path, change)) for kind, path, change in picks]


# an m-rule schema whose extra-axiom oracle refuses one instance, so a
# sample at 1 is rejected at its own location after instantiation
_P = sx.const(Sym("p"))
_NO_SC_ZERO = sx.Not(sx.Ex(0, sx.Eq(sx.Succ(sx.Var(0)), sx.ZERO)))
_REFUSED = sx.Not(sx.Eq(sx.Succ(sx.const(std(1))), sx.ZERO))
ORACLE_POLICY = RulePolicy(extra_axioms=lambda f: f != _REFUSED)


def oracle_schema(samples):
    schema = Proof(seq(sx.Not(sx.Eq(sx.Succ(_P), sx.ZERO))), "axiomL")
    return Proof(seq(_NO_SC_ZERO), "m-rule", (),
                 Uniform(("p",), schema, tuple((std(k),) for k in samples)))


# the block-rule examples of the extended-rule tests: exists v0 v1 v2
# (v0 + v1 = v2) by the triple (2, 3, 5), and not exists v0 v1
# (Sc(v0 + v1) = 0) by a two-parameter schema
_TRIPLE = sx.Ex(0, sx.Ex(1, sx.Ex(2, sx.Eq(sx.Add(sx.Var(0), sx.Var(1)), sx.Var(2)))))
_TRIPLE_INST = sx.Eq(sx.Add(sx.const(std(2)), sx.const(std(3))), sx.const(std(5)))
_PAIR = sx.Not(sx.Ex(0, sx.Ex(1, sx.Eq(sx.Succ(sx.Add(sx.Var(0), sx.Var(1))), sx.ZERO))))
_PA, _PB = sx.const(Sym("pa")), sx.const(Sym("pb"))
_PAIR_INST = sx.Not(sx.Eq(sx.Succ(sx.Add(_PA, _PB)), sx.ZERO))
_PAIR_REFUSED = sx.Not(sx.Eq(sx.Succ(sx.Add(sx.const(std(1)), sx.ZERO)), sx.ZERO))
BLOCK_POLICY = RulePolicy(allow_inf=True, extra_axioms=lambda f: f != _PAIR_REFUSED)


def block_instance(block=(0, 1, 2), values=(std(2), std(3), std(5)), rule="i-ex-inf"):
    return Proof(seq(_TRIPLE), rule, (Proof(seq(_TRIPLE_INST), "axiomL"),),
                 info={"block": block, "tuple": values})


def block_schema(block=(0, 1), params=("pa", "pb"),
                 sampled=((std(0), std(0)), (std(2), std(5))), rule="m-inf",
                 concl=(_PAIR,)):
    return Proof(seq(*concl), rule, (),
                 Uniform(params, Proof(seq(_PAIR_INST), "axiomL"), sampled),
                 info={"block": block})


def entries():
    return list(base_corpus()) + list(mprop_entries()) + [
        CorpusEntry("oracle-schema", oracle_schema((0, 2, 17)), ORACLE_POLICY),
        CorpusEntry("block-instance", block_instance(), BLOCK_POLICY),
        CorpusEntry("block-schema", block_schema(), BLOCK_POLICY)]


def shape_cases():
    """(name, proof, policy): malformed uses of the uniform and block
    rules, one per message the kernel gives them, and an m-rule schema
    read as a one-block m-inf."""
    schema = oracle_schema((0, 2, 17))
    u = schema.uniform
    m_rule = [
        ("premises", Proof(schema.conclusion, "m-rule", (u.schema,))),
        ("no-schema", Proof(schema.conclusion, "m-rule")),
        ("two-params", dataclasses.replace(
            schema, uniform=Uniform(("p", "q"), u.schema, ((std(0), std(0)),)))),
        ("unsampled", dataclasses.replace(schema, uniform=Uniform(("p",), u.schema, ()))),
        ("pair-sample", dataclasses.replace(
            schema, uniform=Uniform(("p",), u.schema, ((std(0), std(1)),)))),
        ("not-fresh", dataclasses.replace(
            schema, conclusion=seq(_NO_SC_ZERO, sx.Eq(_P, _P)))),
        ("foreign-schema", dataclasses.replace(
            schema, uniform=Uniform(("p",), Proof(seq(sx.Eq(_P, _P)), "axiom3"),
                                    u.sampled))),
        ("block-ignored", dataclasses.replace(schema, info={"block": (5, 6)})),
    ]
    for name, p in m_rule:
        yield "m-rule/" + name, p, ORACLE_POLICY
    yield "m-rule/as-m-inf", dataclasses.replace(
        schema, rule="m-inf", info={"block": (0,)}), BLOCK_POLICY
    yield "m-rule/two-block", block_schema(rule="m-rule"), BLOCK_POLICY
    yield "m-inf/disabled", block_schema(), ORACLE_POLICY
    yield "m-inf/premises", dataclasses.replace(
        block_schema(), premises=(Proof(seq(_PAIR_INST), "axiomL"),)), BLOCK_POLICY
    yield "m-inf/no-block", block_schema(block=()), BLOCK_POLICY
    yield "m-inf/repeated-block", block_schema(block=(0, 0)), BLOCK_POLICY
    yield "m-inf/one-param", block_schema(params=("pa",)), BLOCK_POLICY
    yield "m-inf/unsampled", block_schema(sampled=()), BLOCK_POLICY
    yield "m-inf/short-sample", block_schema(sampled=((std(0),),)), BLOCK_POLICY
    yield "m-inf/not-fresh", block_schema(
        concl=(_PAIR, sx.Eq(_PB, _PB))), BLOCK_POLICY
    yield "m-inf/swapped-block", block_schema(block=(1, 0)), BLOCK_POLICY
    yield "m-inf/short-block", block_schema(block=(0,), params=("pa",),
                                            sampled=((std(0),),)), BLOCK_POLICY
    yield "m-inf/refused-sample", block_schema(
        sampled=((std(0), std(0)), (std(1), std(0)))), BLOCK_POLICY
    yield "i-ex-inf/disabled", block_instance(), ORACLE_POLICY
    yield "i-ex-inf/no-tuple", block_instance(values=None), BLOCK_POLICY
    yield "i-ex-inf/repeated-block", block_instance(block=(0, 0, 2)), BLOCK_POLICY
    yield "i-ex-inf/short-tuple", block_instance(values=(std(2), std(3))), BLOCK_POLICY
    yield "i-ex-inf/wrong-tuple", block_instance(
        values=(std(3), std(2), std(5))), BLOCK_POLICY
    yield "i-ex-inf/short-block", block_instance(
        block=(0, 1), values=(std(2), std(3))), BLOCK_POLICY
    yield "i-ex-inf/as-ex-i", block_instance(rule="ex-i"), BLOCK_POLICY


def report_cases():
    """(name, proof, policy) for every golden case, in a fixed order."""
    for e in entries():
        yield e.name, e.proof, e.policy
    for e in entries():
        pol = RulePolicy(allow_prop=True, extra_axioms=e.policy.extra_axioms)
        yield e.name + "/certified", to_certified_calculus(e.proof), pol
    for e in entries():
        if len(e.proof.conclusion.sentences) == 1:
            (phi,) = e.proof.conclusion.sentences
            flipped = dataclasses.replace(
                e.proof, conclusion=Sequent(frozenset((sx.Not(phi),))))
            yield e.name + "/negated", flipped, e.policy
    for e in entries():
        if e.name in MUTATED:
            for kind, q in mutants(e.proof):
                yield f"{e.name}/{kind}", q, e.policy
    yield from shape_cases()


def summary(rep):
    return (rep.ok, rep.height, rep.first_error())


def test_reports_match_the_recorded_ones():
    got = {name: summary(check(p, pol)) for name, p, pol in report_cases()}
    assert got == GOLDEN


def test_a_check_keeps_nothing_from_the_one_before():
    # the memo lives for one check call: a rejected proof gets the same
    # report alone and right after an accepted one that shares its
    # sentences and has just instantiated the same schema at the same
    # samples
    accepted = oracle_schema((0, 2, 17))
    rejected = oracle_schema((0, 2, 1))
    alone = check(rejected, ORACLE_POLICY)
    assert check(accepted, ORACLE_POLICY).ok
    after = check(rejected, ORACLE_POLICY)
    assert not alone.ok and alone.first_error().startswith("s/2:")
    assert [str(x) for x in after.errors] == [str(x) for x in alone.errors]
    assert summary(after) == summary(alone)
    # and likewise for every recorded mutant after its original
    for e in entries():
        if e.name in MUTATED:
            for kind, q in mutants(e.proof):
                alone = check(q, e.policy)
                assert check(e.proof, e.policy).ok
                after = check(q, e.policy)
                assert summary(after) == summary(alone) == GOLDEN[f"{e.name}/{kind}"]


# recorded from the unmemoized kernel; identical under every string-hash seed tried
GOLDEN = {
    'or-commutes': (True, 6, None),
    'or-commutes-2': (True, 6, None),
    'or-commutes-3': (True, 6, None),
    'neq-from-hypotheses': (True, 10, None),
    'axiom1': (True, 0, None),
    'axiom2': (True, 0, None),
    'axiom3': (True, 0, None),
    'axiom4': (True, 0, None),
    'axiom5': (True, 0, None),
    'axiom6': (True, 0, None),
    'axiom7': (True, 0, None),
    'axiom8': (True, 0, None),
    'axiom9': (True, 0, None),
    'axiom10': (True, 0, None),
    'axiom11': (True, 0, None),
    'axiom12': (True, 0, None),
    'weak-over-axiom': (True, 1, None),
    'excluded-middle': (True, 2, None),
    'excluded-middle-delta2': (True, 2, None),
    'exists-intro': (True, 1, None),
    'conjunction-of-truths': (True, 2, None),
    'cut-over-weakenings': (True, 2, None),
    'diagram-0': (True, 11, None),
    'diagram-1': (True, 6, None),
    'diagram-2': (True, 7, None),
    'diagram-3': (True, 5, None),
    'diagram-4': (True, 5, None),
    'diagram-5': (True, 12, None),
    'diagram-6': (True, 8, None),
    'diagram-7': (True, 11, None),
    'uniform-refutation-0': (True, 12, None),
    'uniform-refutation-1': (True, 14, None),
    'uniform-refutation-2': (True, 14, None),
    'prop-height-2': (True, 2, None),
    'prop-lem': (True, 1, None),
    'prop-over-exists': (True, 2, None),
    'oracle-schema': (True, 1, None),
    'or-commutes/certified': (True, 6, None),
    'or-commutes-2/certified': (True, 6, None),
    'or-commutes-3/certified': (True, 6, None),
    'neq-from-hypotheses/certified': (True, 10, None),
    'axiom1/certified': (True, 0, None),
    'axiom2/certified': (True, 0, None),
    'axiom3/certified': (True, 0, None),
    'axiom4/certified': (True, 0, None),
    'axiom5/certified': (True, 0, None),
    'axiom6/certified': (True, 0, None),
    'axiom7/certified': (True, 0, None),
    'axiom8/certified': (True, 0, None),
    'axiom9/certified': (True, 0, None),
    'axiom10/certified': (True, 0, None),
    'axiom11/certified': (True, 0, None),
    'axiom12/certified': (True, 0, None),
    'weak-over-axiom/certified': (True, 1, None),
    'excluded-middle/certified': (True, 2, None),
    'excluded-middle-delta2/certified': (True, 2, None),
    'exists-intro/certified': (True, 1, None),
    'conjunction-of-truths/certified': (True, 2, None),
    'cut-over-weakenings/certified': (True, 2, None),
    'diagram-0/certified': (True, 11, None),
    'diagram-1/certified': (True, 6, None),
    'diagram-2/certified': (True, 7, None),
    'diagram-3/certified': (True, 5, None),
    'diagram-4/certified': (True, 5, None),
    'diagram-5/certified': (True, 12, None),
    'diagram-6/certified': (True, 8, None),
    'diagram-7/certified': (True, 11, None),
    'uniform-refutation-0/certified': (True, 12, None),
    'uniform-refutation-1/certified': (True, 14, None),
    'uniform-refutation-2/certified': (True, 14, None),
    'prop-height-2/certified': (True, 2, None),
    'prop-lem/certified': (True, 1, None),
    'prop-over-exists/certified': (True, 2, None),
    'oracle-schema/certified': (True, 1, None),
    'or-commutes/negated':
        (False, None, 'root: no disjunction in the conclusion matches the premise'),
    'or-commutes-2/negated':
        (False, None, 'root: no disjunction in the conclusion matches the premise'),
    'or-commutes-3/negated':
        (False, None, 'root: no disjunction in the conclusion matches the premise'),
    'neq-from-hypotheses/negated':
        (False, None, 'root: premises are not a cut pair over the conclusion'),
    'axiom2/negated': (False, None, 'root: conclusion does not instantiate axiom2'),
    'axiom3/negated': (False, None, 'root: conclusion does not instantiate axiom3'),
    'axiom9/negated': (False, None, 'root: conclusion does not instantiate axiom9'),
    'axiom10/negated': (False, None, 'root: conclusion does not instantiate axiom10'),
    'axiom11/negated': (False, None, 'root: conclusion does not instantiate axiom11'),
    'axiom12/negated': (False, None, 'root: conclusion does not instantiate axiom12'),
    'excluded-middle/negated':
        (False, None, 'root: no disjunction in the conclusion matches the premise'),
    'excluded-middle-delta2/negated':
        (False, None, 'root: no disjunction in the conclusion matches the premise'),
    'exists-intro/negated':
        (False, None, 'root: premise is not an instance of an existential in the conclusion'),
    'conjunction-of-truths/negated':
        (False, None, 'root: premises do not split a negated disjunction'),
    'cut-over-weakenings/negated':
        (False, None, 'root: premises are not a cut pair over the conclusion'),
    'diagram-0/negated': (False, None, 'root: premises are not a cut pair over the conclusion'),
    'diagram-1/negated': (False, None, 'root: premises are not a cut pair over the conclusion'),
    'diagram-2/negated': (False, None, 'root: premises are not a cut pair over the conclusion'),
    'diagram-3/negated':
        (False, None, 'root: no disjunction in the conclusion matches the premise'),
    'diagram-4/negated':
        (False, None, 'root: premise is not an instance of an existential in the conclusion'),
    'diagram-5/negated':
        (False, None, 'root: schema conclusion does not instantiate a negated existential'),
    'diagram-6/negated':
        (False, None, 'root: premise is not an instance of an existential in the conclusion'),
    'diagram-7/negated': (False, None, 'root: premises are not a cut pair over the conclusion'),
    'uniform-refutation-0/negated':
        (False, None, 'root: schema conclusion does not instantiate a negated existential'),
    'uniform-refutation-1/negated':
        (False, None, 'root: schema conclusion does not instantiate a negated existential'),
    'uniform-refutation-2/negated':
        (False, None, 'root: schema conclusion does not instantiate a negated existential'),
    'prop-height-2/negated':
        (False, None, 'root: certificate does not end with the conclusion disjunction'),
    'prop-lem/negated':
        (False, None, 'root: certificate does not end with the conclusion disjunction'),
    'prop-over-exists/negated':
        (False, None, 'root: certificate does not end with the conclusion disjunction'),
    'oracle-schema/negated':
        (False, None, 'root: schema conclusion does not instantiate a negated existential'),
    'or-commutes/tag': (False, None, 'root: or-i3 takes exactly two premises'),
    'or-commutes/leaf-tag': (False, None, '0/0/0/0/1/0: conclusion does not instantiate axiom2'),
    'or-commutes/drop': (False, None, 'root: or-i2 takes exactly one premise'),
    'neq-from-hypotheses/tag': (False, None, 'root: ex-i takes exactly one premise'),
    'neq-from-hypotheses/leaf-tag': (False, None, '1/0: conclusion does not instantiate axiom3'),
    'neq-from-hypotheses/drop': (False, None, 'root: cut takes exactly two premises'),
    'diagram-5/tag': (False, None, 'root: prop rule disabled by policy'),
    'diagram-5/leaf-tag': (False, None, 'u/1/0: conclusion does not instantiate axiom3'),
    'diagram-5/drop': (False, None, 'u: cut takes exactly two premises'),
    'diagram-5/sample': (True, 12, None),
    'uniform-refutation-0/tag': (False, None, 'root: prop rule disabled by policy'),
    'uniform-refutation-0/leaf-tag':
        (False, None, 'u/1/0: conclusion does not instantiate axiom3'),
    'uniform-refutation-0/drop': (False, None, 'u: cut takes exactly two premises'),
    'uniform-refutation-0/sample': (True, 12, None),
    'uniform-refutation-2/tag': (False, None, 'root: prop rule disabled by policy'),
    'uniform-refutation-2/leaf-tag':
        (False, None, 'u/1/u/1/0: conclusion does not instantiate axiom3'),
    'uniform-refutation-2/drop': (False, None, 'u: or-i3 takes exactly two premises'),
    'uniform-refutation-2/sample': (True, 14, None),
    'prop-height-2/tag': (False, None, 'root: infinite instantiation rules disabled by policy'),
    'prop-height-2/leaf-tag': (False, None, '0/0: conclusion does not instantiate axiom4'),
    'prop-height-2/drop': (False, None, 'root: certificate rejected'),
    'oracle-schema/tag': (False, None, 'root: prop rule disabled by policy'),
    'oracle-schema/leaf-tag': (False, None, 'u: weak takes exactly one premise'),
    'oracle-schema/sample': (False, None, 's/0: sentence is not an accepted extra axiom'),
    # the block rules and the shape cases, recorded before m-rule became
    # the one-block case of m-inf; identical under string-hash seeds 0, 1, 2
    'block-instance': (True, 1, None),
    'block-schema': (True, 1, None),
    'block-instance/certified':
        (False, None, 'root: infinite instantiation rules disabled by policy'),
    'block-schema/certified':
        (False, None, 'root: infinite instantiation rules disabled by policy'),
    'block-instance/negated':
        (False, None, 'root: premise is not a block instance of the conclusion'),
    'block-schema/negated': (False, None, 'root: schema conclusion is not a block instance'),
    'block-instance/tag':
        (False, None, 'root: non-uniform premise family never checks as complete'),
    'block-instance/leaf-tag': (False, None, '0: weak takes exactly one premise'),
    'block-instance/drop': (False, None, 'root: i-ex-inf takes exactly one premise'),
    'block-schema/tag': (False, None, 'root: skolem rule disabled by policy'),
    'block-schema/leaf-tag': (False, None, 'u: weak takes exactly one premise'),
    'block-schema/sample': (True, 1, None),
    'm-rule/premises': (False, None, 'root: non-uniform premise family never checks as complete'),
    'm-rule/no-schema': (False, None, 'root: m-rule needs a uniform premise schema'),
    'm-rule/two-params': (False, None, 'root: m-rule binds exactly one parameter'),
    'm-rule/unsampled': (False, None, 'root: unsampled uniform schema'),
    'm-rule/pair-sample': (False, None, 'root: m-rule samples are single elements'),
    'm-rule/not-fresh': (False, None, 'root: parameter p is not fresh'),
    'm-rule/foreign-schema':
        (False, None, 'root: schema conclusion does not instantiate a negated existential'),
    'm-rule/block-ignored': (True, 1, None),
    'm-rule/as-m-inf': (True, 1, None),
    'm-rule/two-block': (False, None, 'root: m-rule binds exactly one parameter'),
    'm-inf/disabled': (False, None, 'root: infinite instantiation rules disabled by policy'),
    'm-inf/premises': (False, None, 'root: non-uniform premise family never checks as complete'),
    'm-inf/no-block': (False, None, 'root: m-inf needs a uniform schema and block indices'),
    'm-inf/repeated-block': (False, None, 'root: block arity mismatch'),
    'm-inf/one-param': (False, None, 'root: block arity mismatch'),
    'm-inf/unsampled': (False, None, 'root: unsampled uniform schema'),
    'm-inf/short-sample': (False, None, 'root: block arity mismatch'),
    'm-inf/not-fresh': (False, None, 'root: parameter pb is not fresh'),
    'm-inf/swapped-block': (False, None, 'root: schema conclusion is not a block instance'),
    'm-inf/short-block': (False, None, 'root: schema conclusion is not a block instance'),
    'm-inf/refused-sample': (False, None, 's/1: sentence is not an accepted extra axiom'),
    'i-ex-inf/disabled': (False, None, 'root: infinite instantiation rules disabled by policy'),
    'i-ex-inf/no-tuple': (False, None, 'root: block rule needs block indices and a value tuple'),
    'i-ex-inf/repeated-block': (False, None, 'root: block arity mismatch'),
    'i-ex-inf/short-tuple': (False, None, 'root: block arity mismatch'),
    'i-ex-inf/wrong-tuple':
        (False, None, 'root: premise is not a block instance of the conclusion'),
    'i-ex-inf/short-block':
        (False, None, 'root: premise is not a block instance of the conclusion'),
    'i-ex-inf/as-ex-i':
        (False, None, 'root: premise is not an instance of an existential in the conclusion'),
}
