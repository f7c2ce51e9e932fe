"""The cached keys of the canonical orders.

``coding.code_key`` (the order of ``kernel.vee``'s disjuncts) and
``template._sort_key`` (the normal order of chain steps) are cached on
the nodes they key. These tests hold ``vee``, ``normalize`` and
``uniform_union`` to references that compute every key afresh, over
corpus sentences, eldiag proofs, template boxes and family references
(which have no code and sort by their text), and pin the Gödel encodes
that translating, converting and checking the corpus make.
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import satkit.coding as coding
import satkit.syntax as sx
import satkit.template as tp
from satkit.coding import NotEncodable, code_key, godel_encode
from satkit.corpus import base_corpus, mprop_entries
from satkit.eldiag import prove_eldiag
from satkit.elements import Sym, sym
from satkit.kernel import RulePolicy, TEMPLATE_POLICY, check, template_policy_for, vee
from satkit.transform import to_certified_calculus
from satkit.translate import translate_proof
from generators import random_decidable_sentence, random_templated


def _ref_code_key(x):
    try:
        return (0, godel_encode(x).code)
    except NotEncodable:
        return (1, repr(x))


def _ref_sort_key(target):
    d = sx.skeleton_depth(target)
    if isinstance(d, Sym):
        return (0, d.base, -d.coeff, -d.offset, repr(target))
    return (1, -d.n, _ref_code_key(target))


def _ref_vee(sentences):
    items = sorted(set(sentences), key=_ref_code_key)
    if not items:
        return sx.FALSUM
    out = items[-1]
    for f in reversed(items[:-1]):
        out = sx.Or(f, out)
    return out


def _ref_normalize(f: tp.ApproxChain) -> tp.ApproxChain:
    return tp.ApproxChain(tuple(sorted(tp._dedup_congruent(f.steps), key=_ref_sort_key)))


def _fresh(x):
    """An equal copy with no cached fact."""
    return pickle.loads(pickle.dumps(x))


@pytest.fixture(scope="module")
def sequents():
    """The sequents of the corpus proofs, of their translations and of
    eldiag proofs of seeded true and false sentences."""
    proofs = [e.proof for e in base_corpus() + mprop_entries()]
    proofs += [translate_proof(e.proof, e.policy).proof for e in base_corpus()]
    rng = random.Random(15)
    proofs += [prove_eldiag(random_decidable_sentence(rng, k % 3 > 0)) for k in range(24)]
    return [q.conclusion.sentences for p in proofs for q in sx.subobjects(p)]


@pytest.fixture(scope="module")
def pool(sequents):
    """Objects of every kind the orders meet: coded formulas and terms,
    uncoded ones (parametric constants, family references, abbreviations
    inside boxes) and template boxes."""
    rng = random.Random(5)
    found = {x for s in sequents for f in s for x in sx.subobjects(f)}
    found |= {x for _ in range(60) for x in sx.subobjects(random_templated(rng, 4))}
    a = sym("a")
    found |= {sx.delta(a), sx.epsilon(a, sx.FALSUM), sx.numeral(a), sx.addtower(a),
              tp.templ(sx.delta(a)), tp.templ(sx.numeral(sym("b", 2, 1)))}
    return sorted(found, key=repr)


def test_cached_keys_match_fresh_keys(pool):
    kinds = set()
    for x in pool:
        want_code, want_sort = _ref_code_key(x), _ref_sort_key(x)
        kinds.add((want_code[0], want_sort[0]))
        twin = _fresh(x)
        # asked once to fill the cache and again to read it, on two copies
        # asked in opposite orders
        for y, first in ((x, code_key), (twin, tp._sort_key)):
            first(y)
            assert code_key(y) == want_code and tp._sort_key(y) == want_sort
            assert code_key(y) == want_code and tp._sort_key(y) == want_sort
    # every branch of both keys occurs
    assert {(0, 1), (1, 1), (1, 0)} <= kinds


def test_vee_matches_fresh_keys(sequents, pool):
    rng = random.Random(7)
    groups = [list(s) for s in sequents]
    groups += [rng.sample(pool, rng.randrange(1, 8)) for _ in range(300)]
    for g in groups:
        want = _ref_vee(g)
        assert vee(g) == want and vee(g) == want
        # equal copies built apart, some with keys cached and some without
        assert vee([_fresh(f) for f in g] + g) == want


def test_normal_order_matches_fresh_keys(pool):
    rng = random.Random(9)
    for _ in range(300):
        chains = [tp.ApproxChain(tuple(rng.sample(pool, rng.randrange(0, 8))))
                  for _ in range(rng.randrange(1, 4))]
        for c in chains:
            want = _ref_normalize(c)
            assert tp.normalize(c) == want and tp.normalize(c) == want
        steps = tuple(s for c in chains for s in c.steps)
        want = _ref_normalize(tp.ApproxChain(steps))
        assert tp.uniform_union(chains) == want
        assert tp.uniform_union([tp.ApproxChain(tuple(map(_fresh, steps)))]) == want


def _translate_convert_check(corpus):
    for e in corpus:
        lam = e.policy.extra_axioms
        res = translate_proof(e.proof, e.policy)
        assert check(res.proof, template_policy_for(lam) if lam else TEMPLATE_POLICY).ok
        cpol = RulePolicy(allow_prop=True, extra_axioms=lam)
        assert check(to_certified_calculus(e.proof), cpol).ok, e.name


def test_each_node_is_encoded_at_most_once(monkeypatch):
    encoded = []  # holding the nodes keeps their ids apart
    monkeypatch.setattr(coding, "godel_encode",
                        lambda x: encoded.append(x) or godel_encode(x))
    _translate_convert_check(base_corpus())
    assert encoded and len({id(x) for x in encoded}) == len(encoded)


_COUNT = """
import satkit.coding as coding
from satkit.corpus import base_corpus
from test_order_keys import _translate_convert_check

calls = [0]
encode = coding.godel_encode
def counted(x):
    calls[0] += 1
    return encode(x)
coding.godel_encode = counted
_translate_convert_check(base_corpus())
print(calls[0])
"""


def test_encodes_on_the_base_corpus():
    # in a fresh interpreter, where no node has a cached key yet; with the
    # keys computed at every sort it made 9,139 encodes, and 992 when the
    # function-symbol axioms' unfolding steps were built afresh, not taken
    # from the axiom's own sentence
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", _COUNT], capture_output=True, text=True,
                         env=env, check=True)
    assert int(out.stdout) == 973
