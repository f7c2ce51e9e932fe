import dataclasses
import inspect
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.sexpr as sexpr
import satkit.syntax as sx
import satkit.template as tp
from satkit.coding import code_key, godel_decode, godel_encode
from satkit.congruence import class_id, skeleton_congruent
from satkit.elements import Std, Sym, pred, std, subst_base, succ, sym
from satkit.kernel import (
    DEFAULT_SAMPLES, TEMPLATE_POLICY, KernelError, Proof, Sequent, bases_of, check,
    subst_elem_in_obj,
)
from generators import (
    assert_finishes, random_bounded_sentence, random_formula, random_templated, random_term,
    reatom,
)


def v(i):
    return sx.Var(i)


class TestFreeVars:
    def test_atom(self):
        assert sx.free_vars(sx.Eq(v(0), v(1))) == {0, 1}

    def test_binder_removes(self):
        assert sx.free_vars(sx.Ex(0, sx.Eq(v(0), v(1)))) == {1}

    def test_constants_contribute_nothing(self):
        f = sx.Eq(sx.Add(sx.const(sym("a")), v(2)), sx.ZERO)
        assert sx.free_vars(f) == {2}


class TestSubstitution:
    def test_free_occurrence(self):
        f = sx.Ex(0, sx.Eq(v(0), v(1)))
        got = sx.substitute(f, sx.const(std(5)), 1)
        assert got == sx.Ex(0, sx.Eq(v(0), sx.const(std(5))))

    def test_bound_occurrence_untouched(self):
        f = sx.Ex(0, sx.Eq(v(0), v(1)))
        assert sx.substitute(f, sx.const(std(5)), 0) == f

    def test_all_occurrences(self):
        f = sx.Eq(sx.Add(v(0), v(0)), sx.ZERO)
        got = sx.substitute(f, sx.Succ(sx.ZERO), 0)
        assert got == sx.Eq(sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)), sx.ZERO)

    def test_untouched_when_not_free(self):
        rng = random.Random(3)
        for _ in range(300):
            f = random_formula(rng, 3)
            i = max(sx.free_vars(f), default=-1) + 1
            assert sx.substitute(f, sx.const(std(9)), i) == f

    def test_capture_raises(self):
        f = sx.Ex(0, sx.Eq(v(0), v(1)))
        with pytest.raises(sx.CaptureRisk):
            sx.substitute(f, v(0), 1)


def _from_list(values: list[int]) -> sx.VarAssignment:
    """Positional decoding: values[i] == 0 means untouched, k+1 means c_k."""
    return sx.VarAssignment.of({i: std(v - 1) for i, v in enumerate(values) if v != 0})


def _to_list(a: sx.VarAssignment) -> list[int]:
    """The positional coding of an assignment of standard elements."""
    out = [0] * (max((i for i, _ in a.entries), default=-1) + 1)
    for i, x in a.entries:
        assert isinstance(x, Std), "only standard assignments have a coded form"
        out[i] = x.n + 1
    return out


class TestMultiSubstitution:
    def test_positional_decoding(self):
        a = _from_list([1, 3])
        got = sx.multi_substitute(sx.Eq(v(0), v(1)), a)
        assert got == sx.Eq(sx.ZERO, sx.const(std(2)))

    def test_zero_assignment_is_identity(self):
        rng = random.Random(5)
        empty = sx.VarAssignment.of({})
        for _ in range(100):
            f = random_formula(rng, 3)
            assert sx.multi_substitute(f, empty) == f

    def test_coded_round_trip(self):
        a = _from_list([0, 2, 0, 7])
        assert _from_list(_to_list(a)) == a

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_disjoint_supports_compose(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, 3, max_var=6)
        left = {i: std(rng.randrange(20)) for i in range(0, 6, 2) if rng.random() < 0.8}
        right = {i: std(rng.randrange(20)) for i in range(1, 6, 2) if rng.random() < 0.8}
        a, b = sx.VarAssignment.of(left), sx.VarAssignment.of(right)
        merged = sx.VarAssignment.of({**left, **right})
        stepwise = sx.multi_substitute(sx.multi_substitute(f, a), b)
        assert stepwise == sx.multi_substitute(f, merged)


class TestExpansion:
    def test_and_adds_exactly_two(self):
        phi = sx.Or(sx.Eq(v(0), v(0)), sx.Eq(v(1), v(1)))
        psi = sx.Not(sx.Eq(sx.ZERO, sx.ZERO))
        f = sx.And(phi, psi)
        out = sx.expand_abbreviation(f)
        assert out == sx.Not(sx.Or(sx.Not(phi), sx.Not(psi)))
        assert sx.depth(out) == Std(sx.depth(f).n + 2)

    def test_forall(self):
        f = sx.All(0, sx.Eq(v(0), v(0)))
        assert sx.expand_abbreviation(f) == sx.Not(sx.Ex(0, sx.Not(sx.Eq(v(0), v(0)))))

    def test_less_than_depth_bound(self):
        t, r = sx.Succ(sx.ZERO), sx.const(std(5))
        f = sx.Lt(t, r)
        out = sx.expand_abbreviation(f)
        assert sx.is_primitive(out)
        assert sx.depth(out).n <= sx.depth(f).n + 4
        # shape: exists z not(z = 0 or not(t + z = r))
        assert isinstance(out, sx.Ex)

    def test_idempotent_on_image(self):
        rng = random.Random(9)
        for _ in range(200):
            f = random_formula(rng, 3)
            g = sx.expand_abbreviation(
                sx.And(f, sx.Imp(f, sx.Xor(f, sx.Not(f)))))
            assert sx.expand_abbreviation(g) == g
            assert sx.is_primitive(g)


class TestBuilders:
    def test_numeral(self):
        assert sx.numeral(std(3)) == sx.Succ(sx.Succ(sx.Succ(sx.ZERO)))
        assert sx.numeral(std(0)) == sx.ZERO

    def test_delta_recursion(self):
        d0 = sx.FALSUM
        assert sx.delta(0) == d0
        assert sx.delta(2) == sx.Or(sx.Or(d0, d0), sx.Or(d0, d0))

    def test_epsilon_base(self):
        phi = sx.Eq(sx.ZERO, sx.ZERO)
        assert sx.epsilon(0, phi) == sx.Not(sx.Or(phi, sx.Not(phi)))
        e1 = sx.epsilon(1, phi)
        assert e1 == sx.Or(sx.epsilon(0, phi), sx.epsilon(0, phi))

    def test_delta_depth_is_index_plus_one(self):
        for a in range(7):
            assert sx.depth(sx.delta(a)) == Std(a + 1)

    def test_symbolic_families_unfold(self):
        a = sym("a")
        d = sx.delta(a)
        step = sx.unfold_ref(d)
        assert isinstance(step, sx.Or) and step.left == step.right
        assert step.left.index.offset == -1
        n = sx.numeral(a)
        assert isinstance(sx.unfold_ref(n), sx.Succ)

    def test_const_elem_inverts_const(self):
        for e in (std(0), std(7), sym("a"), Sym("b", 2, -3)):
            assert sx.const_elem(sx.const(e)) == e

    def test_const_elem_is_none_on_non_constants(self):
        for x in (sx.Var(0), sx.Succ(sx.ZERO), sx.Add(sx.ZERO, sx.ZERO),
                  sx.numeral(sym("a")), sx.Eq(sx.ZERO, sx.ZERO), tp.TemplTerm(sx.ZERO)):
            assert sx.const_elem(x) is None

    def test_constant_zero_identified(self):
        assert sx.const(std(0)) is sx.ZERO
        with pytest.raises(sx.SyntaxError_):
            sx.Const(std(0))


class TestCodingBridge:
    def test_round_trip_preserves_ast(self):
        rng = random.Random(21)
        for _ in range(500):
            x = random_formula(rng, 4) if rng.random() < 0.7 else random_term(rng, 4)
            assert godel_decode(godel_encode(x)) == x


# uncached reference walks for the facts that nodes cache


def _parts(x):
    return [v for v in (getattr(x, f.name) for f in dataclasses.fields(x))
            if isinstance(v, (sx.Term, sx.Formula))]


def _nodes(x):
    yield x
    for part in _parts(x):
        yield from _nodes(part)


def _rebuild(x):
    """A copy of x made of new nodes, none of which has a cached fact."""
    if not isinstance(x, (sx.Term, sx.Formula)):
        return x
    return type(x)(*(_rebuild(getattr(x, f.name)) for f in dataclasses.fields(x)))


def _distinct_nodes(x):
    """Every distinct node object of x once, so shared towers stay small."""
    seen, stack = set(), [x]
    while stack:
        y = stack.pop()
        if id(y) not in seen:
            seen.add(id(y))
            yield y
            stack.extend(_parts(y))


def _fresh_copy(x, made: dict):
    """_rebuild that keeps x's sharing: one new node per node object."""
    if not isinstance(x, (sx.Term, sx.Formula)):
        return x
    if id(x) not in made:
        made[id(x)] = type(x)(*(_fresh_copy(getattr(x, f.name), made)
                                for f in dataclasses.fields(x)))
    return made[id(x)]


def _ref_free_vars(x) -> set:
    if isinstance(x, sx.Var):
        return {x.index}
    if isinstance(x, (sx.SymTermRef, sx.SymFormulaRef)):
        return set()
    below = set().union(*(_ref_free_vars(p) for p in _parts(x)))
    return below - {x.index} if isinstance(x, sx.Ex) else below


def _ref_has_templates(x):
    """True or False, or the first abbreviation outside a box in pre-order."""
    if isinstance(x, (tp.TemplTerm, tp.TemplForm)):
        return True
    if isinstance(x, (sx.And, sx.Imp, sx.Iff, sx.Xor, sx.All, sx.Lt, sx.BEx, sx.BAll)):
        return x
    found = False
    for p in _parts(x):
        t = _ref_has_templates(p)
        if not isinstance(t, bool):
            return t
        found = found or t
    return found


def _ref_bases(x) -> set:
    own = set()
    if isinstance(x, sx.Const) and isinstance(x.elem, Sym):
        own = {x.elem.base}
    if isinstance(x, (sx.SymTermRef, sx.SymFormulaRef)):
        own = {x.index.base}
    return own.union(*(_ref_bases(p) for p in _parts(x)))


def _ref_is_primitive(x) -> bool:
    if isinstance(x, (sx.Term, sx.Eq, sx.SymFormulaRef)):
        return True
    if isinstance(x, (sx.Not, sx.Or, sx.Ex)):
        return all(_ref_is_primitive(p) for p in _parts(x))
    return False  # an abbreviation or a template formula


_BINDERS = (sx.Ex, sx.All, sx.BEx, sx.BAll)
_ATOMS = (sx.Zero, sx.Const, sx.Var)
_OPAQUE = (sx.SymTermRef, sx.SymFormulaRef, tp.TemplTerm, tp.TemplForm)


def _fields(x):
    return [getattr(x, f.name) for f in dataclasses.fields(x)]


def _ref_multi_substitute(x, values: dict, shadow=frozenset()):
    """Substitution by fields: a binder shadows its index in its body
    only; template symbols are read through, family references closed."""
    if isinstance(x, sx.Var):
        e = values.get(x.index) if x.index not in shadow else None
        return x if e is None else sx.const(e)
    if isinstance(x, (sx.SymTermRef, sx.SymFormulaRef)):
        return x
    out = []
    for f in dataclasses.fields(x):
        w = getattr(x, f.name)
        if isinstance(w, (sx.Term, sx.Formula)):
            inner = shadow | {x.index} if isinstance(x, _BINDERS) and f.name == "body" else shadow
            w = _ref_multi_substitute(w, values, inner)
        out.append(w)
    return type(x)(*out)


def _ref_congruent(a, b) -> bool:
    """Constructor skeletons and binder indices agree; constants and
    variables all relate; family references and boxes only to equals."""
    if isinstance(a, _ATOMS) and isinstance(b, _ATOMS):
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, _OPAQUE):
        return a == b
    return all(_ref_congruent(u, w) if isinstance(u, (sx.Term, sx.Formula)) else u == w
               for u, w in zip(_fields(a), _fields(b)))


def _reatom(x, rng):
    """x with every constant and variable replaced by a random one."""
    if isinstance(x, _ATOMS):
        return random_term(rng, 0)
    if isinstance(x, _OPAQUE):
        return x
    return type(x)(*(_reatom(w, rng) if isinstance(w, (sx.Term, sx.Formula)) else w
                     for w in _fields(x)))


def _reparse(x):
    return sexpr.parse_obj(sexpr.read_one(sexpr.print_obj(x)))


def _ref_tokenize(text: str) -> list[str]:
    # the character loop sexpr.tokenize replaced
    out: list[str] = []
    tok = []
    for ch in text:
        if ch in "()":
            if tok:
                out.append("".join(tok))
                tok = []
            out.append(ch)
        elif ch.isspace():
            if tok:
                out.append("".join(tok))
                tok = []
        else:
            tok.append(ch)
    if tok:
        out.append("".join(tok))
    return out


def test_tokenize_matches_the_character_loop():
    # every whitespace character, including the separators \x1c-\x1f,
    # \x85 and \u3000, next to parentheses, words and each other
    spaces = [chr(c) for c in range(0x3001) if chr(c).isspace()]
    assert {"\x1c", "\x85", "\u3000"} <= set(spaces)
    alphabet = spaces + list("(()))(ab0v1-+*=\x00\u00a0\u200b")
    rng = random.Random(1)
    texts = ["", " ", "()", ")(", "(((", "a(b)c", "\x1c(\x85)\u3000"]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
              for _ in range(3000)]
    for text in texts:
        assert sexpr.tokenize(text) == _ref_tokenize(text), repr(text)


class TestCachedFacts:
    @staticmethod
    def _agree(y):
        assert sx.is_primitive(y) == _ref_is_primitive(y)
        assert sx.free_vars(y) == _ref_free_vars(y)
        assert tp.has_templates(y) == _ref_has_templates(y)
        assert bases_of(y) == _ref_bases(y)
        assert hash(y) == hash(_rebuild(y))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_cached_facts_match_fresh_walks(self, seed):
        rng = random.Random(seed)
        x = random_templated(rng, 4)
        twin = _rebuild(x)
        assert twin is not x and twin == x and hash(twin) == hash(x)
        # facts asked root first on one copy, leaves first on the other
        for y in _nodes(x):
            self._agree(y)
        for y in reversed(list(_nodes(twin))):
            self._agree(y)
        # each cached set is one shared object per distinct set
        assert sx.free_vars(twin) is sx.free_vars(x)
        assert bases_of(twin) is bases_of(x)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_primitivity_matches_a_fresh_walk_over_abbreviations(self, seed):
        rng = random.Random(seed)
        f = random_bounded_sentence(rng, 3)
        g = sx.Or(sx.expand_abbreviation(f), f) if rng.random() < 0.5 else f
        for y in _nodes(g):
            assert sx.is_primitive(y) == _ref_is_primitive(y)
        assert sx.is_primitive(_rebuild(g)) == _ref_is_primitive(g)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_template_flag_caches_the_first_abbreviation(self, seed):
        # unexpanded sentences next to boxes: every node's rejection names
        # the reference's abbreviation on the first call and, read from the
        # cache, on a repeated one; the kernel's texts around it stay
        rng = random.Random(seed)
        box = tp.TemplForm(random_bounded_sentence(rng, 2))
        f, g = random_bounded_sentence(rng, 3), random_bounded_sentence(rng, 2)
        x = sx.Or(box, sx.Or(f, sx.And(g, box))) if seed % 2 else sx.Or(f, box)
        for y in _nodes(x):
            want = _ref_has_templates(y)
            for _ in range(2):
                if isinstance(want, bool):
                    assert tp.has_templates(y) is want
                    continue
                with pytest.raises(tp.TemplateError) as exc:
                    tp.has_templates(y)
                assert str(exc.value) == f"non-primitive node {want!r}"
        if isinstance(_ref_has_templates(x), bool):
            return
        with pytest.raises(KernelError) as exc:
            Sequent.of(x)
        assert str(exc.value) == f"abbreviation in a sequent: {x!r}"
        rep = check(Proof(Sequent(frozenset((x,))), "axiom1"), TEMPLATE_POLICY)
        assert rep.first_error() == f"root: ill-formed template sentence {x!r}"

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_rebuilding_walks_match_field_walks(self, seed):
        # substitution, congruence and the text round trip against walks
        # over the dataclass fields; their outputs' facts against fresh walks
        rng = random.Random(seed)
        templated = seed % 2 == 1
        x = random_templated(rng, 4) if templated else random_bounded_sentence(rng, 3)
        e = std(rng.randrange(5))
        values = {i: std(rng.randrange(5)) for i in range(4) if rng.random() < 0.5}
        made = []
        for y in _nodes(x):
            for i in range(4):
                got = sx.substitute(y, sx.const(e), i)
                assert got == _ref_multi_substitute(y, {i: e})
                if i not in sx.free_vars(y):
                    assert got is y
                made.append(got)
            got = sx.multi_substitute(y, sx.VarAssignment.of(values))
            assert got == _ref_multi_substitute(y, values)
            back = _reparse(y)
            assert back == y
            made += [got, back]
        if not templated:  # abbreviations: no template facts, no congruence
            return
        for y in made:
            self._agree(y)
        others = list(_nodes(_reatom(x, rng))) + list(_nodes(random_templated(rng, 3)))
        for y in _nodes(x):
            for z in others:
                assert skeleton_congruent(y, z) == _ref_congruent(y, z)
            # the cached class ids: a copy built apart, with no fact filled,
            # has y's id; an id is shared exactly with the congruent nodes,
            # a substitution instance among them unless it reached into a box
            fresh = _rebuild(y)
            assert class_id(fresh) == class_id(y)
            for z in others + [sx.substitute(fresh, sx.const(e), 0)]:
                assert (class_id(z) == class_id(fresh)) == _ref_congruent(y, z)

    @given(st.integers(0, 10 ** 6), st.sampled_from(DEFAULT_SAMPLES))
    @settings(max_examples=120, deadline=None)
    def test_instances_keep_only_facts_a_fresh_walk_gives(self, seed, value):
        # an instance keeps its original's free variables and template flag
        # where its rebuilt children keep theirs; an eps tower unfolding at
        # a standard index to an open payload, or to one holding a box, may not
        rng = random.Random(seed)
        p = sym("p", 1, rng.randrange(3))
        box = tp.TemplForm(random_formula(rng, 2))
        x = sx.Or(random_templated(rng, 4), sx.Or(
            sx.epsilon(p, sx.Eq(v(0), sx.const(p))),
            sx.epsilon(sym("p"), sx.Or(box, sx.Eq(sx.const(p), sx.ZERO)))))
        everything = seed % 2 == 1
        for y in list(_distinct_nodes(x))[::1 if everything else 3]:
            sx.free_vars(y), tp.has_templates(y)
        got = subst_elem_in_obj(x, "p", value, {})
        kept = 0
        for y in _distinct_nodes(got):
            fresh = _fresh_copy(y, {})
            fv, tm = getattr(y, "_fv", None), getattr(y, "_tm", None)
            assert fv is None or fv == sx.free_vars(fresh)
            assert tm is None or tm == tp.has_templates(fresh)
            kept += fv is not None and tm is not None
        if everything and isinstance(value, Sym):  # no tower unfolds
            assert got._fv is x._fv and got._tm is x._tm
        assert kept > 0

    def test_equal_nodes_built_apart(self):
        a = sx.Ex(0, sx.Or(sx.Eq(v(0), sx.const(sym("p"))), tp.TemplForm(sx.FALSUM)))
        b = sx.Ex(0, sx.Or(sx.Eq(v(0), sx.const(sym("p"))), tp.TemplForm(sx.FALSUM)))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert sx.Not(a) != a and sx.Add(v(0), v(1)) != sx.Mul(v(0), v(1))

    def test_pickling_carries_no_cached_fact(self):
        # string hashes differ between processes, so caches must not travel
        f = sx.Eq(sx.const(sym("p")), sx.Succ(v(0)))
        hash(f), tp.has_templates(f), sx.free_vars(f), bases_of(f), code_key(f), tp._sort_key(f)
        class_id(f)
        assert all(getattr(f, slot, None) is not None for slot in sx.FACT_SLOTS)
        g = pickle.loads(pickle.dumps(f))
        assert g == f and all(getattr(g, slot, None) is None for slot in sx.FACT_SLOTS)

    def test_nodes_are_immutable(self):
        f = sx.Eq(v(0), v(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.left = v(2)
        assert not hasattr(f, "__dict__")


def _node_classes():
    return {c for m in (sx, tp) for c in vars(m).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c)
            and issubclass(c, (sx.Term, sx.Formula))}


class TestProtocol:
    a = sym("a")
    EXAMPLES = [
        sx.ZERO, sx.const(std(3)), v(2), sx.Succ(v(0)), sx.Add(v(0), sx.ZERO),
        sx.Mul(sx.const(a), v(1)), sx.SymTermRef("num", a),
        sx.Eq(v(0), v(1)), sx.Not(sx.FALSUM), sx.Or(sx.FALSUM, sx.Eq(v(1), v(1))),
        sx.Ex(1, sx.Eq(v(1), v(0))), sx.delta(a), sx.epsilon(a, sx.Eq(v(0), v(0))),
        sx.And(sx.FALSUM, sx.FALSUM), sx.Imp(sx.FALSUM, sx.Eq(v(0), v(0))),
        sx.Iff(sx.FALSUM, sx.FALSUM), sx.Xor(sx.FALSUM, sx.FALSUM),
        sx.All(0, sx.Eq(v(0), v(1))), sx.Lt(v(0), sx.const(std(2))),
        sx.BEx(0, v(1), sx.Eq(v(0), v(1))), sx.BAll(2, sx.const(std(4)), sx.Eq(v(2), v(2))),
        tp.TemplTerm(sx.Succ(v(0))), tp.TemplForm(sx.Eq(v(0), v(1))),
    ]

    def test_every_node_class_has_an_example(self):
        # a new node class must be added here, and so to the checks below
        assert {type(x) for x in self.EXAMPLES} == _node_classes()

    @pytest.mark.parametrize("x", EXAMPLES, ids=lambda x: type(x).__name__)
    def test_children_are_the_term_and_formula_fields(self, x):
        # boxes are sealed leaves; an eps payload is data, not a child
        want = () if isinstance(x, sx.Sealed) else tuple(
            getattr(x, f.name) for f in dataclasses.fields(x) if f.type in ("Term", "Formula"))
        assert x.children == want
        assert all(a is b for a, b in zip(x.children, want))

    @pytest.mark.parametrize("x", EXAMPLES, ids=lambda x: type(x).__name__)
    def test_rebuild_inverts_children(self, x):
        y = x.rebuild(*x.children)
        assert y == x and type(y) is type(x)
        if not x.children:
            assert y is x
        else:
            new = tuple(sx.Not(k) if isinstance(k, sx.Formula) else sx.Succ(k)
                        for k in x.children)
            z = x.rebuild(*new)
            assert type(z) is type(x) and z.children == new
            assert [w for w in _fields(z) if not isinstance(w, (sx.Term, sx.Formula))] == \
                [w for w in _fields(x) if not isinstance(w, (sx.Term, sx.Formula))]

    def test_binders_and_abbreviations(self):
        classes = _node_classes()
        assert {c: c.scope for c in classes if c.scope} == {
            sx.Ex: (0,), sx.All: (0,), sx.BEx: (1,), sx.BAll: (1,)}
        assert {c for c in classes if c.extended} == {
            sx.And, sx.Imp, sx.Iff, sx.Xor, sx.All, sx.Lt, sx.BEx, sx.BAll}


# the recursive walks that ``fold`` steps replaced, kept as references


# each node class's fields, in order, as its class body declares them
DECLARED = {
    sx.Zero: (), sx.Const: ("elem",), sx.Var: ("index",), sx.Succ: ("arg",),
    sx.Add: ("left", "right"), sx.Mul: ("left", "right"), sx.SymTermRef: ("family", "index"),
    sx.Eq: ("left", "right"), sx.Not: ("body",), sx.Or: ("left", "right"),
    sx.Ex: ("index", "body"), sx.SymFormulaRef: ("family", "index", "payload"),
    sx.And: ("left", "right"), sx.Imp: ("left", "right"), sx.Iff: ("left", "right"),
    sx.Xor: ("left", "right"), sx.All: ("index", "body"), sx.Lt: ("left", "right"),
    sx.BEx: ("index", "bound", "body"), sx.BAll: ("index", "bound", "body"),
    tp.TemplTerm: ("obj",), tp.TemplForm: ("obj",),
}


def _dataclass_hash(x):
    """The hash that dataclass(frozen=True) gives: over the fields, in order."""
    return hash(tuple(getattr(x, f.name) for f in dataclasses.fields(x)))


class TestConstructor:
    """Each node class's generated constructor, hash and pickling keep the
    dataclass's contract."""

    REJECTED = [
        (lambda: sx.Const(Std(0)), sx.SyntaxError_),
        (lambda: sx.SymTermRef("tower", sym("a")), sx.SyntaxError_),
        (lambda: sx.SymTermRef("num", std(3)), sx.SyntaxError_),
        (lambda: sx.SymFormulaRef("gamma", sym("a")), sx.SyntaxError_),
        (lambda: sx.SymFormulaRef("delta", std(3)), sx.SyntaxError_),
        (lambda: sx.SymFormulaRef("eps", sym("a")), sx.SyntaxError_),
        (lambda: sx.SymFormulaRef("delta", sym("a"), sx.FALSUM), sx.SyntaxError_),
        (lambda: tp.TemplTerm(sx.FALSUM), tp.TemplateError),
        (lambda: tp.TemplTerm(tp.TemplTerm(sx.ZERO)), tp.TemplateError),
        (lambda: tp.TemplForm(sx.ZERO), tp.TemplateError),
        (lambda: tp.TemplForm(tp.TemplForm(sx.FALSUM)), tp.TemplateError),
    ]

    def test_every_node_class_is_declared(self):
        assert set(DECLARED) == _node_classes()
        assert sx.SymFormulaRef("delta", sym("a")).payload is None
        # every family reference answers payload, a term one from its class
        assert sx.SymTermRef("num", sym("a")).payload is None

    @pytest.mark.parametrize("x", TestProtocol.EXAMPLES, ids=lambda x: type(x).__name__)
    def test_fields_and_defaults_are_as_declared(self, x):
        cls = type(x)
        fs = dataclasses.fields(cls)
        assert tuple(f.name for f in fs) == DECLARED[cls]
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == list(DECLARED[cls])
        for f, p in zip(fs, params):
            want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            assert p.default == want
        values = [getattr(x, f.name) for f in fs]
        for y in (cls(*values), cls(**dict(zip(DECLARED[cls], values)))):
            assert y == x and all(getattr(y, f.name) is w for f, w in zip(fs, values))

    @pytest.mark.parametrize("build, error", REJECTED)
    def test_post_init_rejects(self, build, error):
        with pytest.raises(error):
            build()

    def test_the_checked_classes(self):
        # a class that gains a __post_init__ must gain a case above
        checked = {c for c in _node_classes() if hasattr(c, "__post_init__")}
        assert checked == {sx.Const, sx.SymTermRef, sx.SymFormulaRef, tp.TemplTerm, tp.TemplForm}

    @pytest.mark.parametrize("x", TestProtocol.EXAMPLES, ids=lambda x: type(x).__name__)
    def test_replace_and_frozen(self, x):
        y = dataclasses.replace(x)
        assert y == x and y is not x and type(y) is type(x)
        # a fact slot and a name that is no field at all raise as a field does
        for name in (*(f.name for f in dataclasses.fields(x)), "_h", "_fv", "anything"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, getattr(x, name, None))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        if x.children:
            new = tuple(sx.Not(k) if isinstance(k, sx.Formula) else sx.Succ(k)
                        for k in x.children)
            kids = [f.name for f in dataclasses.fields(x)][-len(new):]
            assert dataclasses.replace(x, **dict(zip(kids, new))) == x.rebuild(*new)

    @pytest.mark.parametrize("x", TestProtocol.EXAMPLES, ids=lambda x: type(x).__name__)
    def test_hash_is_the_dataclass_hash(self, x):
        y = dataclasses.replace(x)
        assert y._h is None
        assert hash(y) == _dataclass_hash(x) and y._h == hash(y)
        assert hash(y) == hash(x)

    @pytest.mark.parametrize("x", TestProtocol.EXAMPLES, ids=lambda x: type(x).__name__)
    def test_pickle_round_trip(self, x):
        hash(x)
        y = pickle.loads(pickle.dumps(x))
        assert y == x and type(y) is type(x) and y._h is None
        assert hash(y) == hash(x) == _dataclass_hash(y) and y._h == hash(x)


def _ref_expand(f):
    if isinstance(f, sx.Eq) or isinstance(f, sx.SymFormulaRef):
        return f
    if isinstance(f, sx.Not):
        return sx.Not(_ref_expand(f.body))
    if isinstance(f, sx.Or):
        return sx.Or(_ref_expand(f.left), _ref_expand(f.right))
    if isinstance(f, sx.Ex):
        return sx.Ex(f.index, _ref_expand(f.body))
    if isinstance(f, sx.And):
        return sx.Not(sx.Or(sx.Not(_ref_expand(f.left)), sx.Not(_ref_expand(f.right))))
    if isinstance(f, sx.Imp):
        return sx.Or(sx.Not(_ref_expand(f.left)), _ref_expand(f.right))
    if isinstance(f, sx.Iff):
        return _ref_expand(sx.And(sx.Imp(f.left, f.right), sx.Imp(f.right, f.left)))
    if isinstance(f, sx.Xor):
        return _ref_expand(sx.And(sx.Or(f.left, f.right), sx.Not(sx.And(f.left, f.right))))
    if isinstance(f, sx.All):
        return sx.Not(sx.Ex(f.index, sx.Not(_ref_expand(f.body))))
    if isinstance(f, sx.Lt):
        return sx._lt_expansion(f.left, f.right, sx._fresh_above(f.left, f.right))
    if isinstance(f, sx.BEx):
        j = sx._fresh_above(f.bound, f.body, sx.Var(f.index))
        guard = sx._lt_expansion(sx.Var(f.index), f.bound, j)
        return sx.Ex(f.index, sx.Not(sx.Or(sx.Not(guard), sx.Not(_ref_expand(f.body)))))
    if isinstance(f, sx.BAll):
        return sx.Not(_ref_expand(sx.BEx(f.index, f.bound, sx.Not(f.body))))
    raise sx.SyntaxError_(f"expand_abbreviation: unknown node {f!r}")


def _ref_depth(x):
    if isinstance(x, sx.Term):
        raise sx.SyntaxError_("depth is a formula metric")
    if isinstance(x, (sx.Eq, sx.Lt)):
        return std(1)
    if isinstance(x, sx.Not):
        if isinstance(x.body, (sx.Eq, sx.Lt)):
            return std(1)
        d = _ref_depth(x.body)
        return Std(d.n + 1) if isinstance(d, Std) else Sym(d.base, d.coeff, d.offset + 1)
    if isinstance(x, (sx.Or, sx.And, sx.Imp, sx.Iff, sx.Xor)):
        return sx._elem_max1(_ref_depth(x.left), _ref_depth(x.right))
    if isinstance(x, (sx.Ex, sx.All)):
        return sx._bump(_ref_depth(x.body))
    if isinstance(x, (sx.BEx, sx.BAll)):
        return sx._elem_max1(_ref_depth(x.body), std(1))
    if isinstance(x, sx.SymFormulaRef):
        base = std(1) if x.family == "delta" else \
            _ref_depth(sx.Not(sx.Or(x.payload, sx.Not(x.payload))))
        return sx._offset(x.index, base)
    raise sx.SyntaxError_(f"depth: unknown node {x!r}")


def _ref_refold(x):
    if isinstance(x, sx.Sealed):
        return x.obj
    if x.extended:
        raise tp.TemplateError(f"non-primitive node {x!r}")
    return tp._fold_tower(x.rebuild(*map(_ref_refold, x.children)))


_CONNECTIVES = ("not", "or", "ex", "and", "imp", "iff", "xor", "all", "bex", "ball")


def _random_extended(rng, depth, abbreviations=True, boxes=True):
    """A formula over every connective, abbreviations included when asked,
    with family references and (when asked) parts sealed in template
    boxes; a box may hold abbreviations."""
    def term():
        t = random_term(rng, 1) if rng.random() < 0.85 else sx.numeral(sym("c"))
        return tp.TemplTerm(t) if boxes and rng.random() < 0.1 else t

    if boxes and rng.random() < 0.1:
        return tp.TemplForm(_random_extended(rng, depth - 1, True, False))
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.1:
            return sx.delta(sym("a", 1, rng.randrange(3)))
        if roll < 0.2:
            return sx.epsilon(sym("b"), _random_extended(rng, 1, abbreviations, False))
        if abbreviations and roll < 0.4:
            return sx.Lt(term(), term())
        return sx.Eq(term(), term())
    kind = rng.choice(_CONNECTIVES if abbreviations else _CONNECTIVES[:3])
    i = rng.randrange(3)
    if kind == "not":
        return sx.Not(_random_extended(rng, depth - 1, abbreviations, boxes))
    if kind in ("ex", "all"):
        body = _random_extended(rng, depth - 1, abbreviations, boxes)
        return sx.Ex(i, body) if kind == "ex" else sx.All(i, body)
    if kind in ("bex", "ball"):
        body = _random_extended(rng, depth - 1, abbreviations, boxes)
        return (sx.BEx if kind == "bex" else sx.BAll)(i, term(), body)
    cls = {"or": sx.Or, "and": sx.And, "imp": sx.Imp, "iff": sx.Iff, "xor": sx.Xor}[kind]
    return cls(_random_extended(rng, depth - 1, abbreviations, boxes),
               _random_extended(rng, depth - 1, abbreviations, boxes))


def _outcome(fn, x, message=True):
    """fn's result and its repr, or the error it raised (with its message
    when asked)."""
    try:
        y = fn(x)
    except (sx.SyntaxError_, tp.TemplateError) as err:
        return type(err), str(err) if message else None
    return y, repr(y)


class TestFoldedWalks:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_fold_steps_match_the_recursive_walks(self, seed):
        rng = random.Random(seed)
        x = _random_extended(rng, 4, abbreviations=seed % 3 != 0, boxes=seed % 2 == 0)
        values = {i: std(rng.randrange(5)) for i in range(3) if rng.random() < 0.6}
        for y in _nodes(x):
            assert _outcome(sx.depth, y) == _outcome(_ref_depth, y)
            assert _outcome(sx.expand_abbreviation, y) == _outcome(_ref_expand, y)
            # refold raises on the first abbreviation outside a box in
            # post-order, the recursive walk on the first in pre-order
            assert _outcome(tp.refold, y, False) == _outcome(_ref_refold, y, False)
            got = sx.multi_substitute(y, sx.VarAssignment.of(values))
            want = _ref_multi_substitute(y, values)
            assert got == want and repr(got) == repr(want)

    def test_the_inputs_reach_every_class_and_outcome(self):
        seen, ok = set(), {"depth": 0, "expand": 0, "refold": 0}
        for seed in range(150):
            rng = random.Random(seed)
            x = _random_extended(rng, 4, abbreviations=seed % 3 != 0, boxes=seed % 2 == 0)
            seen |= {type(y) for y in _nodes(x)}
            ok["depth"] += not isinstance(_outcome(sx.depth, x)[0], type)
            ok["expand"] += not isinstance(_outcome(sx.expand_abbreviation, x)[0], type)
            ok["refold"] += not isinstance(_outcome(tp.refold, x)[0], type)
        assert seen == _node_classes()
        assert all(n >= 20 for n in ok.values()), ok

    def test_deep_nests(self):
        # deeper than the recursion limit: a not nest and an or/ex
        # alternation; == on such trees recurses, so they compare as text
        nest = alternation = sx.Eq(sx.ZERO, sx.ZERO)
        for k in range(3000):
            nest = sx.Not(nest)
            alternation = sx.Or(alternation, sx.FALSUM) if k % 2 else sx.Ex(0, alternation)
        assert sx.depth(nest) == std(1 + 2999)
        assert sx.depth(alternation) == std(1 + 3000)
        for f in (nest, alternation):
            text = sexpr.print_obj(f)
            assert sexpr.print_obj(sx.expand_abbreviation(f)) == text
            assert sexpr.print_obj(tp.refold(f)) == text
        # refold folds the one half once and rebuilds the pair over it
        twins = sx.Or(nest, nest)
        assert sexpr.print_obj(tp.refold(twins)) == sexpr.print_obj(twins)
        inner = sx.Imp(sx.FALSUM, nest)
        assert sexpr.print_obj(sx.expand_abbreviation(sx.All(0, inner))) == \
            sexpr.print_obj(sx.Not(sx.Ex(0, sx.Not(sx.Or(sx.Not(sx.FALSUM), nest)))))
        boxed = sx.Not(tp.TemplForm(inner))
        for _ in range(3000):
            boxed = sx.Or(sx.FALSUM, sx.Ex(1, boxed))
        assert sx.is_primitive(nest) and sx.is_primitive(alternation)
        assert not sx.is_primitive(boxed) and not sx.is_primitive(sx.Or(alternation, inner))
        refolded = tp.refold(boxed)
        assert sum(1 for y in sx.subobjects(refolded) if type(y) is sx.Imp) == 1


# the per-family code that the rows of ``sx.FAMILIES`` replaced, kept as
# references: the four builders, one unfolding level, the refold of one
# level, the family closure and the reference branches of the depths


def _ref_numeral(a):
    if isinstance(a, Sym):
        return sx.SymTermRef("num", a)
    t = sx.ZERO
    for _ in range(a.n):
        t = sx.Succ(t)
    return t


def _ref_addtower_concrete(n):
    t = sx.ZERO
    for _ in range(n):
        t = sx.Add(t, t)
    return t


def _ref_addtower(a):
    if isinstance(a, Sym):
        return sx.SymTermRef("addtower", a)
    return _ref_addtower_concrete(a.n)


def _ref_or_tower(family, a, payload=None):
    if isinstance(a, int):
        a = std(a)
    if isinstance(a, Sym):
        return sx.SymFormulaRef(family, a, payload)
    f = sx.FALSUM if family == "delta" else sx.Not(sx.Or(payload, sx.Not(payload)))
    for _ in range(a.n):
        f = sx.Or(f, f)
    return f


_REF_BUILDERS = {
    "num": lambda a, p: _ref_numeral(a),
    "addtower": lambda a, p: _ref_addtower(a),
    "delta": lambda a, p: _ref_or_tower("delta", a),
    "eps": lambda a, p: _ref_or_tower("eps", a, p),
}

# the public builders, which tests and the README call
_PUBLIC_BUILDERS = {
    "num": lambda a, p: sx.numeral(a),
    "addtower": lambda a, p: sx.addtower(a),
    "delta": lambda a, p: sx.delta(a),
    "eps": sx.epsilon,
}


def _ref_unfold_ref(x):
    if isinstance(x, sx.SymTermRef):
        below = pred(x.index)
        if isinstance(below, Std):
            child = _ref_numeral(below) if x.family == "num" else _ref_addtower_concrete(below.n)
        else:
            child = sx.SymTermRef(x.family, below)
        if x.family == "num":
            return sx.Succ(child)
        return sx.Add(child, child)
    if isinstance(x, sx.SymFormulaRef):
        sub = _ref_or_tower(x.family, pred(x.index), x.payload)
        return sx.Or(sub, sub)
    return x


def _ref_fold_tower(x):
    if isinstance(x, sx.Or) and isinstance(x.left, sx.SymFormulaRef) and x.left == x.right:
        return sx.SymFormulaRef(x.left.family, succ(x.left.index), x.left.payload)
    if isinstance(x, sx.Succ) and isinstance(x.arg, sx.SymTermRef) and x.arg.family == "num":
        return sx.SymTermRef("num", succ(x.arg.index))
    if isinstance(x, sx.Add) and isinstance(x.left, sx.SymTermRef) \
            and x.left.family == "addtower" and x.left == x.right:
        return sx.SymTermRef("addtower", succ(x.left.index))
    return x


def _ref_in_family_closure(small, big):
    if isinstance(big, sx.SymFormulaRef):
        if big.family == "delta":
            return _ref_is_tower(small, sx.Or, (sx.FALSUM, sx.Eq(sx.ZERO, sx.ZERO), sx.ZERO))
        base = sx.Not(sx.Or(big.payload, sx.Not(big.payload)))
        return _ref_is_tower(small, sx.Or, (base,)) or any(small == o for o in sx.subobjects(base))
    if big.family == "num":
        return _ref_is_succ_tower(small)
    return _ref_is_tower(small, sx.Add, (sx.ZERO,))


def _ref_is_tower(x, cls, bases):
    while isinstance(x, cls) and x.left == x.right:
        x = x.left
    return x in bases


def _ref_is_succ_tower(t):
    while isinstance(t, sx.Succ):
        t = t.arg
    return isinstance(t, sx.Zero)


def _ref_skeleton_depth(x):
    """The family branches of skeleton_depth; a delta reference's is one
    short (the fix the property below names)."""
    if isinstance(x, sx.SymTermRef):
        return sx._offset(x.index, std(1))
    if x.family == "delta":
        return sx._offset(x.index, std(2))
    return sx._offset(x.index, sx.skeleton_depth(sx.Not(sx.Or(x.payload, sx.Not(x.payload)))))


def _delta_over_a_part(small, big):
    """The fixed closure verdict: the delta closure took an Or tower over
    0 = 0 or over 0, the parts of its base, and now takes only towers
    over 0 != 0 itself."""
    if big.family != "delta":
        return False
    x = small
    while isinstance(x, sx.Or) and x.left == x.right:
        x = x.left
    return x is not small and x in (sx.Eq(sx.ZERO, sx.ZERO), sx.ZERO)


_FAMILY_PAYLOADS = (
    sx.Eq(sx.ZERO, sx.ZERO), sx.FALSUM, sx.Eq(sx.const(sym("b")), v(1)),
    tp.TemplForm(sx.Eq(v(0), sx.ZERO)), sx.Or(tp.TemplForm(sx.FALSUM), sx.Eq(tp.TemplTerm(v(2)), v(2))),
)


def _random_payload(rng, family):
    return rng.choice(_FAMILY_PAYLOADS) if family == "eps" else None


def _random_index(rng):
    if rng.random() < 0.4:
        return std(rng.randrange(5))
    return Sym(rng.choice("ab"), rng.choice((Fraction(1), Fraction(2), Fraction(1, 2))),
               rng.randint(-3, 3))


def _random_ref(rng):
    family = rng.choice(sorted(sx.FAMILIES))
    a = Sym(rng.choice("ab"), rng.choice((Fraction(1), Fraction(2))), rng.randint(-3, 3))
    return _REF_BUILDERS[family](a, _random_payload(rng, family))


def _random_tower_part(rng):
    """A concrete tower of any family, at times a part of one, or a level
    whose halves differ, or an Or tower over a part of 0 != 0."""
    family = rng.choice(sorted(sx.FAMILIES))
    x = _REF_BUILDERS[family](std(rng.randrange(4)), _random_payload(rng, family))
    r = rng.random()
    if r < 0.15:
        x = rng.choice(list(sx.subobjects(x)))
    elif r < 0.3:
        low = _REF_BUILDERS[family](std(rng.randrange(2)), _random_payload(rng, family))
        x = x.rebuild(*[rng.choice((k, low)) for k in x.children]) if x.children else x
    elif r < 0.4:
        x = rng.choice((sx.Eq(sx.ZERO, sx.ZERO), sx.ZERO))
        for _ in range(rng.randrange(4)):
            x = sx.Or(x, x)
    elif r < 0.45:
        x = _random_ref(rng)
    return x


def _random_level(rng):
    """A node over family references, at times one reference in every
    child (shared or equal), at times mixed ones or other children."""
    head = rng.choice((sx.Succ, sx.Add, sx.Mul, sx.Or, sx.Not, sx.Eq))
    r = _random_ref(rng)
    n = len(dataclasses.fields(head))
    if rng.random() < 0.6:
        kids = [r] + [rng.choice((r, dataclasses.replace(r))) for _ in range(n - 1)]
    else:
        kids = [rng.choice((r, _random_ref(rng), _random_tower_part(rng))) for _ in range(n)]
    return head(*kids)


def _outcomes(fn, x):
    try:
        y = fn(x)
    except sx.SyntaxError_ as err:
        return type(err), str(err)
    return y, repr(y), type(y)


class TestFamilies:
    """Every family-specific walk reads the family's row; the per-family
    code it replaced is the reference."""

    def test_rows_give_the_public_builders(self):
        a = sym("a")
        for family, row in sx.FAMILIES.items():
            p = _FAMILY_PAYLOADS[-1] if row.payload else None
            assert sx.tower(family, std(0), p) == row.base(p)
            assert type(sx.tower(family, a, p)) is row.ref
            for h in (std(0), std(3), a, Sym("a", 2, -1)):
                want = _REF_BUILDERS[family](h, p)
                assert repr(sx.tower(family, h, p)) == repr(want)
                assert repr(_PUBLIC_BUILDERS[family](h, p)) == repr(want)

    def test_payloads_are_checked_at_every_index(self):
        # at a standard height the payload was not checked: an eps tower
        # without one was a malformed Or tower, and a delta tower dropped one
        for family, row in sx.FAMILIES.items():
            wrong = None if row.payload else _FAMILY_PAYLOADS[0]
            for h in (std(0), std(2), 3, sym("a")):
                with pytest.raises(sx.SyntaxError_, match="eps references carry"):
                    sx.tower(family, h, wrong)
        with pytest.raises(sx.SyntaxError_):
            sx.epsilon(2, None)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_family_walks_agree_with_the_references(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            family = rng.choice(sorted(sx.FAMILIES))
            h, p = _random_index(rng), _random_payload(rng, family)
            got, want = sx.tower(family, h, p), _REF_BUILDERS[family](h, p)
            assert type(got) is type(want) and repr(got) == repr(want)
            ref, small = _random_ref(rng), _random_tower_part(rng)
            for x in (ref, small):
                assert _outcomes(sx.unfold_ref, x) == _outcomes(_ref_unfold_ref, x)
            want = _ref_skeleton_depth(ref)
            if ref.family == "delta":  # fixed: one short
                want = succ(want)
            assert sx.skeleton_depth(ref) == want
            if isinstance(ref, sx.Formula):  # a boxed payload has no depth
                assert _outcomes(sx.depth, ref) == _outcomes(_ref_depth, ref)
            verdict = _ref_in_family_closure(small, ref)
            if _delta_over_a_part(small, ref):  # fixed: never inside delta
                verdict = False
            assert tp._in_family_closure(small, ref) is verdict
            x = _random_level(rng)
            assert _outcomes(tp._fold_tower, x) == _outcomes(_ref_fold_tower, x)

    def test_the_draws_reach_every_family_and_verdict(self):
        rng = random.Random(4)
        closure = {(f, v): 0 for f in sx.FAMILIES for v in (True, False)}
        folds = {(f, v): 0 for f in sx.FAMILIES for v in (True, False)}
        fixed = 0
        for _ in range(3000):
            ref, small = _random_ref(rng), _random_tower_part(rng)
            closure[ref.family, tp._in_family_closure(small, ref)] += 1
            fixed += _delta_over_a_part(small, ref)
            x = _random_level(rng)
            kids = [k for k in x.children if isinstance(k, sx.FamilyRef)]
            for family in {k.family for k in kids}:
                folds[family, tp._fold_tower(x) != x] += 1
        assert all(n >= 20 for n in closure.values()), closure
        assert all(n >= 20 for n in folds.values()), folds
        assert fixed >= 20

    def test_references_agree_with_their_instances(self):
        # at a := n, a reference at a + k has its instance's depths, is
        # instantiated to it, refolds from its unfolding and reads back
        # from its printed form
        p = sx.Eq(sx.ZERO, sx.Succ(sx.ZERO))
        for family, row in sx.FAMILIES.items():
            payload = p if row.payload else None
            for k in range(4):
                ref = sx.tower(family, Sym("a", 1, k), payload)
                assert tp.refold(sx.unfold_ref(ref)) == ref
                text = sexpr.print_obj(ref)
                assert sexpr.parse_obj(sexpr.read_one(text)) == ref
                for n in range(7):
                    concrete = sx.tower(family, std(n + k), payload)
                    assert subst_base(sx.skeleton_depth(ref), "a", Std(n)) == \
                        sx.skeleton_depth(concrete), (family, k, n)
                    if isinstance(ref, sx.Formula):
                        assert subst_base(sx.depth(ref), "a", Std(n)) == sx.depth(concrete)
                    assert subst_elem_in_obj(ref, "a", Std(n), {}) == concrete


# ---------------------------------------------------------------------------
# the sibling rule: fold and == walk a child that is its sibling once


def _ref_fold(x, step):
    """The fold before the sibling rule: every child is folded, a child
    that is the same object as its sibling too."""
    stack: list = [x]
    results: list = []
    while stack:
        q = stack.pop()
        if type(q) is tuple:
            cut = len(results) - q[1]
            results[cut:] = [step(q[0], results[cut:])]
        else:
            kids = q.children
            stack.append((q, len(kids)))
            stack.extend(reversed(kids))
    return results[0]


def _ref_eq(a, b) -> bool:
    """The dataclass equality spelled out: the same class, then each field
    in order; nodes are compared by this walk, never by ==."""
    if not isinstance(a, sx.Node) or not isinstance(b, sx.Node):
        return not isinstance(a, sx.Node) and not isinstance(b, sx.Node) and a == b
    return type(a) is type(b) and all(_ref_eq(getattr(a, f.name), getattr(b, f.name))
                                      for f in dataclasses.fields(a))


def _with_towers(rng, x):
    """x with towers mixed in: some parts doubled into a level over one
    shared child (Add(y, y), Or(y, y)), some replaced by a short tower."""
    y = x.rebuild(*(_with_towers(rng, k) for k in x.children))
    roll = rng.random()
    if roll < 0.15:
        return sx.Add(y, y) if isinstance(y, sx.Term) else sx.Or(y, y)
    if roll < 0.2:
        height = std(rng.randrange(5))
        return sx.addtower(height) if isinstance(y, sx.Term) else sx.delta(height)
    return y


def _sibling_input(seed):
    """A templated formula or a bounded sentence (abbreviations in it),
    with towers mixed in, and the generator that drew it."""
    rng = random.Random(seed)
    x = random_templated(rng, 4) if seed % 2 else random_bounded_sentence(rng, 3)
    return _with_towers(rng, x), rng


def _rebuild_step(y, kids):
    return y.rebuild(*kids)


def _count_step(y, kids):
    return 1 + sum(kids)


class TestSiblingRule:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_fold_agrees_with_the_reference_fold(self, seed):
        x, _ = _sibling_input(seed)
        for step in (_rebuild_step, _count_step, sx._expand_step, sx._depth_step):
            assert _outcome(lambda y: sx.fold(y, step), x) == \
                _outcome(lambda y: _ref_fold(y, step), x)

    def test_the_inputs_share_and_reach_both_outcomes(self):
        shared = expanded = failed = 0
        for seed in range(100):
            x, _ = _sibling_input(seed)
            shared += any(len(y.children) == 2 and y.children[0] is y.children[1]
                          for y in _distinct_nodes(x))
            got = _outcome(sx.expand_abbreviation, x)[0]
            expanded += not isinstance(got, type)
            failed += isinstance(got, type)
        assert shared >= 50 and expanded >= 20 and failed >= 5, (shared, expanded, failed)

    def test_a_tower_is_stepped_once_per_level(self):
        # the assertions name counts only: a failing one would print any
        # tower it names, 2^n nodes
        def steps(x) -> int:
            calls = [0]

            def step(y, kids):
                calls[0] += 1

            sx.fold(x, step)
            return calls[0]

        for n in (10, 1000):
            delta_steps, addtower_steps = steps(sx.delta(n)), steps(sx.addtower(std(n)))
            assert delta_steps == n + 3  # the levels, then not, = and the one 0
            assert addtower_steps == n + 1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_eq_agrees_with_the_field_walk(self, seed):
        x, rng = _sibling_input(seed)
        pairs = [(x, x), (x, _reparse(x)), (x, _fresh_copy(x, {})), (x, reatom(rng, x))]
        pairs += [(y, y.rebuild(*reversed(y.children))) for y in _distinct_nodes(x)
                  if len(y.children) == 2 and not y.scope]
        for a, b in pairs:
            want = _ref_eq(a, b)
            assert (a == b) is want and (a != b) is not want and (b == a) is want

    def test_eq_pins(self):
        a, b = sx.Eq(sx.ZERO, sx.ZERO), sx.FALSUM
        assert sx.ZERO != 0 and not sx.ZERO == 0 and sx.ZERO.__eq__(0) is NotImplemented
        assert sx.Or(a, b) != sx.And(a, b) and sx.Or(a, b) == sx.Or(a, b)

    def test_deep_nests_built_apart_compare(self):
        # the dataclass __eq__ took a frame for its field tuples on every
        # level and raised RecursionError at 332 levels
        assert_finishes("""if True:
            import satkit.syntax as sx
            def nest(atom):
                for _ in range(490):
                    atom = sx.Not(atom)
                return atom
            a, b = nest(sx.Eq(sx.ZERO, sx.ZERO)), nest(sx.Eq(sx.ZERO, sx.ZERO))
            assert a is not b and a == b and not a != b
            assert a != nest(sx.Eq(sx.ZERO, sx.Succ(sx.ZERO)))
            print("ok")
        """)

    def test_towers_of_height_40_finish(self):
        # without the sibling rule each of these walks 2^40 nodes
        assert_finishes("""if True:
            import contextlib, io
            import satkit.syntax as sx
            import satkit.template as tp
            from satkit.cli import main
            from satkit.elements import Sym, std, sym
            d = sx.delta(40)
            assert d == sx.tower("delta", 40) != sx.delta(39)  # built apart
            assert sx.expand_abbreviation(d) == d and sx.depth(d) == std(41)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["eval-tr", "--class", "d0", "--formula", "(delta 40)"])
            assert code == 0 and out.getvalue() == "False\\n", (code, out.getvalue())
            h = sym("h")
            root = sx.SymTermRef("addtower", h)
            x = tp.apply_to_object(tp.ApproxChain(tuple(
                sx.SymTermRef("addtower", Sym("h", h.coeff, -j)) for j in range(40))), root)
            assert tp.apprx_member(x, lambda base: base == root)
            assert tp.is_approximation(x, root)
            print("ok")
        """)
