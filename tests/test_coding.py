import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.syntax as sx
from satkit.coding import (
    MAX_CODE_SYMBOLS, GodelCode, InvalidCode, NotWellFormed, SeqCode, code_length,
    encoding_manifest, godel_decode, godel_encode, is_valid_code, proj, seq_concat, seq_decode,
    seq_encode, seq_len, set_difference, set_intersection, set_member,
    set_members, set_of, set_singleton, set_union,
)
import satkit.sexpr as sexpr
from satkit.elements import std
from generators import random_formula


class TestSequences:
    def test_empty_sequence(self):
        e = seq_encode([])
        assert seq_len(e) == 0
        assert seq_decode(e) == []

    def test_projection(self):
        assert proj(seq_encode([5, 7]), 1) == 7

    def test_projection_out_of_range_is_zero(self):
        code = seq_encode([5, 7])
        assert proj(code, 2) == 0
        assert proj(code, 99) == 0

    def test_concat_matches_decoding_both_sides(self):
        # decode-side oracle: concatenation of the decoded lists
        a, b = seq_encode([1]), seq_encode([2, 3])
        got = seq_concat(a, b)
        assert seq_decode(got) == seq_decode(a) + seq_decode(b)
        assert got == seq_encode([1, 2, 3])

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 64), max_size=32))
    @settings(max_examples=300)
    def test_round_trip(self, items):
        assert seq_decode(seq_encode(items)) == items

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 32), max_size=12))
    def test_projection_never_exceeds_code(self, items):
        code = seq_encode(items)
        for i in range(len(items) + 2):
            assert proj(code, i) <= code.code

    def test_round_trip_bulk(self):
        rng = random.Random(7)
        for _ in range(10_000):
            items = [rng.randrange(2 ** 64) for _ in range(rng.randrange(33))]
            assert seq_decode(seq_encode(items)) == items

    def test_invalid_codes_rejected(self):
        # digit 0 inside, or a non-terminated tail
        with pytest.raises(InvalidCode):
            seq_decode(SeqCode(4))  # digits [0, 1]
        with pytest.raises(InvalidCode):
            seq_decode(SeqCode(1))  # lone non-terminator digit


class TestSets:
    def test_singleton_membership(self):
        assert set_member(3, set_singleton(3))
        assert not set_member(2, set_singleton(3))

    def test_union_members(self):
        u = set_union(set_singleton(1), set_singleton(2))
        assert set_members(u) == {1, 2}

    def test_member_implies_less(self):
        rng = random.Random(1)
        for _ in range(200):
            s = set_of({rng.randrange(200) for _ in range(rng.randrange(8))})
            for w in set_members(s):
                assert w < s.code

    def test_extensionality(self):
        assert set_of({3, 5, 9}) == set_of({9, 5, 3})

    @given(st.sets(st.integers(min_value=0, max_value=64)),
           st.sets(st.integers(min_value=0, max_value=64)))
    @settings(max_examples=250)
    def test_ops_match_native_sets(self, xs, ys):
        x, y = set_of(xs), set_of(ys)
        assert set_members(set_union(x, y)) == xs | ys
        assert set_members(set_intersection(x, y)) == xs & ys
        assert set_members(set_difference(x, y)) == xs - ys
        for w in range(70):
            assert set_member(w, set_difference(x, y)) == (w in xs and w not in ys)


class TestGodelCodec:
    def test_example_round_trip(self):
        f = sx.Eq(sx.Succ(sx.ZERO), sx.Var(0))
        assert godel_decode(godel_encode(f)) == f

    def test_negation_dominates_body(self):
        zero = sx.Eq(sx.ZERO, sx.ZERO)
        assert godel_encode(zero).code <= godel_encode(sx.Not(zero)).code

    def test_subformula_monotonicity_random(self):
        rng = random.Random(11)
        for _ in range(2000):
            f = random_formula(rng, rng.randrange(1, 6), max_const=30)
            code = godel_encode(f).code
            for sub in sx.subobjects(f):
                assert godel_encode(sub).code <= code

    def test_decode_rejects_non_images(self):
        rng = random.Random(13)
        rejected = 0
        total = 4000
        for _ in range(total):
            n = rng.randrange(1, 2 ** 32)
            if not is_valid_code(n):
                rejected += 1
        assert rejected / total >= 0.99

    def test_decode_never_accepts_junk_silently(self):
        # every accepted code re-encodes to itself (injectivity on the image)
        rng = random.Random(17)
        for _ in range(20_000):
            n = rng.randrange(1, 2 ** 24)
            try:
                obj = godel_decode(GodelCode(n))
            except (NotWellFormed, InvalidCode):
                continue
            assert godel_encode(obj).code == n

    @pytest.mark.parametrize("symbols, message", [
        ([6], "truncated code"),
        ([6, 1], "symbol 1 cannot start a formula"),
        ([5, 6], "symbol 6 cannot start a term"),
        ([1, 1], "trailing symbols after a complete object"),
        ([10, 1], "symbol 1 inside an index run"),
        ([10, 12, 11], "non-canonical index digits"),
        ([8, 13, 11, 5, 1], "truncated code"),
        # 0 has a symbol of its own, so a constant with index 0 would
        # decode to a term whose code is another
        ([9, 11], "constant index 0: the constant 0 has its own symbol"),
        ([5, 1, 9, 11], "constant index 0: the constant 0 has its own symbol"),
    ])
    def test_rejection_messages(self, symbols, message):
        code = sum(s << (4 * k) for k, s in enumerate(symbols))
        with pytest.raises(NotWellFormed, match=f"^{message}$"):
            godel_decode(GodelCode(code))

    def test_deep_nest_decodes(self):
        f = sx.Eq(sx.Succ(sx.ZERO), sx.Var(3))
        for k in range(5000):
            f = sx.Ex(k % 4, f) if k % 3 else sx.Not(f)
        g = godel_decode(godel_encode(f))
        for _ in range(5000):
            assert type(g) is type(f) and getattr(g, "index", None) == getattr(f, "index", None)
            f, g = f.children[-1], g.children[-1]
        assert g == f

    def test_negative_indices_are_not_encodable(self):
        # a negative index once sent the index-digit loop round for ever,
        # so this runs in a child process that is stopped after half a minute
        script = """if True:
            import satkit.syntax as sx
            from satkit.coding import NotEncodable, code_key, godel_encode
            from satkit.kernel import vee
            body = sx.Eq(sx.ZERO, sx.ZERO)
            for x in (sx.Var(-1), sx.Ex(-1, body), sx.Ex(0, sx.Eq(sx.Var(-5), sx.ZERO))):
                try:
                    godel_encode(x)
                    raise SystemExit("encoded " + repr(x))
                except NotEncodable as e:
                    assert "negative" in str(e), e
                assert code_key(x)[0] == 1
            assert vee([sx.Ex(-1, body), body]) == sx.Or(body, sx.Ex(-1, body))
            print("ok")
        """
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=30, env=env)
        assert out.returncode == 0 and out.stdout == "ok\n", out.stderr
        cli = subprocess.run([sys.executable, "-m", "satkit", "encode", "(ex -1 (= 0 0))"],
                             capture_output=True, text=True, timeout=30, env=env)
        assert cli.returncode == 2
        assert cli.stderr == "error: expected a binder index, found '-1'\n"

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_code_length_counts_the_symbols(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, rng.randrange(1, 5), max_const=rng.choice((30, 10 ** 6)),
                           max_var=rng.choice((3, 5000)))
        for _ in range(rng.randrange(3)):  # a tower level over one shared child
            f = sx.Or(f, f) if rng.random() < 0.5 else sx.Not(sx.Or(f, f))
        assert code_length(f) == len(format(godel_encode(f).code, "x"))

    def test_code_length_of_a_tower_is_its_count(self):
        # the code of delta(n) has 2^n copies of the base's 4 symbols and
        # 2^n - 1 or symbols; the count takes a step per level. The
        # assertions name lengths only: a failing one would print the tower
        delta_length, numeral_length = code_length(sx.delta(30)), code_length(sx.numeral(std(99_999)))
        assert delta_length == 5 * 2 ** 30 - 1
        assert numeral_length == MAX_CODE_SYMBOLS

    def test_the_reader_refuses_a_tower_past_the_limit(self):
        for text in ("(num 100001)", "(addtower 1000000000)", "(delta 100001)",
                     "(eps 100001 (= 0 0))"):
            with pytest.raises(sexpr.ParseError, match="past the limit of 100000 levels"):
                sexpr.parse_obj(sexpr.read_one(text))
        length = code_length(sexpr.parse_obj(sexpr.read_one("(addtower 100000)")))
        assert length == 2 ** 100_001 - 1

    def test_manifest_is_stable(self):
        m = encoding_manifest()
        assert m["base"] == 16
        assert m["version"] == 1
