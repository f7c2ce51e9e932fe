"""Arbitrary text through the reader, the expression parser and the Gödel
codec, and arbitrary naturals through the decoder.

Text either fails with a ParseError, or gives an object whose code
matches a reference encoder written from ``encoding.json`` and decodes
back to it. A natural either fails with a CodingError or decodes to an
object that re-encodes to it. Depths stay small, since ``==`` on nodes
still recurses.
"""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import satkit.sexpr as sexpr
import satkit.syntax as sx
from satkit.coding import CodingError, GodelCode, NotEncodable, godel_decode, godel_encode
from satkit.elements import Std
from satkit.sexpr import ParseError

MANIFEST = json.loads((Path(__file__).parent.parent / "encoding.json").read_text())
SYMBOL = {cls: MANIFEST["symbols"][name] for cls, name in (
    (sx.Zero, "0"), (sx.Succ, "Sc"), (sx.Add, "+"), (sx.Mul, "*"), (sx.Eq, "="),
    (sx.Not, "not"), (sx.Or, "or"), (sx.Ex, "exists"), (sx.Const, "const"),
    (sx.Var, "var"))}


def reference_symbols(x) -> list[int] | None:
    """x's symbols in pre-order, one at a time; None when x has no code."""
    sym = SYMBOL.get(type(x))
    if sym is None or (isinstance(x, sx.Const) and not isinstance(x.elem, Std)):
        return None
    out = [sym]
    if isinstance(x, (sx.Const, sx.Var, sx.Ex)):
        n = x.elem.n if isinstance(x, sx.Const) else x.index
        while n:
            n, d = divmod(n, MANIFEST["index_digit_base"])
            out.append(MANIFEST["index_digit_codes"][d])
        out.append(MANIFEST["index_terminator"])
    for kid in x.children:
        syms = reference_symbols(kid)
        if syms is None:
            return None
        out += syms
    return out


def reference_code(symbols: list[int]) -> int:
    """Four bits per symbol, the first symbol least significant."""
    return int("".join(format(s, "04b") for s in reversed(symbols)) or "0", 2)


# whole tokens, so heads and atoms meet often; numbers stay small, as a
# family's element unfolds that many levels
TOKENS = ["(", "(", "(", ")", ")", ")", "0", "1", "2", "00", "-1", "+1", "x",
          "v0", "v1", "v12", "v", "vx", "c1", "c2", "c7", "c-3", "cw[a]", "w[a]",
          "w[a]*1/0", "c²", "²", "not", "or", "ex", "=", "sc", "+", "*",
          "and", "imp", "iff", "xor", "all", "lt", "bex", "ball", "tt", "tf", "num",
          "addtower", "delta", "eps", "chain", "foo"]
texts = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=24).map(" ".join),
    st.text(alphabet="() 0123v9cx=+*-_notrw[a]", max_size=24))


@given(texts)
@settings(max_examples=400, deadline=None)
def test_text_parses_and_codes_or_fails_with_a_parse_error(text):
    try:
        obj = sexpr.parse_obj(sexpr.read_one(text))
    except ParseError:
        return
    symbols = reference_symbols(obj)
    try:
        code = godel_encode(obj)
    except NotEncodable:
        assert symbols is None
        return
    assert code.code == reference_code(symbols)
    assert godel_decode(code) == obj


@given(st.one_of(
    st.integers(min_value=0, max_value=2 ** 96),
    # strings of nonzero symbols, which reach past the first one more often
    st.lists(st.integers(min_value=1, max_value=15), max_size=24).map(reference_code)))
@settings(max_examples=400, deadline=None)
def test_naturals_decode_or_fail_with_a_coding_error(n):
    try:
        obj = godel_decode(GodelCode(n))
    except CodingError:
        return
    assert godel_encode(obj).code == n
    assert reference_code(reference_symbols(obj)) == n
