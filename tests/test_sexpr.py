"""The expression reader's faults: each malformed expression gives one
exact ParseError message, in-process and through `satkit encode` (exit 2)."""

import pytest

import satkit.sexpr as sexpr
import satkit.syntax as sx
from satkit.cli import main
from satkit.elements import std
from satkit.propcalc import CertLine, PropCertificate, imp
from satkit.sexpr import ParseError

# (expression, the ParseError text it gives); parts are read left to
# right, and a head with too many arguments is refused before any of them
MALFORMED = [
    ("()", "bad expression []"),
    ("((not 0))", "bad expression [['not', '0']]"),
    ("((= 0 0))", "bad expression [['=', '0', '0']]"),
    ("(foo 0)", "unknown head 'foo'"),
    ("foo", "unknown atom 'foo'"),
    ("(not (= 0 0) (= 0 0))", "(not ...) takes 1 arguments"),
    ("(not (= 0 0) junk)", "(not ...) takes 1 arguments"),
    ("(not (foo) (bar))", "(not ...) takes 1 arguments"),
    ("(+ 0 0 0)", "(+ ...) takes 2 arguments"),
    ("(not)", "(not ...) takes 1 arguments"),
    ("(or (= 0 0))", "(or ...) takes 2 arguments"),
    ("(ex)", "(ex ...) takes 2 arguments"),
    ("(ex 0)", "(ex ...) takes 2 arguments"),
    ("(= 0 vx)", "unknown atom 'vx'"),
    ("(= v 0)", "unknown atom 'v'"),
    ("(= c c)", "unknown atom 'c'"),
    ("(= 0 c-3)", "unparseable element '-3'"),
    ("(delta x)", "unparseable element 'x'"),
    ("(num (= 0 0))", "expected an element, found ['=', '0', '0']"),
    ("(eps 2)", "(eps ...) takes 2 arguments"),
    ("(eps 2 (= 0 0) 0)", "(eps ...) takes 2 arguments"),
    ("(tt)", "(tt ...) takes 1 arguments"),
    ("(or (foo) (= 0 vx))", "unknown head 'foo'"),
    ("(or (= 0 vx) (foo))", "unknown atom 'vx'"),
    ("(not (not (or (= 0 0) (not (= v1 c)))))", "unknown atom 'c'"),
]

# parts of the wrong sort, and binder indices that are not digit runs:
# each is found where it is built, left to right
ILL_SORTED = [
    ("(not 0)", "(not ...) takes a formula as argument 1, found a term"),
    ("(sc (= 0 0))", "(sc ...) takes a term as argument 1, found a formula"),
    ("(= (= 0 0) 0)", "(= ...) takes a term as argument 1, found a formula"),
    ("(= 0 (not (= 0 0)))", "(= ...) takes a term as argument 2, found a formula"),
    ("(or 0 0)", "(or ...) takes a formula as argument 1, found a term"),
    ("(ex 0 0)", "(ex ...) takes a formula as argument 2, found a term"),
    ("(bex 0 (= 0 0) (= 0 0))", "(bex ...) takes a term as argument 2, found a formula"),
    ("(tt (= 0 0))", "(tt ...) takes a term as argument 1, found a formula"),
    ("(tf 0)", "(tf ...) takes a formula as argument 1, found a term"),
    ("(tt (tt 0))", "boxes hold plain terms"),
    ("(eps 2 0)", "(eps ...) takes a formula as argument 2, found a term"),
    ("(or (not 0) (foo))", "(not ...) takes a formula as argument 1, found a term"),
    ("(or (foo) (not 0))", "unknown head 'foo'"),
    ("(ex +1 (= 0 0))", "expected a binder index, found '+1'"),
    ("(ex 1_0 (= 0 0))", "expected a binder index, found '1_0'"),
    ("(ex -1 (= 0 0))", "expected a binder index, found '-1'"),
    ("(ex x (= 0 0))", "expected a binder index, found 'x'"),
    ("(ex (= 0 0) (= 0 0))", "expected a binder index, found ['=', '0', '0']"),
    ("(all \u00b2 (= 0 0))", "expected a binder index, found '\u00b2'"),
    ("(= v\u00b2 0)", "unknown atom 'v\u00b2'"),
]

# elements that int() or Fraction() refused with their own errors (exit 1)
BAD_ELEMENTS = [
    ("(= 0 c\u00b2)", "unparseable element '\u00b2'"),
    ("(= 0 cw[a]*1/0)", "zero denominator in 'w[a]*1/0'"),
    ("(num w[a]*3/00)", "zero denominator in 'w[a]*3/00'"),
]


@pytest.mark.parametrize("text, message", MALFORMED + ILL_SORTED + BAD_ELEMENTS)
def test_parse_error_text(text, message):
    with pytest.raises(ParseError) as e:
        sexpr.parse_obj(sexpr.read_one(text))
    assert str(e.value) == message


@pytest.mark.parametrize("text, message", MALFORMED + ILL_SORTED + BAD_ELEMENTS)
def test_encode_exits_2_with_the_parse_error(text, message, capsys):
    code = main(["encode", text])
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: {message}\n"


def test_a_proof_file_with_an_ill_sorted_conclusion_exits_2(tmp_path, capsys):
    f = tmp_path / "proof.sexp"
    f.write_text("(rule axiom3 (concl (not 0)))")
    code = main(["check", "--in", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: (not ...) takes a formula as argument 1, found a term\n"


def test_well_sorted_expressions_still_parse():
    for text in ["(ex 0 (= v0 0))", "(ex 007 (= v7 0))", "(bex 0 (sc 0) (= v0 0))",
                 "(tt (sc v1))", "(tf (not (= 0 0)))", "(eps 2 (= 0 0))", "(num w[a])"]:
        sexpr.parse_obj(sexpr.read_one(text))


def test_first_order_lines_print_and_parse():
    # a quantifier-instantiation line: (= c2 c2) -> (ex 0 (= v0 c2))
    two = sx.const(std(2))
    inst, exists = sx.Eq(two, two), sx.Ex(0, sx.Eq(sx.Var(0), two))
    cert = PropCertificate((CertLine(inst, ("hyp",)),
                            CertLine(imp(inst, exists), ("ax-fo",)),
                            CertLine(exists, ("mp", 1, 0))))
    text = sexpr.print_certificate(cert)
    assert "(line (or (not (= c2 c2)) (ex 0 (= v0 c2))) ax-fo)" in text
    back = sexpr.parse_certificate(sexpr.read_one(text))
    assert back == cert and sexpr.print_certificate(back) == text
    # the bare word only: a list form is no justification
    with pytest.raises(ParseError, match="unknown justification"):
        sexpr.parse_certificate(sexpr.read_one("(cert (line (= 0 0) (ax-fo)))"))


# the integer fields of proof and certificate files, each with one slot
# for a natural and the name its ParseError gives it; they are read as
# digit runs, like a binder index (int() took "+0", "0_0", "-1" and "²":
# "(mp +0 0_0)" read as (mp 0 0), and "(block +1 1_0)" as (1, 10))
SKOLEM = ("(rule skolem (concl (= 0 0)) (skolem (q (A {q}) (E 1)) "
          "(table (row (in {i}) (out {o}))) (phi (= 0 0)) (samples (tuple {s}))))")
INTEGER_FIELDS = [
    ("(cert (line (= 0 0) hyp) (line (= 0 0) (mp {} 0)))", "an mp line number"),
    ("(cert (line (= 0 0) hyp) (line (= 0 0) (mp 0 {})))", "an mp line number"),
    ("(rule i-ex-inf (concl (= 0 0)) (block 0 {}))", "a block index"),
    (SKOLEM.format(q="{}", i=0, o=1, s=0), "a Skolem q index"),
    (SKOLEM.format(q=0, i="{}", o=1, s=0), "a Skolem row input"),
    (SKOLEM.format(q=0, i=0, o="{}", s=0), "a Skolem row output"),
    (SKOLEM.format(q=0, i=0, o=1, s="{}"), "a Skolem sample"),
]
NOT_NATURALS = ["+0", "0_0", "-1", "²"]


def parse_file(text: str):
    node = sexpr.read_one(text)
    return sexpr.parse_certificate(node) if node[0] == "cert" else sexpr.parse_proof_node(node)


@pytest.mark.parametrize("template, field", INTEGER_FIELDS)
@pytest.mark.parametrize("bad", NOT_NATURALS)
def test_integer_fields_are_digit_runs(template, field, bad):
    with pytest.raises(ParseError) as e:
        parse_file(template.format(bad))
    assert str(e.value) == f"expected {field}, found {bad!r}"
