"""The expression reader's faults: each malformed expression gives one
exact ParseError message, in-process and through `satkit encode` (exit 2).
And the proof reader and printer: each distinct sentence of a file is
read once and printed once, with the same text and errors."""

import random

import pytest

import satkit.sexpr as sexpr
import satkit.syntax as sx
from satkit.cli import main
from satkit.corpus import base_corpus, mprop_entries
from satkit.eldiag import prove_eldiag
from satkit.elements import std
from satkit.propcalc import CertLine, PropCertificate, imp
from satkit.sexpr import ParseError
from satkit.translate import translate_proof

from generators import random_decidable_sentence

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


# ---------------------------------------------------------------------------
# each distinct sentence of a proof file is read once and printed once


@pytest.fixture(scope="module")
def printed_proofs():
    """Printed proofs: the base and mprop corpora, the translations of
    those without certificates, and seeded eldiag proofs."""
    entries = base_corpus() + mprop_entries()
    proofs = [e.proof for e in entries]
    proofs += [translate_proof(e.proof, e.policy).proof
               for e in entries if not e.policy.allow_prop]
    rng = random.Random(2020)
    proofs += [prove_eldiag(random_decidable_sentence(rng, want_true=k % 2 == 0))
               for k in range(40)]
    return [sexpr.print_proof(p) for p in proofs]


def _sentences(p):
    """Every conclusion sentence and certificate-line formula of p, with
    repeats."""
    for q in sx.subobjects(p):
        yield from q.conclusion.sentences
        if "prop" in q.info:
            yield from (line.formula for line in q.info["prop"]["cert"].lines)


def test_equal_sentences_of_a_file_are_one_object(printed_proofs):
    occurrences = distinct = 0
    for text in printed_proofs:
        back = sexpr.parse_proof(text)
        assert sexpr.print_proof(back) == text
        ids_by_value = {}
        for f in _sentences(back):
            ids_by_value.setdefault(f, set()).add(id(f))
            occurrences += 1
        assert all(len(ids) == 1 for ids in ids_by_value.values()), text
        distinct += len(ids_by_value)
    assert occurrences > 2 * distinct  # the files do repeat their sentences


def _concl_lines(text: str) -> list[str]:
    return [line.strip()[len("(concl "):-1] for line in text.splitlines()
            if line.strip().startswith("(concl ")]


def test_print_proof_prints_each_sentence_once(printed_proofs, monkeypatch):
    """Each node's sentences come out as the two-pass printer gave them
    (sorted by printed text, then printed again), and each sentence
    object is printed once per call."""
    proofs = [sexpr.parse_proof(t) for t in printed_proofs]
    proofs += [translate_proof(e.proof, e.policy).proof
               for e in base_corpus() if not e.policy.allow_prop]
    print_obj = sexpr.print_obj
    printed = []

    def counted(x):
        printed.append(id(x))
        return print_obj(x)

    monkeypatch.setattr(sexpr, "print_obj", counted)
    shared = 0
    for p in proofs:
        nodes = list(sx.subobjects(p))
        text = sexpr.print_proof(p)
        assert _concl_lines(text) == [
            " ".join(print_obj(f) for f in sorted(q.conclusion.sentences, key=print_obj))
            for q in nodes]
        if "(cert " not in text and "(skolem " not in text:
            objects = {id(f) for q in nodes for f in q.conclusion.sentences}
            assert sorted(printed) == sorted(objects)
            shared += sum(len(q.conclusion.sentences) for q in nodes) > len(objects)
        printed.clear()
    assert shared  # some proofs hold one sentence object in several nodes


@pytest.mark.parametrize("text", [
    "(rule axiom3 (concl (= v0 v0) (foo)))",
    "(rule axiom3 (concl (foo) (= v0 v0)))",
    "(rule axiom3 (concl (and (= 0 0) (= 0 0)) (foo)))",
    # the second conclusion reads (= 0 0) from the table
    "(rule weak (concl (= 0 0)) (prem (rule axiom3 (concl (= 0 0) (= v0 v0) (foo)))))",
])
def test_a_parse_error_wins_over_an_earlier_sentence_of_its_conclusion(text):
    with pytest.raises(ParseError) as e:
        sexpr.parse_proof(text)
    assert str(e.value) == "unknown head 'foo'"


def test_an_open_sentence_read_from_the_table_is_still_refused():
    with pytest.raises(ParseError) as e:
        sexpr.parse_proof("(rule weak (concl (= 0 0)) (prem (rule axiom3 (concl (= v0 v0)))"
                          " (rule axiom3 (concl (= v0 v0)))))")
    assert str(e.value).startswith("open sentence in a sequent: ")


ABBREVIATIONS = ["(and (= 0 0) (= 0 0))", "(imp (= 0 0) (= 0 0))", "(iff (= 0 0) (= 0 0))",
                 "(xor (= 0 0) (= 0 0))", "(all 0 (= v0 v0))", "(lt 0 (sc 0))",
                 "(bex 0 (sc 0) (= v0 v0))", "(ball 0 (sc 0) (= v0 v0))"]


@pytest.mark.parametrize("abbreviation", ABBREVIATIONS)
def test_a_certificate_abbreviation_outside_a_box_is_refused(abbreviation):
    line = f"(line (or (= 0 0) {abbreviation}) hyp)"
    ax = f"(line (= 0 0) (ax add l (= 0 0) {abbreviation}))"
    for text, k in [(f"(cert {line})", 0), (f"(cert (line (= 0 0) hyp) {ax})", 1),
                    (f"(rule prop (concl (= 0 0)) (cert (line (= 0 0) hyp) {line}))", 1)]:
        with pytest.raises(ParseError) as e:
            parse_file(text)
        assert str(e.value).startswith(f"abbreviation in certificate line {k}: "
                                       "non-primitive node "), text
    # inside a box it is a template object, and the line reads
    boxed = sexpr.parse_certificate(sexpr.read_one(f"(cert (line (tf {abbreviation}) hyp))"))
    assert sexpr.print_certificate(boxed) == f"(cert (line (tf {abbreviation}) hyp))"
