"""Canonical text syntax: terms, formulas, chains, proofs, certificates.

One space between tokens, no redundant parentheses, deterministic output.
Variables print as v0, v1, ...; standard constants as c0, c1, ...;
symbolic constants carry their affine element text. Proof files are
trees of (rule <tag> (concl ...) ...) nodes.
"""

from __future__ import annotations

from typing import Union

from . import syntax as sx
from . import template as tp
from .elements import Element, Std, parse_element
from .kernel import Proof, Sequent, Uniform
from .propcalc import CertLine, PropCertificate
from .skolem import QuantSeq


class ParseError(Exception):
    pass


Node = Union[str, list]


def tokenize(text: str) -> list[str]:
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


def read_nodes(text: str) -> list[Node]:
    tokens = tokenize(text)
    pos = 0

    def read() -> Node:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input")
        t = tokens[pos]
        pos += 1
        if t == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(read())
            if pos >= len(tokens):
                raise ParseError("unbalanced parenthesis")
            pos += 1
            return items
        if t == ")":
            raise ParseError("stray closing parenthesis")
        return t

    nodes = []
    while pos < len(tokens):
        nodes.append(read())
    return nodes


def read_one(text: str) -> Node:
    nodes = read_nodes(text)
    if len(nodes) != 1:
        raise ParseError(f"expected one expression, found {len(nodes)}")
    return nodes[0]


# ---------------------------------------------------------------------------
# printing


def print_elem(e: Element) -> str:
    return str(e)


def print_obj(x) -> str:
    if isinstance(x, sx.Zero):
        return "0"
    if isinstance(x, sx.Var):
        return f"v{x.index}"
    if isinstance(x, sx.Const):
        if isinstance(x.elem, Std):
            return f"c{x.elem.n}"
        return f"c{print_elem(x.elem)}"
    if isinstance(x, sx.Succ):
        return f"(sc {print_obj(x.arg)})"
    if isinstance(x, sx.Add):
        return f"(+ {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.Mul):
        return f"(* {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.SymTermRef):
        return f"({x.family} {print_elem(x.index)})"
    if isinstance(x, sx.Eq):
        return f"(= {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.Not):
        return f"(not {print_obj(x.body)})"
    if isinstance(x, sx.Or):
        return f"(or {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.Ex):
        return f"(ex {x.index} {print_obj(x.body)})"
    if isinstance(x, sx.SymFormulaRef):
        if x.family == "delta":
            return f"(delta {print_elem(x.index)})"
        return f"(eps {print_elem(x.index)} {print_obj(x.payload)})"
    if isinstance(x, tp.TemplForm):
        return f"(tf {print_obj(x.obj)})"
    if isinstance(x, tp.TemplTerm):
        return f"(tt {print_obj(x.obj)})"
    if isinstance(x, sx.And):
        return f"(and {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.Imp):
        return f"(imp {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.Iff):
        return f"(iff {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.Xor):
        return f"(xor {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.All):
        return f"(all {x.index} {print_obj(x.body)})"
    if isinstance(x, sx.Lt):
        return f"(lt {print_obj(x.left)} {print_obj(x.right)})"
    if isinstance(x, sx.BEx):
        return f"(bex {x.index} {print_obj(x.bound)} {print_obj(x.body)})"
    if isinstance(x, sx.BAll):
        return f"(ball {x.index} {print_obj(x.bound)} {print_obj(x.body)})"
    raise ParseError(f"cannot print {x!r}")


def print_chain(f: tp.ApproxChain) -> str:
    inner = " ".join(print_obj(s) for s in f.steps)
    return f"(chain {inner})" if inner else "(chain)"


def _sorted_sentences(s: Sequent) -> list:
    return sorted(s.sentences, key=lambda f: print_obj(f))


def print_certificate(cert: PropCertificate) -> str:
    parts = []
    for line in cert.lines:
        just = line.just
        if just[0] == "hyp":
            j = "hyp"
        elif just[0] == "ax":
            _, scheme, form, args = just
            inner = " ".join(print_obj(a) for a in args)
            j = f"(ax {scheme} {form or '_'} {inner})"
        elif just[0] == "mp":
            j = f"(mp {just[1]} {just[2]})"
        else:
            raise ParseError(f"cannot print justification {just!r}")
        parts.append(f"(line {print_obj(line.formula)} {j})")
    return "(cert " + " ".join(parts) + ")"


def print_proof(p: Proof, indent: int = 0) -> str:
    pad = "  " * indent
    bits = [f"{pad}(rule {p.rule}"]
    concl = " ".join(print_obj(f) for f in _sorted_sentences(p.conclusion))
    bits.append(f"{pad}  (concl {concl})")
    if "witness" in p.info:
        bits.append(f"{pad}  (witness {print_elem(p.info['witness'])})")
    if "block" in p.info:
        bits.append(f"{pad}  (block {' '.join(str(i) for i in p.info['block'])})")
    if "tuple" in p.info:
        vals = " ".join(print_elem(e) for e in p.info["tuple"])
        bits.append(f"{pad}  (tuple {vals})")
    if "prop" in p.info:
        bits.append(f"{pad}  {print_certificate(p.info['prop']['cert'])}")
    if "skolem" in p.info:
        sk = p.info["skolem"]
        q = " ".join(f"({kind} {i})" for kind, i in sk["q"].items)
        rows = " ".join(
            f"(row (in {' '.join(map(str, k))}) (out {' '.join(map(str, v))}))"
            for k, v in sk["table"].mapping)
        samples = " ".join(f"(tuple {' '.join(map(str, s))})" for s in sk["samples"])
        bits.append(f"{pad}  (skolem (q {q}) (table {rows}) "
                    f"(phi {print_obj(sk['phi'])}) (samples {samples}))")
    if p.premises:
        bits.append(f"{pad}  (prem")
        for q in p.premises:
            bits.append(print_proof(q, indent + 2))
        bits.append(f"{pad}  )")
    if p.uniform is not None:
        u = p.uniform
        samples = " ".join(
            f"(tuple {' '.join(print_elem(e) for e in s)})" for s in u.sampled)
        bits.append(f"{pad}  (uniform (params {' '.join(u.params)})")
        bits.append(f"{pad}    (schema")
        bits.append(print_proof(u.schema, indent + 3))
        bits.append(f"{pad}    )")
        bits.append(f"{pad}    (sample {samples}))")
    bits.append(f"{pad})")
    return "\n".join(bits)


# ---------------------------------------------------------------------------
# parsing


def parse_elem_node(node: Node) -> Element:
    if not isinstance(node, str):
        raise ParseError(f"expected an element, found {node!r}")
    return parse_element(node)


def parse_obj(node: Node):
    if isinstance(node, str):
        if node == "0":
            return sx.ZERO
        if node.startswith("v") and node[1:].isdigit():
            return sx.Var(int(node[1:]))
        if node.startswith("c") and len(node) > 1:
            return sx.const(parse_element(node[1:]))
        raise ParseError(f"unknown atom {node!r}")
    if not node or not isinstance(node[0], str):
        raise ParseError(f"bad expression {node!r}")
    head, args = node[0], node[1:]
    if head == "sc":
        return sx.Succ(parse_obj(args[0]))
    if head == "+":
        return sx.Add(parse_obj(args[0]), parse_obj(args[1]))
    if head == "*":
        return sx.Mul(parse_obj(args[0]), parse_obj(args[1]))
    if head in ("num", "addtower"):
        idx = parse_elem_node(args[0])
        return sx.numeral(idx) if head == "num" else sx.addtower(idx)
    if head == "=":
        return sx.Eq(parse_obj(args[0]), parse_obj(args[1]))
    if head == "not":
        return sx.Not(parse_obj(args[0]))
    if head == "or":
        return sx.Or(parse_obj(args[0]), parse_obj(args[1]))
    if head == "ex":
        return sx.Ex(int(args[0]), parse_obj(args[1]))
    if head == "delta":
        return sx.delta(parse_elem_node(args[0]))
    if head == "eps":
        return sx.epsilon(parse_elem_node(args[0]), parse_obj(args[1]))
    if head == "tf":
        return tp.TemplForm(parse_obj(args[0]))
    if head == "tt":
        return tp.TemplTerm(parse_obj(args[0]))
    if head == "and":
        return sx.And(parse_obj(args[0]), parse_obj(args[1]))
    if head == "imp":
        return sx.Imp(parse_obj(args[0]), parse_obj(args[1]))
    if head == "iff":
        return sx.Iff(parse_obj(args[0]), parse_obj(args[1]))
    if head == "xor":
        return sx.Xor(parse_obj(args[0]), parse_obj(args[1]))
    if head == "all":
        return sx.All(int(args[0]), parse_obj(args[1]))
    if head == "lt":
        return sx.Lt(parse_obj(args[0]), parse_obj(args[1]))
    if head == "bex":
        return sx.BEx(int(args[0]), parse_obj(args[1]), parse_obj(args[2]))
    if head == "ball":
        return sx.BAll(int(args[0]), parse_obj(args[1]), parse_obj(args[2]))
    raise ParseError(f"unknown head {head!r}")


def parse_formula(text: str) -> sx.Formula:
    f = parse_obj(read_one(text))
    if isinstance(f, sx.Term):
        raise ParseError("expected a formula, found a term")
    return f


def parse_chain(text: str) -> tp.ApproxChain:
    node = read_one(text)
    if not (isinstance(node, list) and node and node[0] == "chain"):
        raise ParseError("chain files start with (chain ...)")
    return tp.ApproxChain(tuple(parse_obj(n) for n in node[1:]))


def parse_certificate(node: Node) -> PropCertificate:
    if not (isinstance(node, list) and node and node[0] == "cert"):
        raise ParseError("expected (cert ...)")
    lines = []
    for ln in node[1:]:
        if not (isinstance(ln, list) and ln[0] == "line"):
            raise ParseError("certificate entries are (line ...)")
        formula = parse_obj(ln[1])
        j = ln[2]
        if j == "hyp":
            just = ("hyp",)
        elif isinstance(j, list) and j[0] == "ax":
            scheme, form = j[1], ("" if j[2] == "_" else j[2])
            args = tuple(parse_obj(a) for a in j[3:])
            just = ("ax", scheme, form, args)
        elif isinstance(j, list) and j[0] == "mp":
            just = ("mp", int(j[1]), int(j[2]))
        else:
            raise ParseError(f"unknown justification {j!r}")
        lines.append(CertLine(formula, just))
    return PropCertificate(tuple(lines))


def _parse_skolem(node: Node) -> dict:
    fields = {item[0]: item for item in node[1:]}
    q = QuantSeq(tuple((it[0], int(it[1])) for it in fields["q"][1:]))
    rows = {}
    for row in fields["table"][1:]:
        inner = {x[0]: x for x in row[1:]}
        rows[tuple(int(v) for v in inner["in"][1:])] = \
            tuple(int(v) for v in inner["out"][1:])
    samples = tuple(tuple(int(v) for v in s[1:]) for s in fields["samples"][1:])
    from .skolem import table_of
    return {
        "q": q,
        "table": table_of(rows),
        "phi": parse_obj(fields["phi"][1]),
        "samples": samples,
    }


def parse_proof_node(node: Node) -> Proof:
    if not (isinstance(node, list) and node and node[0] == "rule"):
        raise ParseError("proof nodes start with (rule ...)")
    tag = node[1]
    concl = None
    premises: list[Proof] = []
    uniform = None
    info: dict = {}
    for item in node[2:]:
        if not isinstance(item, list) or not item:
            raise ParseError(f"bad proof item {item!r}")
        head = item[0]
        if head == "concl":
            concl = Sequent.of(*(parse_obj(n) for n in item[1:]))
        elif head == "prem":
            premises = [parse_proof_node(n) for n in item[1:]]
        elif head == "witness":
            info["witness"] = parse_elem_node(item[1])
        elif head == "block":
            info["block"] = tuple(int(v) for v in item[1:])
        elif head == "tuple":
            info["tuple"] = tuple(parse_elem_node(v) for v in item[1:])
        elif head == "cert":
            info["prop"] = {"cert": parse_certificate(item)}
        elif head == "skolem":
            info["skolem"] = _parse_skolem(item)
        elif head == "uniform":
            fields = {x[0]: x for x in item[1:] if isinstance(x, list)}
            params = tuple(fields["params"][1:])
            schema = parse_proof_node(fields["schema"][1])
            sampled = tuple(
                tuple(parse_elem_node(e) for e in s[1:])
                for s in fields["sample"][1:])
            uniform = Uniform(params, schema, sampled)
        else:
            raise ParseError(f"unknown proof item {head!r}")
    if concl is None:
        raise ParseError("proof node without a conclusion")
    return Proof(concl, tag, tuple(premises), uniform, info)


def parse_proof(text: str) -> Proof:
    return parse_proof_node(read_one(text))
