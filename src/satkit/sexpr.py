"""Canonical text syntax: terms, formulas, chains, proofs, certificates.

One space between tokens, no redundant parentheses, deterministic output.
Variables print as v0, v1, ...; standard constants as c0, c1, ...;
symbolic constants carry their affine element text. Proof files are
trees of (rule <tag> (concl ...) ...) nodes.

Each distinct sentence of a proof file is read once: ``parse_proof``
keeps one table per call from a sentence's read expression to the node
built for it, so equal sentences of a file (in conclusions and
certificate lines) are one object. ``print_proof`` prints each sentence
object once per call.
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from typing import Union, get_type_hints

from . import syntax as sx
from . import template as tp
from .coding import MAX_CODE_SYMBOLS
from .elements import Element, ElementError, Std, parse_element
from .kernel import KernelError, Proof, Sequent, Uniform
from .propcalc import CertLine, PropCertificate
from .skolem import QuantSeq


class ParseError(Exception):
    pass


Node = Union[str, list]


def tokenize(text: str) -> list[str]:
    """Parentheses, and the runs between them and whitespace (str.split()
    splits on exactly the characters str.isspace() accepts)."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def read_nodes(text: str) -> list[Node]:
    """The top-level expressions of a text; iterative, so any nesting
    depth reads."""
    nodes: list[Node] = []
    open_lists: list[list] = []
    for t in tokenize(text):
        if t == "(":
            open_lists.append([])
            continue
        if t == ")":
            if not open_lists:
                raise ParseError("stray closing parenthesis")
            t = open_lists.pop()
        (open_lists[-1] if open_lists else nodes).append(t)
    if open_lists:
        raise ParseError("unbalanced parenthesis")
    return nodes


def read_one(text: str) -> Node:
    nodes = read_nodes(text)
    if len(nodes) != 1:
        raise ParseError(f"expected one expression, found {len(nodes)}")
    return nodes[0]


# ---------------------------------------------------------------------------
# printing


# The nodes written (head [index] part ...): a binder's index, then its
# children, or a template symbol's object. Atoms and family references
# have their own forms.
HEADS = {
    "sc": sx.Succ, "+": sx.Add, "*": sx.Mul, "=": sx.Eq, "not": sx.Not,
    "or": sx.Or, "ex": sx.Ex, "tf": tp.TemplForm, "tt": tp.TemplTerm,
    "and": sx.And, "imp": sx.Imp, "iff": sx.Iff, "xor": sx.Xor, "all": sx.All,
    "lt": sx.Lt, "bex": sx.BEx, "ball": sx.BAll,
}
HEAD_OF = {cls: head for head, cls in HEADS.items()}
# the abbreviations' heads, as the repr of a read expression quotes them
_ABBREVIATION_HEADS = tuple(repr(head) for head, cls in HEADS.items() if cls.extended)


def print_elem(e: Element) -> str:
    return str(e)


def print_obj(x) -> str:
    """The expression of a term or formula; iterative, so any nesting
    depth prints."""
    out: list[str] = []  # the pieces between spaces
    stack = [x]
    while stack:
        y = stack.pop()
        if type(y) is str:  # a closing parenthesis
            out[-1] += y
            continue
        head = HEAD_OF.get(type(y))
        if head is not None:
            if y.scope:
                head = f"{head} {y.index}"
            parts = (y.obj,) if isinstance(y, sx.Sealed) else y.children
        elif isinstance(y, sx.FamilyRef):  # (family index [payload])
            head = f"{y.family} {print_elem(y.index)}"
            parts = () if y.payload is None else (y.payload,)
        else:
            out.append(_print_leaf(y))
            continue
        out.append(f"({head}")
        stack.append(")")
        stack.extend(reversed(parts))
    return " ".join(out)


def _print_leaf(x) -> str:
    if isinstance(x, sx.Zero):
        return "0"
    if isinstance(x, sx.Var):
        return f"v{x.index}"
    if isinstance(x, sx.Const):
        if isinstance(x.elem, Std):
            return f"c{x.elem.n}"
        return f"c{print_elem(x.elem)}"
    raise ParseError(f"cannot print {x!r}")


def print_chain(f: tp.ApproxChain) -> str:
    inner = " ".join(print_obj(s) for s in f.steps)
    return f"(chain {inner})" if inner else "(chain)"


def print_certificate(cert: PropCertificate) -> str:
    parts = []
    for line in cert.lines:
        just = line.just
        if just[0] in ("hyp", "ax-fo"):  # bare words
            j = just[0]
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
    return _print_proof(p, indent, {})


def _print_proof(p: Proof, indent: int, texts: dict) -> str:
    """texts maps id(sentence) to its text for this call; the proof keeps
    every key's sentence alive."""
    pad = "  " * indent
    bits = [f"{pad}(rule {p.rule}"]
    for f in p.conclusion.sentences:
        if id(f) not in texts:
            texts[id(f)] = print_obj(f)
    concl = " ".join(sorted(texts[id(f)] for f in p.conclusion.sentences))
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
            bits.append(_print_proof(q, indent + 2, texts))
        bits.append(f"{pad}  )")
    if p.uniform is not None:
        u = p.uniform
        samples = " ".join(
            f"(tuple {' '.join(print_elem(e) for e in s)})" for s in u.sampled)
        bits.append(f"{pad}  (uniform (params {' '.join(u.params)})")
        bits.append(f"{pad}    (schema")
        bits.append(_print_proof(u.schema, indent + 3, texts))
        bits.append(f"{pad}    )")
        bits.append(f"{pad}    (sample {samples}))")
    bits.append(f"{pad})")
    return "\n".join(bits)


# ---------------------------------------------------------------------------
# parsing


def parse_elem_node(node: Node) -> Element:
    if not isinstance(node, str):
        raise ParseError(f"expected an element, found {node!r}")
    try:
        return parse_element(node)
    except ElementError as e:
        raise ParseError(str(e)) from None


def _index(text: str) -> int | None:
    """The natural a run of ASCII digits names, else None."""
    return int(text) if text.isdigit() and text.isascii() else None


def _parse_atom(node: str):
    if node == "0":
        return sx.ZERO
    if node[:1] == "v" and (n := _index(node[1:])) is not None:
        return sx.Var(n)
    if node[:1] == "c" and len(node) > 1:
        return sx.const(parse_elem_node(node[1:]))
    raise ParseError(f"unknown atom {node!r}")


def _natural(node: Node, what: str) -> int:
    """A natural-number field, read as _index reads it; what names the field."""
    n = _index(node) if type(node) is str else None
    if n is None:
        raise ParseError(f"expected {what}, found {node!r}")
    return n


def _tower(family: str, a: Element, payload=None):
    """The family's tower of height a. A standard height past
    ``MAX_CODE_SYMBOLS`` is refused before a node is built: the tower
    would have a code longer than that, and building it costs its height."""
    if isinstance(a, Std) and a.n > MAX_CODE_SYMBOLS:
        raise ParseError(f"a {family} tower of height {a.n} is past the limit of "
                         f"{MAX_CODE_SYMBOLS} levels")
    return sx.tower(family, a, payload)


# how to build each compound expression (head [lead] part ...): the
# constructor, the reader of a leading argument that is not a part (a
# binder's index, a family's element), the sort of each argument (from
# the constructor's field types, or a family's element and payload) and
# the most items the expression holds
BUILDERS = {head: (make, read_lead, sorts, len(sorts) + 1) for head, make, read_lead, sorts in (
    *((head, cls, (lambda node: _natural(node, "a binder index")) if cls.scope else None,
       tuple(get_type_hints(cls)[f.name] for f in fields(cls))) for head, cls in HEADS.items()),
    *((name, partial(_tower, name), parse_elem_node, (Element,) + (sx.Formula,) * row.payload)
      for name, row in sx.FAMILIES.items()))}


def _arity_error(head: str) -> ParseError:
    return ParseError(f"({head} ...) takes {len(BUILDERS[head][2])} arguments")


def _sort_error(head: str, i: int, obj) -> ParseError:
    want = BUILDERS[head][2][i].__name__.lower()  # a term or a formula
    got = "term" if isinstance(obj, sx.Term) else "formula"
    return ParseError(f"({head} ...) takes a {want} as argument {i + 1}, found a {got}")


def parse_obj(node: Node):
    """The term or formula an expression denotes; iterative, so any
    nesting depth parses. Parts are read left to right, each checked
    against its argument's sort as it is built, so the first fault in
    that order is the one reported."""
    if type(node) is str:
        return _parse_atom(node)
    # the open expression, in locals: its constructor, argument sorts,
    # the arguments built so far, the expression, the position of its
    # next part and its length; an enclosing one waits on the stack as
    # one flat tuple of these
    stack = []
    expr = node
    try:
        while True:  # open expr
            try:
                make, read_lead, sorts, size = BUILDERS[expr[0]]
            except (IndexError, KeyError, TypeError):  # empty, or a bad head
                if not expr or type(expr[0]) is not str:
                    raise ParseError(f"bad expression {expr!r}") from None
                raise ParseError(f"unknown head {expr[0]!r}") from None
            n = len(expr)
            if n > size:
                raise _arity_error(expr[0])
            if read_lead is None:
                built, pos = [], 1
            elif n < 2:
                raise _arity_error(expr[0])
            else:
                built, pos = [read_lead(expr[1])], 2
            while True:
                if pos < n:
                    part = expr[pos]
                    pos += 1
                    if type(part) is not str:
                        stack.append((make, sorts, built, expr, pos, n))
                        expr = part
                        break
                    obj = _parse_atom(part)
                else:  # every part built
                    if len(built) < len(sorts):
                        raise _arity_error(expr[0])
                    obj = make(*built)
                    if not stack:
                        return obj
                    make, sorts, built, expr, pos, n = stack.pop()
                if not isinstance(obj, sorts[len(built)]):
                    raise _sort_error(expr[0], len(built), obj)
                built.append(obj)
    except tp.TemplateError as e:  # a box in a box
        raise ParseError(str(e)) from None


def parse_formula(text: str) -> sx.Formula:
    f = parse_obj(read_one(text))
    if isinstance(f, sx.Term):
        raise ParseError("expected a formula, found a term")
    return f


def parse_chain(text: str) -> tp.ApproxChain:
    node = read_one(text)
    if not (isinstance(node, list) and node and node[0] == "chain"):
        raise ParseError("chain files start with (chain ...)")
    steps = tuple(parse_obj(n) for n in node[1:])
    for k, step in enumerate(steps):
        if step.extended:  # it would name a box that cannot unfold
            raise ParseError(f"chain step {k} is an abbreviation: {print_obj(step)}")
    return tp.ApproxChain(steps)


def _read_once(node: Node, table: dict):
    """The object node denotes, built once per table, and its key: the
    read expression's repr, which CPython builds in C, so no node is
    hashed for it. A node too deep to key is read unshared (key None)."""
    try:
        key = repr(node)
    except RecursionError:
        return parse_obj(node), None
    obj = table.get(key)
    if obj is None:
        obj = table[key] = parse_obj(node)
    return obj, key


def _read_plain(node: Node, table: dict, line: int):
    """A certificate formula read through table. It may hold an
    abbreviation only if its key quotes an abbreviation's head; then it
    is walked, and an abbreviation outside a box is a ParseError."""
    obj, key = _read_once(node, table)
    if key is None or any(head in key for head in _ABBREVIATION_HEADS):
        try:
            tp.has_templates(obj)
        except tp.TemplateError as e:
            raise ParseError(f"abbreviation in certificate line {line}: {e}") from None
    return obj


def parse_certificate(node: Node, table: dict | None = None) -> PropCertificate:
    """A certificate; its formulas are read through table (one of its
    own when none is given). No line or ax argument may hold an
    abbreviation outside a box."""
    if not (isinstance(node, list) and node and node[0] == "cert"):
        raise ParseError("expected (cert ...)")
    if table is None:
        table = {}
    lines = []
    for ln in node[1:]:
        if not (isinstance(ln, list) and len(ln) == 3 and ln[0] == "line"):
            raise ParseError(f"certificate entries are (line <formula> <justification>), "
                             f"found {ln!r}")
        formula = _read_plain(ln[1], table, len(lines))
        j = ln[2]
        head = j[0] if isinstance(j, list) and j else None
        if j in ("hyp", "ax-fo"):  # bare words
            just = (j,)
        elif head == "ax" and len(j) >= 3 and all(isinstance(x, str) for x in j[1:3]):
            scheme, form = j[1], ("" if j[2] == "_" else j[2])
            args = tuple(_read_plain(a, table, len(lines)) for a in j[3:])
            just = ("ax", scheme, form, args)
        elif head == "mp" and len(j) == 3 and all(isinstance(x, str) for x in j[1:]):
            just = ("mp", *(_natural(x, "an mp line number") for x in j[1:]))
        else:
            raise ParseError(f"unknown justification {j!r}")
        lines.append(CertLine(formula, just))
    return PropCertificate(tuple(lines))


def _parse_skolem(node: Node) -> dict:
    fields = {item[0]: item for item in node[1:]}
    q = QuantSeq(tuple((it[0], _natural(it[1], "a Skolem q index")) for it in fields["q"][1:]))
    rows = {}
    for row in fields["table"][1:]:
        inner = {x[0]: x for x in row[1:]}
        rows[tuple(_natural(v, "a Skolem row input") for v in inner["in"][1:])] = \
            tuple(_natural(v, "a Skolem row output") for v in inner["out"][1:])
    samples = tuple(tuple(_natural(v, "a Skolem sample") for v in s[1:])
                    for s in fields["samples"][1:])
    from .skolem import table_of
    return {
        "q": q,
        "table": table_of(rows),
        "phi": parse_obj(fields["phi"][1]),
        "samples": samples,
    }


def parse_proof_node(node: Node, table: dict | None = None) -> Proof:
    """A proof; its sentences are read through table (one of its own
    when none is given), which the premises and the schema share."""
    if table is None:
        table = {}
    if not (isinstance(node, list) and node[:1] == ["rule"] and len(node) > 1
            and isinstance(node[1], str)):
        raise ParseError("proof nodes start with (rule <tag> ...)")
    tag = node[1]
    concl = None
    premises: list[Proof] = []
    uniform = None
    info: dict = {}
    for item in node[2:]:
        if not isinstance(item, list) or not item:
            raise ParseError(f"bad proof item {item!r}")
        head = item[0]
        try:
            if head == "concl":
                # every sentence is built before any is validated, so a
                # ParseError in a later one wins over a KernelError
                try:
                    concl = Sequent.of(*[_read_once(n, table)[0] for n in item[1:]])
                except KernelError as e:  # not a sentence: a term, open or an abbreviation
                    raise ParseError(str(e)) from None
            elif head == "prem":
                premises = [parse_proof_node(n, table) for n in item[1:]]
            elif head == "witness":
                info["witness"] = parse_elem_node(item[1])
            elif head == "block":
                info["block"] = tuple(_natural(v, "a block index") for v in item[1:])
            elif head == "tuple":
                info["tuple"] = tuple(parse_elem_node(v) for v in item[1:])
            elif head == "cert":
                info["prop"] = {"cert": parse_certificate(item, table)}
            elif head == "skolem":
                info["skolem"] = _parse_skolem(item)
            elif head == "uniform":
                fields = {x[0]: x for x in item[1:] if isinstance(x, list)}
                params = tuple(fields["params"][1:])
                schema = parse_proof_node(fields["schema"][1], table)
                sampled = tuple(
                    tuple(parse_elem_node(e) for e in s[1:])
                    for s in fields["sample"][1:])
                uniform = Uniform(params, schema, sampled)
            else:
                raise ParseError(f"unknown proof item {head!r}")
        except (IndexError, KeyError, TypeError) as e:
            # a part of the item is missing or has the wrong shape
            raise ParseError(f"malformed proof item ({head} ...)") from e
    if concl is None:
        raise ParseError("proof node without a conclusion")
    return Proof(concl, tag, tuple(premises), uniform, info)


def parse_proof(text: str) -> Proof:
    return parse_proof_node(read_one(text))
