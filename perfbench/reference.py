"""Answers computed without the code under test.

Everything here is written from the specifications (``encoding.json``,
README's s-expression syntax, the standard model of arithmetic) and
reads satkit's syntax nodes only by their fields.  The benchmark checks
each verdict the program gives against these answers.
"""

from __future__ import annotations

import satkit.syntax as sx
import satkit.template as tp
from satkit.elements import Std

# ---------------------------------------------------------------------------
# codecs, written from encoding.json

ENCODING_SPEC = {
    "base": 16,
    "index_digit_base": 4,
    "index_digit_codes": [12, 13, 14, 15],
    "index_terminator": 11,
    "order": "little-endian positional",
    "sequence_digit_base": 4,
    "sequence_entry_digits": {"bit0": 1, "bit1": 2, "terminator": 3},
    "symbols": {"*": 4, "+": 3, "0": 1, "=": 5, "Sc": 2, "const": 9,
                "d0": 12, "d1": 13, "d2": 14, "d3": 15, "end": 11,
                "exists": 8, "not": 6, "or": 7, "var": 10},
    "version": 1,
}

_SYM = ENCODING_SPEC["symbols"]
_DIGITS = ENCODING_SPEC["index_digit_codes"]
_SEQ = ENCODING_SPEC["sequence_entry_digits"]


def seq_code(items: list[int]) -> int:
    """The sequence code: each entry's bits, least significant first, then
    the terminator, as base-4 digits read little-endian."""
    digits: list[str] = []
    for n in items:
        for bit in reversed(bin(n)[2:]) if n else ():
            digits.append(str(_SEQ["bit1"] if bit == "1" else _SEQ["bit0"]))
        digits.append(str(_SEQ["terminator"]))
    return int("".join(reversed(digits)), 4) if digits else 0


def _index(n: int, out: list[int]) -> None:
    while n:
        n, d = divmod(n, 4)
        out.append(_DIGITS[d])
    out.append(ENCODING_SPEC["index_terminator"])


def godel_symbols(x) -> list[int]:
    """Pre-order symbol string of a term or formula; iterative, so any
    nesting depth is fine."""
    out: list[int] = []
    stack = [x]
    while stack:
        node = stack.pop()
        if isinstance(node, sx.Zero):
            out.append(_SYM["0"])
        elif isinstance(node, sx.Const):
            if not isinstance(node.elem, Std):
                raise ValueError(f"no standard code for {node!r}")
            out.append(_SYM["const"])
            _index(node.elem.n, out)
        elif isinstance(node, sx.Var):
            out.append(_SYM["var"])
            _index(node.index, out)
        elif isinstance(node, sx.Succ):
            out.append(_SYM["Sc"])
            stack.append(node.arg)
        elif isinstance(node, (sx.Add, sx.Mul, sx.Eq, sx.Or)):
            head = {sx.Add: "+", sx.Mul: "*", sx.Eq: "=", sx.Or: "or"}[type(node)]
            out.append(_SYM[head])
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, sx.Not):
            out.append(_SYM["not"])
            stack.append(node.body)
        elif isinstance(node, sx.Ex):
            out.append(_SYM["exists"])
            _index(node.index, out)
            stack.append(node.body)
        else:
            raise ValueError(f"no standard code for {node!r}")
    return out


def godel_code(x) -> int:
    """Base-16 little-endian value of the symbol string."""
    return int("".join(f"{s:x}" for s in reversed(godel_symbols(x))), 16)


def not_nest_code(depth: int) -> int:
    """Code of ``depth`` negations around ``0 = 0``."""
    syms = [_SYM["not"]] * depth + [_SYM["="], _SYM["0"], _SYM["0"]]
    return int("".join(f"{s:x}" for s in reversed(syms)), 16)


# ---------------------------------------------------------------------------
# s-expressions, written from README's syntax


def to_text(x) -> str:
    """Canonical s-expression text of a standard term or formula."""
    if isinstance(x, sx.Zero):
        return "0"
    if isinstance(x, sx.Const):
        return f"c{x.elem.n}"
    if isinstance(x, sx.Var):
        return f"v{x.index}"
    if isinstance(x, sx.Succ):
        return f"(sc {to_text(x.arg)})"
    if isinstance(x, sx.Not):
        return f"(not {to_text(x.body)})"
    if isinstance(x, sx.Ex):
        return f"(ex {x.index} {to_text(x.body)})"
    if isinstance(x, (sx.BEx, sx.BAll)):
        head = "bex" if isinstance(x, sx.BEx) else "ball"
        return f"({head} {x.index} {to_text(x.bound)} {to_text(x.body)})"
    if isinstance(x, tp.TemplForm):
        return f"(tf {to_text(x.obj)})"
    heads = {sx.Add: "+", sx.Mul: "*", sx.Eq: "=", sx.Or: "or", sx.And: "and",
             sx.Lt: "lt", sx.Imp: "imp"}
    return f"({heads[type(x)]} {to_text(x.left)} {to_text(x.right)})"


def read_text(text: str):
    """Nested lists of atoms; enough of a reader for the texts the
    program prints back."""
    stack: list[list] = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    (node,) = stack[0]
    return node


def delta_text(k: int) -> str:
    """The disjunction tower of height k over 0 != 0, written out."""
    out = "(not (= 0 0))"
    for _ in range(k):
        out = f"(or {out} {out})"
    return out


# ---------------------------------------------------------------------------
# the standard model

# Witnesses of the generated sentences lie below 21: true existentials
# are built around a witness below 20, henkin requests ask for at most 20,
# and no body's truth depends on another quantifier's variable.
EX_SEARCH = 24


def value(t, env: dict) -> int:
    if isinstance(t, str):
        if t == "0":
            return 0
        if t[0] == "c":
            return int(t[1:])
        return env[int(t[1:])]
    head = t[0]
    if head == "sc":
        return value(t[1], env) + 1
    if head == "+":
        return value(t[1], env) + value(t[2], env)
    if head == "*":
        return value(t[1], env) * value(t[2], env)
    raise ValueError(f"not a term: {t!r}")


def truth(f, env: dict | None = None) -> bool:
    """Truth in the standard model of a sentence given as nested lists.

    Unbounded existentials are searched below EX_SEARCH; every generator
    in this package keeps its witnesses, and the absence of witnesses,
    inside that range.
    """
    env = env or {}
    head = f[0]
    if head == "=":
        return value(f[1], env) == value(f[2], env)
    if head == "lt":
        return value(f[1], env) < value(f[2], env)
    if head == "not":
        return not truth(f[1], env)
    if head == "or":
        return truth(f[1], env) or truth(f[2], env)
    if head == "and":
        return truth(f[1], env) and truth(f[2], env)
    if head == "imp":
        return (not truth(f[1], env)) or truth(f[2], env)
    if head in ("ex", "bex", "ball"):
        i = int(f[1])
        body = f[-1]
        bound = EX_SEARCH if head == "ex" else value(f[2], env)
        hits = (truth(body, {**env, i: z}) for z in range(bound))
        return all(hits) if head == "ball" else any(hits)
    raise ValueError(f"not a formula: {f!r}")


def refutation_depth(f, want: bool = True, env: dict | None = None) -> int:
    """How deeply refuted existentials nest in a diagram proof of ``f``
    (of ``not f`` when ``want`` is false): each refuted existential is one
    uniform schema, and nested schemas multiply the kernel's sample work.
    """
    env = env or {}
    head = f[0]
    if head == "=":
        return 0
    if head == "not":
        return refutation_depth(f[1], not want, env)
    if head == "or":
        if not want:
            return max(refutation_depth(f[1], False, env),
                       refutation_depth(f[2], False, env))
        side = f[1] if truth(f[1], env) else f[2]
        return refutation_depth(side, True, env)
    if head == "ex":
        i = int(f[1])
        if not want:
            # the schema's parameter never decides an atom's truth here
            return 1 + refutation_depth(f[2], False, {**env, i: 0})
        for z in range(EX_SEARCH):
            if truth(f[2], {**env, i: z}):
                return refutation_depth(f[2], True, {**env, i: z})
        return 0
    raise ValueError(f"not a formula: {f!r}")


def tautology(f) -> bool:
    """Truth-table check over the maximal non-connective subformulas."""
    atoms: list = []

    def collect(g):
        if g[0] == "not":
            collect(g[1])
        elif g[0] == "or":
            collect(g[1])
            collect(g[2])
        elif g not in atoms:
            atoms.append(g)

    def ev(g, row):
        if g[0] == "not":
            return not ev(g[1], row)
        if g[0] == "or":
            return ev(g[1], row) or ev(g[2], row)
        return row[atoms.index(g)]

    collect(f)
    rows = range(2 ** len(atoms))
    return all(ev(f, [bool(r >> k & 1) for k in range(len(atoms))]) for r in rows)


# ---------------------------------------------------------------------------
# congruence closure over closed terms


def subterms(t, out: dict) -> None:
    out[t] = None
    if isinstance(t, tuple):
        for arg in t[1:]:
            subterms(arg, out)


def term_text(t) -> str:
    if isinstance(t, str):
        return t
    return "(" + " ".join([t[0]] + [term_text(a) for a in t[1:]]) + ")"


def quotient(equations: list[tuple]) -> tuple[list[list[str]], bool, bool]:
    """Classes (as sorted texts, sorted), injectivity on the standard
    constants, and whether every class holds a constant, for the least
    congruence containing ``equations`` on their subterm closure."""
    universe: dict = {}
    for lhs, rhs in equations:
        subterms(lhs, universe)
        subterms(rhs, universe)
    parent = {t: t for t in universe}

    def find(t):
        while parent[t] != t:
            t = parent[t]
        return t

    for lhs, rhs in equations:
        parent[find(lhs)] = find(rhs)
    merged = True
    while merged:
        merged = False
        compounds = [t for t in universe if isinstance(t, tuple)]
        for a in compounds:
            for b in compounds:
                if a[0] == b[0] and find(a) != find(b) and \
                        all(find(x) == find(y) for x, y in zip(a[1:], b[1:])):
                    parent[find(a)] = find(b)
                    merged = True
    groups: dict = {}
    for t in universe:
        groups.setdefault(find(t), []).append(t)
    consts = [{value(t, {}) for t in g if isinstance(t, str)} for g in groups.values()]
    classes = sorted(sorted(term_text(t) for t in g) for g in groups.values())
    return classes, all(len(c) <= 1 for c in consts), all(consts)


# ---------------------------------------------------------------------------
# the translation bound G(1) = 9, G(n+1) = (n+2)(2^G(n) - 1) + 2


def within_g_bound(level: int, length: int) -> bool:
    g, n = 9, 1
    while n < level:
        if g > 4096:  # G(n+1) already exceeds any length held in memory
            return True
        g, n = (n + 2) * (2 ** g - 1) + 2, n + 1
    return length <= g


# ---------------------------------------------------------------------------
# proof shape, read from the proof tree's fields


def nodes(p):
    """Every node of a proof tree, uniform schemas' nodes included."""
    stack = [p]
    while stack:
        q = stack.pop()
        yield q
        stack.extend(q.premises)
        if q.uniform is not None:
            stack.append(q.uniform.schema)


def proof_shape(p) -> tuple[int, int, int, int]:
    """(nodes, height, uniform nodes, uniform nesting depth) of a proof.

    Nodes include every uniform schema's nodes.  Axioms have height 0 and
    every rule adds one, counting a schema as a premise of its node.
    """
    stack = [(p, 0)]
    nodes = uniform = depth = 0
    heights: dict[int, int] = {}
    order = []
    while stack:
        q, d = stack.pop()
        nodes += 1
        order.append(q)
        depth = max(depth, d)
        for r in q.premises:
            stack.append((r, d))
        if q.uniform is not None:
            uniform += 1
            stack.append((q.uniform.schema, d + 1))
    for q in reversed(order):
        kids = list(q.premises) + ([q.uniform.schema] if q.uniform else [])
        heights[id(q)] = 0 if q.rule.startswith("axiom") else \
            1 + max((heights[id(k)] for k in kids), default=0)
    return nodes, heights[id(p)], uniform, depth
