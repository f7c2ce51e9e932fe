"""Checkable proof trees for the infinitary sequent systems.

A proof derives a finite set of closed sentences, read disjunctively.
The one genuinely infinitary rule (one premise per ground-model element)
is carried as a uniform schema: a single subproof over a fresh parameter
that occurs only in constant position, checked structurally and then
re-checked at a sample of instantiations. Non-uniform premise families
can be stored as finite truncations for demonstration, but never check.

Rule tags: axiom1..axiom12, axiomL, weak, or-i1, or-i2, or-i3, neg-i,
cut, ex-i, m-rule, and the extensions prop, i-ex-inf, m-inf, skolem, pred.

Proof trees follow the syntax nodes' protocol, ``Proof.children`` (the
premises, then the uniform schema) and ``Proof.rebuild``; they are walked
by ``syntax.subobjects``, and every proof rewrite is a ``syntax.fold`` step
but a schema's instantiation, which replays the steps a fold planned.

This module alone decides a rule's principal formula: ``match_axiom``
gives an axiom's parts and ``match_rule`` an inference's principal
formula and its parts. The checker, the translation into template logic,
the certified conversion and the provability predicates read the
decomposition from these and never re-derive it. m-rule is the one-block
case of m-inf, and ex-i with a witness the one-block case of i-ex-inf.

Each inference tag has one row in ``_RULES``: the checker's handler for
its nodes, its ``match_rule`` step, its premise count, its messages and
the ``RulePolicy`` flag that enables it. The checker looks the row up
once per node and tests the flag before the handler. Axioms are matched
by ``match_axiom`` alone; whether the policy allows one is the checker's
test.

Invariants the checker relies on: syntax nodes are immutable and carry
cached facts (hash, free variables, template flag, parameter bases), so
reading a fact, a rejected abbreviation included, never re-walks a
subtree. Instantiating a schema returns every subtree and subproof that
lacks the parameter as it is, and a rebuilt node keeps its original's
free variables and template flag where its children keep theirs, so a
sample's sentences mostly read both from their slots. Each ``check``
call keeps one instantiation memo per (parameter, value), read and
filled at every node level by every schema, sample and certificate line
of that call, so each distinct subtree is instantiated once per value
and equal sentences of the instances are one object, whose set
comparisons succeed on identity. A schema is instantiated from a plan
(``plan_instantiation``): one walk per (schema, parameter) per call
lists, in fold post-order, the subproofs the parameter reaches through a
sentence, a witness, a block tuple, a Skolem formula, a certificate line
or a subproof, read from the cached bases, with the positions of their
moving sentences and rebuilt children. Every sample replays that list
(``replay_plan``) through the memo, so the subproofs it leaves out come
back unvisited. The checker also vets each sentence object once per call
(closed, no abbreviation outside a box, no box in a ground-logic proof)
and records it by identity; the table holds the object, so its id is not
reused. The instantiation memo, the plans and the vetted table end with
their call and are never kept across calls. A sample that takes an
element out of the naturals is a located error at that sample.

The checker also keeps a check-result memo. It records successes only,
and only inside a schema: each subproof that passes there, keyed on its
identity, with its height and the active parameters it passed under. A
later check of the same object under a subset of those parameters
returns the height without re-checking. That is sound because reading
fewer parameters never fails a check: axiom2's disequality test, the
freshness test of m-rule and m-inf, and the parameters handed down to a
schema all weaken as the set shrinks. So a sample re-checks only the
subproofs that instantiation rebuilt, those that mention its parameter in
a sentence or in side data such as a certificate; every other subproof
is the schema's own object, already checked under more parameters. The
entries made while checking a sample end with that sample, those of a
schema when it returns, and none is kept across ``check`` calls.
Failures are never recorded, so a rejection is located and worded as
without the memo. The caches belong to this process and are never
serialised (string hashes are randomised per process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from operator import or_
from typing import Callable, Optional

from . import syntax as sx
from . import template as tp
from .coding import code_key
from .elements import Element, ElementError, Std, Sym, never_equal_under, subst_base

AXIOM_TAGS = tuple(f"axiom{i}" for i in range(1, 13)) + ("axiomL",)

# each function symbol's compatibility axiom and ground-operation axiom
FUNCTION_AXIOMS = {sx.Succ: ("axiom6", "axiom9"), sx.Add: ("axiom7", "axiom10"),
                   sx.Mul: ("axiom8", "axiom11")}

DEFAULT_SAMPLES: tuple[Element, ...] = (
    Std(0), Std(1), Std(2), Std(17), Sym("sample"),
)


class KernelError(Exception):
    pass


# the most nodes of a sentence that a message writes out
_NAMED_NODES = 256


def _named(f) -> str:
    """f's repr while it has at most ``_NAMED_NODES`` nodes, else its size.
    The repr writes every occurrence of a shared child, so a tower's
    doubles with each level; the count folds a tower in its height."""
    n = _nodes(f)
    return repr(f) if n <= _NAMED_NODES else f"<a formula of {n} nodes>"


def _nodes(x) -> int:
    # the nodes x's repr writes: a box's object and an eps tower's formula too
    def step(y, kids):
        inner = y.obj if isinstance(y, sx.Sealed) else getattr(y, "payload", None)
        return 1 + sum(kids) + (0 if inner is None else _nodes(inner))
    return sx.fold(x, step)


@dataclass(frozen=True)
class Sequent:
    sentences: frozenset

    @staticmethod
    def of(*formulas: sx.Formula) -> "Sequent":
        for f in formulas:
            if isinstance(f, sx.Term):
                raise KernelError("sequents hold sentences, not terms")
            try:
                tp.has_templates(f)  # raises on an abbreviation
            except tp.TemplateError:
                raise KernelError(f"abbreviation in a sequent: {_named(f)}") from None
            if not sx.is_closed(f):
                raise KernelError(f"open sentence in a sequent: {_named(f)}")
        return Sequent(frozenset(formulas))

    def __contains__(self, f) -> bool:
        return f in self.sentences

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)


def seq(*formulas: sx.Formula) -> Sequent:
    return Sequent.of(*formulas)


@dataclass(frozen=True)
class Uniform:
    params: tuple[str, ...]
    schema: "Proof"
    sampled: tuple[tuple[Element, ...], ...]


@dataclass
class Proof:
    conclusion: Sequent
    rule: str
    premises: tuple["Proof", ...] = ()
    uniform: Optional[Uniform] = None
    info: dict = field(default_factory=dict)

    @property
    def children(self) -> tuple["Proof", ...]:
        """The premises, then the uniform schema when there is one."""
        if self.uniform is None:
            return self.premises
        return self.premises + (self.uniform.schema,)

    def rebuild(self, conclusion: Sequent, children, info: Optional[dict] = None) -> "Proof":
        """The same rule over new children, given in ``children`` order;
        the side data is copied unless ``info`` is given."""
        prems, uni = tuple(children), self.uniform
        if uni is not None:
            prems, uni = prems[:-1], Uniform(uni.params, prems[-1], uni.sampled)
        return Proof(conclusion, self.rule, prems, uni, dict(self.info) if info is None else info)


@dataclass(frozen=True)
class RulePolicy:
    logic: str = "m"  # m | m-free | template | template-free
    extra_axioms: Optional[Callable[[sx.Formula], bool]] = None
    allow_prop: bool = False
    allow_inf: bool = False
    allow_skolem: bool = False
    allow_pred: bool = False

    @property
    def template(self) -> bool:
        return self.logic.startswith("template")

    @property
    def axiom12_allowed(self) -> bool:
        return not self.logic.endswith("-free")


@dataclass
class CheckError:
    path: tuple
    reason: str

    def __str__(self):
        where = "/".join(str(p) for p in self.path) or "root"
        return f"{where}: {self.reason}"


@dataclass
class CheckReport:
    ok: bool
    height: Optional[int]
    errors: list[CheckError]

    def first_error(self) -> Optional[str]:
        return str(self.errors[0]) if self.errors else None


# ---------------------------------------------------------------------------
# canonical disjunctions


def vee(sentences) -> sx.Formula:
    """Canonical disjunction of a finite set, ordered by code; empty is 0 != 0."""
    items = sorted(set(sentences), key=code_key)
    if not items:
        return sx.FALSUM
    out = items[-1]
    for f in reversed(items[:-1]):
        out = sx.Or(f, out)
    return out


# ---------------------------------------------------------------------------
# element plumbing for schemas


def _bases(y) -> frozenset[str]:
    # the element slots: a constant, a family index and an eps payload
    if isinstance(y, sx.Sealed):
        return bases_of(y.obj)
    if type(y) is sx.Const:
        return frozenset((y.elem.base,)) if isinstance(y.elem, Sym) else sx.EMPTY
    if isinstance(y, sx.FamilyRef):
        out = frozenset((y.index.base,))
        return out if y.payload is None else out | bases_of(y.payload)
    return reduce(or_, map(bases_of, y.children), sx.EMPTY)


# the parameter bases in an object's element slots, cached per node
bases_of = sx.fact("_bs", lambda x: sx.canonical(_bases(x)))


def subst_elem_in_obj(x, base: str, value: Element, memo: dict):
    """Instantiate a parameter base inside every element slot of an object.

    ``memo`` holds the instances already made at ``base := value``; it is
    read and filled at every node level, so each distinct subtree is
    instantiated once per memo. An object whose bases lack the parameter
    is returned as it is, so the copy shares every untouched subtree with
    the original.

    A rebuilt node keeps its original's free variables and template flag,
    when the original's free variables are filled, if each of its children
    is the original's child or keeps that child's: the facts are computed
    from the children's alone. A
    constant, a term family and a ``delta`` tower are closed and
    template-free at every index. An ``eps`` tower whose index becomes
    standard unfolds to its payload, which may be open or hold a box, so
    it keeps neither fact."""
    if base not in bases_of(x):
        return x
    y = memo.get(x)
    if y is None:
        y = memo[x] = _subst_elem(x, base, value, memo)
    return y


def _subst_elem(x, base: str, value: Element, memo: dict):
    if isinstance(x, sx.Sealed):
        y = type(x)(subst_elem_in_obj(x.obj, base, value, memo))
        return _carry(x, y, (x.obj,), (y.obj,))
    if type(x) is sx.Const:
        y = sx.const(subst_base(x.elem, base, value))
    elif isinstance(x, sx.FamilyRef):
        payload = None if x.payload is None else subst_elem_in_obj(x.payload, base, value, memo)
        y = sx.tower(x.family, subst_base(x.index, base, value), payload)
        if payload is not None and not isinstance(y, sx.FamilyRef):
            return y
    else:
        if x.extended:
            raise KernelError(f"cannot instantiate inside {_named(x)}")
        kids = x.children
        news = [subst_elem_in_obj(k, base, value, memo) for k in kids]
        return _carry(x, x.rebuild(*news), kids, news)
    # a constant, a family reference or a tower without payload: closed
    # and template-free
    _set_fv(y, sx.EMPTY)
    _set_tm(y, False)
    return y


# the slots' own setters, which cost a fifth of object.__setattr__
_set_fv, _set_tm = sx.Node._fv.__set__, sx.Node._tm.__set__
_UNSET = object()  # no fact is this, so an unfilled child's slot matches nothing


def _carry(x, y, olds, news):
    """y, which is x over the children ``news`` in place of ``olds``, with
    each of x's free-variable and template facts that every new child
    keeps: it is the child itself or has the child's fact. Nothing is
    carried when x's free variables are unfilled: reading an unfilled slot
    costs several times a filled one, and the checker fills both facts of
    every sentence it reads."""
    fv = getattr(x, "_fv", None)
    if fv is None:
        return y
    tm = getattr(x, "_tm", None)
    for o, n in zip(olds, news):
        if n is not o:
            if fv is not None and getattr(n, "_fv", None) is not getattr(o, "_fv", _UNSET):
                fv = None
            if tm is not None and getattr(n, "_tm", None) is not getattr(o, "_tm", _UNSET):
                tm = None
    if fv is not None:
        _set_fv(y, fv)
    if tm is not None:
        _set_tm(y, tm)
    return y


def subst_param_proof(p: Proof, base: str, value: Element,
                      memo: Optional[dict] = None) -> Proof:
    """Instantiate a parameter base throughout a proof.

    ``memo`` is the instantiation memo for ``base := value`` (see
    ``subst_elem_in_obj``); a checker passes the one it keeps for the
    length of a check, and without one the call starts its own. Equal
    sentences of the copy are one object. A subproof that does not
    mention the parameter, in its sentences or its side data, is returned
    as it is. The call plans for itself; a checker keeps one plan per
    schema and parameter and replays it at every sample.
    """
    return replay_plan(p, plan_instantiation(p, base), base, value,
                       {} if memo is None else memo)


def plan_instantiation(p: Proof, base: str) -> list:
    """The steps that instantiate ``base`` throughout a proof, in fold
    post-order: one ``(node, sentences, moving, kids)`` per subproof that
    the parameter reaches, through a sentence, its side data or a
    subproof. ``sentences`` is the node's conclusion in iteration order,
    ``moving`` the positions of those that mention the parameter and
    ``kids`` the positions of the children that are rebuilt (None when
    the node's two children are one object, folded once). Every other
    subproof is left out, so a replay returns it unvisited."""
    plan: list = []

    def step(q: Proof, moved: list) -> bool:
        sents = tuple(q.conclusion.sentences)
        moving = tuple(i for i, f in enumerate(sents) if base in bases_of(f))
        kids = tuple(k for k, m in enumerate(moved) if m)
        if not (moving or kids or q.info and _side_names(q.info, base)):
            return False
        children = q.children
        if kids and len(children) == 2 and children[0] is children[1]:
            kids = None  # the fold stepped the one child once
        plan.append((q, sents, moving, kids))
        return True

    sx.fold(p, step)
    return plan


def _side_names(info: dict, base: str) -> bool:
    """Does a node's side data name the parameter: a witness, a block
    tuple, a Skolem formula or a certificate line?"""
    def names(a) -> bool:
        return isinstance(a, Sym) and a.base == base

    return (names(info.get("witness")) or any(map(names, info.get("tuple", ())))
            or "skolem" in info and base in bases_of(info["skolem"]["phi"])
            or "prop" in info and any(
                base in bases_of(line.formula)
                or line.just[0] == "ax" and any(base in bases_of(a) for a in line.just[3])
                for line in info["prop"]["cert"].lines))


def replay_plan(p: Proof, plan: list, base: str, value: Element, memo: dict) -> Proof:
    """The proof at ``base := value``, rebuilding the nodes of its plan
    in order through the instantiation memo; p itself when the plan is
    empty."""
    done: list = []
    for q, sents, moving, kids in plan:
        concl = q.conclusion
        if moving:
            new = list(sents)
            for i in moving:
                f = new[i]
                g = memo.get(f)
                if g is None:
                    g = memo[f] = _subst_elem(f, base, value, memo)
                new[i] = g
            concl = Sequent(frozenset(new))
        subs = q.children
        if kids:
            subs = list(subs)
            for k in reversed(kids):
                subs[k] = done.pop()
        elif kids is None:
            subs = [done.pop()] * 2
        info = _subst_info(q, subs, concl, base, value, memo) if q.info else {}
        done.append(q.rebuild(concl, subs, info))
    return done[-1] if plan else p


def _subst_info(q: Proof, subs, concl: Sequent, base: str, value: Element, memo: dict) -> dict:
    """A copy of a rebuilt node's side data at ``base := value``."""
    info = dict(q.info)
    if "witness" in info:
        info["witness"] = subst_base(info["witness"], base, value)
    if "tuple" in info:
        info["tuple"] = tuple(subst_base(a, base, value) for a in info["tuple"])
    if "skolem" in info:
        info["skolem"] = dict(info["skolem"])
        info["skolem"]["phi"] = subst_elem_in_obj(info["skolem"]["phi"], base, value, memo)
    if "prop" in info:
        # a certified node has premises only, so subs are its premises
        hyp_map = {vee(a.conclusion.sentences): vee(b.conclusion.sentences)
                   for a, b in zip(q.premises, subs)}
        inst = partial(subst_elem_in_obj, base=base, value=value, memo=memo)
        info["prop"] = {"cert": _subst_certificate(info["prop"]["cert"], inst, hyp_map,
                                                   vee(concl.sentences))}
    return info


def _subst_certificate(cert, inst: Callable, hyp_map: dict, goal):
    """Replay a certificate under parameter instantiation.

    ``inst`` instantiates one formula through the caller's memo, so a
    formula that recurs across lines is instantiated once. Instantiation
    commutes with the axiom schemes and with modus ponens, so an axiom or
    modus ponens line is its instance, citing the remapped lines, and is
    emitted as it is; the checker re-checks every line at every sample.
    Substitution can disturb the code-canonical disjunction orderings, so
    hypothesis lines are re-derived from the instantiated canonical forms
    and the final line is regrouped onto the instantiated goal.
    """
    from .propcalc import CertBuilder, PropError
    b = CertBuilder()
    remap: dict[int, int] = {}
    for i, line in enumerate(cert.lines):
        f2 = inst(line.formula)
        tag = line.just[0]
        if tag == "hyp":
            canon = hyp_map.get(line.formula)
            if canon is None or canon == f2:
                remap[i] = b.hyp(f2 if canon is None else canon)
            else:
                j = b.hyp(canon)
                k = b.tree_implication(canon, f2)
                remap[i] = b.mp(k, j)
        elif tag == "ax":
            _, scheme, form, args = line.just
            remap[i] = b._emit(f2, ("ax", scheme, form, tuple(map(inst, args))))
        elif tag == "ax-fo":
            remap[i] = b._emit(f2, ("ax-fo",))
        elif tag == "mp":
            _, j, k = line.just
            remap[i] = b._emit(f2, ("mp", remap[j], remap[k]))
        else:
            raise PropError(f"cannot instantiate justification {tag!r}")
    last = remap[len(cert.lines) - 1]
    if b.lines[last].formula != goal:
        k = b.tree_implication(b.lines[last].formula, goal)
        b.mp(k, last)
    return b.certificate(goal)


# ---------------------------------------------------------------------------
# axiom matchers; each returns a parts dict or None


def _closed_term(t) -> bool:
    return isinstance(t, sx.Term) and sx.is_closed(t)  # a term holds no abbreviation


def match_axiom1(s: frozenset, params: frozenset):
    for f in s:
        if isinstance(f, sx.Not) and f.body in s and s == {f.body, f}:
            return {"phi": f.body}
    return None


def match_axiom2(s: frozenset, params: frozenset):
    if len(s) != 1:
        return None
    (f,) = s
    if not (isinstance(f, sx.Not) and isinstance(f.body, sx.Eq)):
        return None
    a, b = sx.const_elem(f.body.left), sx.const_elem(f.body.right)
    if a is None or b is None:
        return None
    # the disequality must survive every instantiation of an active parameter
    for base in list(params) + [None]:
        if not never_equal_under(base, a, b):
            return None
    return {"a": a, "b": b}


def match_axiom3(s: frozenset, params: frozenset):
    if len(s) != 1:
        return None
    (f,) = s
    if isinstance(f, sx.Eq) and f.left == f.right and _closed_term(f.left):
        return {"t": f.left}
    return None


# The matchers of axioms 4-8 read a sequent's one equation and its negated
# equations field by field; none builds the sentence or the set it compares.


def _negated_equation(f) -> bool:
    return type(f) is sx.Not and type(f.body) is sx.Eq


def match_axiom4(s: frozenset, params: frozenset):
    # {t != r, r = t}
    if len(s) != 2:
        return None
    f, g = s
    if type(f) is not sx.Not:
        f, g = g, f
    if not (_negated_equation(f) and type(g) is sx.Eq):
        return None
    t, r = f.body.left, f.body.right
    if g.left == r and g.right == t and _closed_term(t) and _closed_term(r):
        return {"t": t, "r": r}
    return None


def match_axiom5(s: frozenset, params: frozenset):
    # {t != r, r != u, t = u}; t != r is r != u when t, r and u are one term
    eqs = [f for f in s if type(f) is sx.Eq]
    negs = [f for f in s if _negated_equation(f)]
    if len(eqs) != 1 or len(negs) != len(s) - 1 or len(negs) > 2:
        return None
    (e,) = eqs
    for f1 in negs:
        for f2 in negs:
            if f1 is f2 and len(negs) == 2:
                continue
            t, r = f1.body.left, f1.body.right
            r2, u = f2.body.left, f2.body.right
            if r2 == r and e.left == t and e.right == u and all(map(_closed_term, (t, r, u))):
                return {"t": t, "r": r, "s": u}
    return None


def _match_compat(s: frozenset, params: frozenset, head):
    # axioms 6-8: {t_k != t'_k for each argument pair, h(t..) = h(t'..)}
    for f in s:
        if not (isinstance(f, sx.Eq) and isinstance(f.left, head) and isinstance(f.right, head)):
            continue
        pairs = tuple(zip(f.left.children, f.right.children))
        # the other sentences are the disequations of the distinct pairs
        distinct = 1 if len(pairs) == 1 or pairs[0] == pairs[1] else 2
        if (len(s) == distinct + 1
                and all(_negated_equation(g) and (g.body.left, g.body.right) in pairs
                        for g in s if g is not f)
                and all(_closed_term(t) and _closed_term(t2) for t, t2 in pairs)):
            return {"eq": f}
    return None


def _match_ground(s: frozenset, params: frozenset, head):
    # axioms 9-11: {h(c..) = c'}, h's operation taking the named elements to c'
    if len(s) != 1:
        return None
    (f,) = s
    if not (isinstance(f, sx.Eq) and isinstance(f.left, head)):
        return None
    w = sx.const_elem(f.right)
    args = [sx.const_elem(t) for t in f.left.children]
    if w is None or any(a is None for a in args):
        return None
    try:
        return {"eq": f} if sx.OPERATIONS[head](*args) == w else None
    except ElementError:
        return None


def match_axiom12(s: frozenset, params: frozenset):
    if len(s) != 1:
        return None
    (f,) = s
    if (isinstance(f, sx.Ex) and f.index == 0 and isinstance(f.body, sx.Eq)
            and f.body.right == sx.Var(0) and _closed_term(f.body.left)):
        return {"t": f.body.left}
    return None


# every axiom's matcher reads the sequent and the active parameters
_AXIOM_MATCHERS = {
    "axiom1": match_axiom1, "axiom2": match_axiom2, "axiom3": match_axiom3,
    "axiom4": match_axiom4, "axiom5": match_axiom5,
    "axiom12": match_axiom12,
    **{tag: partial(match, head=head) for head, tags in FUNCTION_AXIOMS.items()
       for tag, match in zip(tags, (_match_compat, _match_ground))},
}


def match_axiom(tag: str, s: frozenset, params: frozenset):
    """An axiom's parts, or None; axiomL has no parts and never matches.
    Whether the policy allows the axiom is the checker's question."""
    matcher = _AXIOM_MATCHERS.get(tag)
    return None if matcher is None else matcher(s, params)


# ---------------------------------------------------------------------------
# rule matchers: the principal formula of an inference and its parts
#
# One pure step per inference tag reads a node of the shape its rule asks
# for (the checker tests the shape first) and returns its decomposition, or
# None when no conclusion sentence fits. A step neither recurses nor records
# an error.


def match_instance(f, i: int, psi) -> Optional[list[Element]]:
    """Witnesses a with templ_substitute(f, a, i) == psi; None when impossible.

    An empty list means any element works (v_i is not free). Otherwise
    the one candidate is the constant psi holds where f holds its first
    free v_i, reached down the children in which v_i is free and unbound
    and through boxes; it is returned when substituting it rebuilds psi.
    Raises TemplateError on an abbreviation in f outside a template
    symbol, as templ_substitute does: certificate lines and fragments
    reach here unchecked.
    """
    tp.has_templates(f)
    if i not in sx.free_vars(f):
        return [] if f == psi else None
    a, b = f, psi
    while type(a) is not sx.Var:  # v_i is free in a: a box or an inner node
        if type(a) is not type(b):
            return None
        if isinstance(a, sx.Sealed):
            a, b = a.obj, b.obj
            continue
        kids = a.children
        pos = next(k for k, y in enumerate(kids)
                   if i in sx.free_vars(y) and not (k in a.scope and a.index == i))
        a, b = kids[pos], b.children[pos]
    e = sx.const_elem(b)
    return None if e is None or tp.templ_substitute(f, e, i) != psi else [e]


def block_instance(f, block, values):
    """The matrix of f under its leading existential block, with the
    constant naming values[k] for v_block[k]; None when the block is empty
    or f does not open with it. The constants are closed, so substituting
    them one index at a time equals substituting them together, and every
    subtree without the block's variables is f's own."""
    if not block:
        return None
    for i in block:
        if not (isinstance(f, sx.Ex) and f.index == i):
            return None
        f = f.body
    for i, e in zip(block, values):
        f = tp.templ_substitute(f, e, i)
    return f


def _block_of(p: Proof, f) -> tuple:
    """The indices a rule instantiates at f: i-ex-inf and m-inf name
    them, ex-i and m-rule take f's own quantifier (none when f is not an
    existential)."""
    if p.rule in ("i-ex-inf", "m-inf"):
        return p.info["block"]
    return (f.index,) if isinstance(f, sx.Ex) else ()


def _adds(c: frozenset, d, pc: frozenset, psi) -> bool:
    """The premise is d's context, c without d or c itself, plus psi."""
    return pc == (c - {d}) | {psi} or pc == c | {psi}


def _match_weak(p):
    c, pc = p.conclusion.sentences, p.premises[0].conclusion.sentences
    added = c - pc
    return added if len(added) <= 1 and pc <= c else None


def _match_or_intro(p):
    c, pc = p.conclusion.sentences, p.premises[0].conclusion.sentences
    for d in c:
        if isinstance(d, sx.Or) and _adds(c, d, pc, d.left if p.rule == "or-i1" else d.right):
            return d
    return None


def _match_or_i3(p):
    c = p.conclusion.sentences
    p0, p1 = (q.conclusion.sentences for q in p.premises)
    for d in c:
        if isinstance(d, sx.Not) and isinstance(d.body, sx.Or):
            nf, ng = sx.Not(d.body.left), sx.Not(d.body.right)
            for gamma in (c - {d}, c):
                if p0 == gamma | {nf} and p1 == gamma | {ng}:
                    return d
    return None


def _match_neg_i(p):
    c, pc = p.conclusion.sentences, p.premises[0].conclusion.sentences
    for d in c:
        if isinstance(d, sx.Not) and isinstance(d.body, sx.Not) and _adds(c, d, pc, d.body.body):
            return d
    return None


def _match_cut(p):
    c = p.conclusion.sentences
    left, right = p.premises
    p0, p1 = left.conclusion.sentences, right.conclusion.sentences
    new0, new1 = p0 - c, p1 - c
    if len(new0) == 1 and len(new1) == 1:
        # the common shape: the pivot f and not f each new to the context
        (f,), (g,) = new0, new1
        if len(p0) == len(p1) == len(c) + 1 and type(g) is sx.Not and g.body == f:
            return f
        return None
    for f in new0 or p0:  # the pivot or its negation is in the context
        if p0 == c | {f} and p1 == c | {sx.Not(f)}:
            return f
    return None


def _match_block_instance(p):
    """i-ex-inf, and ex-i with a witness as its one-block case: (d,
    instance) for the d whose instance is the premise's one sentence
    beyond d's context."""
    c, pc = p.conclusion.sentences, p.premises[0].conclusion.sentences
    values = p.info["tuple"] if p.rule == "i-ex-inf" else (p.info["witness"],)
    for d in c:
        inst = block_instance(d, _block_of(p, d), values)
        if inst is not None and _adds(c, d, pc, inst):
            return d, inst
    return None


def _match_ex_i(p):
    """(d, witness), the witness None when any element serves."""
    hint = p.info.get("witness")
    if hint is not None:
        m = _match_block_instance(p)
        return None if m is None else (m[0], hint)
    c, pc = p.conclusion.sentences, p.premises[0].conclusion.sentences
    for d in c:
        if not isinstance(d, sx.Ex):
            continue
        for gamma in (c - {d}, c):
            for psi in pc - gamma or pc:
                if pc == gamma | {psi}:
                    ws = match_instance(d.body, d.index, psi)
                    if ws is not None:
                        return d, (ws[0] if ws else None)
    return None


def _match_schema(p):
    """m-inf, and m-rule as its one-block case: (d, instance) for the
    negated existential d whose block, instantiated at the schema's
    parameters, the schema concludes over d's context."""
    c, u = p.conclusion.sentences, p.uniform
    pc, pivots = u.schema.conclusion.sentences, tuple(map(Sym, u.params))
    for d in c:
        if isinstance(d, sx.Not):
            body = block_instance(d.body, _block_of(p, d.body), pivots)
            if body is not None and _adds(c, d, pc, sx.Not(body)):
                return d, sx.Not(body)
    return None


def match_rule(p: Proof):
    """The principal formula of an inference and its parts, or None.

    weak gives the set of the sentences it adds, at most one; or-i1,
    or-i2, or-i3 and neg-i give the introduced sentence d; cut
    gives its pivot; ex-i gives (d, witness); i-ex-inf, m-rule and m-inf
    give (d, instance). The node must have its rule's premise shape and
    side data."""
    return _RULES[p.rule].match(p)


# ---------------------------------------------------------------------------
# the checker


class _Checker:
    def __init__(self, policy: RulePolicy):
        self.policy = policy
        self.errors: list[CheckError] = []
        # one instantiation memo per (parameter, value), for this check only
        self.instances: dict[tuple[str, Element], dict] = {}
        # id(subproof) -> (subproof, height, params) for each subproof that
        # passed inside the schemas being checked; the entry holds the
        # subproof, so its id is not reused while the entry lives
        self.passed: dict[int, tuple[Proof, int, frozenset]] = {}
        # id(sentence) -> sentence for each sentence object that passed the
        # sequent tests; the entry holds it, so its id is not reused
        self.vetted: dict[int, sx.Formula] = {}
        # (id(schema), base) -> (schema, its instantiation plan)
        self.plans: dict[tuple[int, str], tuple[Proof, list]] = {}

    def fail(self, path, reason: str):
        self.errors.append(CheckError(tuple(path), reason))

    def check(self, p: Proof, path=(), params: frozenset = frozenset()) -> Optional[int]:
        """Returns the height when the subtree checks, else None.

        A subproof that passed under a superset of ``params`` passes again
        with its height, since fewer active parameters never fail a check."""
        entry = self.passed.get(id(p))
        if entry is not None and params <= entry[2]:
            return entry[1]
        pol, vetted = self.policy, self.vetted
        for f in p.conclusion.sentences:
            if id(f) in vetted:
                continue
            try:
                templated = tp.has_templates(f)
            except tp.TemplateError:  # an abbreviation outside a template symbol
                self.fail(path, f"ill-formed template sentence {_named(f)}" if pol.template
                          else f"abbreviation {_named(f)} in a sequent")
                return None
            if not sx.is_closed(f):
                self.fail(path, f"open sentence {_named(f)}")
                return None
            if templated and not pol.template:
                self.fail(path, "template symbol in a ground-logic proof")
                return None
            vetted[id(f)] = f

        rule = _RULES.get(p.rule)
        if rule is None:
            if p.rule not in AXIOM_TAGS:
                self.fail(path, f"unknown rule tag {p.rule!r}")
                return None
            h = self._check_axiom(p, path, params)
        elif rule.gate is not None and not getattr(pol, rule.gate):
            self.fail(path, rule.disabled)
            return None
        else:
            h = rule.handler(self, p, rule, path, params)
        if h is not None and params and entry is None:
            # only new keys are added, so popping back to an earlier length
            # drops exactly the entries added since
            self.passed[id(p)] = (p, h, params)
        return h

    # -- axioms

    def _check_axiom(self, p: Proof, path, params) -> Optional[int]:
        if p.premises or p.uniform:
            self.fail(path, f"{p.rule} takes no premises")
            return None
        c = p.conclusion.sentences
        if p.rule == "axiomL":
            if self.policy.extra_axioms is None:
                self.fail(path, "no extra-axiom oracle in this policy")
                return None
            if len(c) != 1 or not self.policy.extra_axioms(next(iter(c))):
                self.fail(path, "sentence is not an accepted extra axiom")
                return None
            return 0
        if p.rule == "axiom12" and not self.policy.axiom12_allowed:
            self.fail(path, "axiom12 is not available in the free calculus")
            return None
        if match_axiom(p.rule, c, params) is None:
            self.fail(path, f"conclusion does not instantiate {p.rule}")
            return None
        return 0

    # -- inferences; each handler is called with its table row

    def _finite(self, p, rule, path, params):
        """A rule with finitely many premises: its premise count, its
        match, then every premise, each checked even when one before it
        fails, so a report lists the errors of both."""
        if len(p.premises) != rule.premises or p.uniform is not None:
            words = "one premise" if rule.premises == 1 else "two premises"
            self.fail(path, f"{p.rule} takes exactly {words}")
            return None
        if p.rule == "i-ex-inf" and not self._block_info(p, path):
            return None
        if rule.match(p) is None:
            self.fail(path, rule.mismatch)
            return None
        # a plain loop, not a comprehension: a comprehension is one more
        # frame per proof level (before Python 3.12), which cost a third
        # of the height the checker reaches at the default recursion limit
        heights = []
        for i, q in enumerate(p.premises):
            heights.append(self.check(q, path + (i,), params))
        return None if None in heights else max(heights) + 1

    def _block_info(self, p, path) -> bool:
        block, values = p.info.get("block"), p.info.get("tuple")
        if not block or values is None:
            self.fail(path, "block rule needs block indices and a value tuple")
            return False
        if len(set(block)) != len(block) or len(values) != len(block):
            self.fail(path, "block arity mismatch")
            return False
        return True

    def _schema(self, p, rule, path, params):
        """m-inf, and m-rule as its one-block case: one uniform schema over
        fresh parameters, checked once and then at every sample."""
        if p.premises:
            self.fail(path, "non-uniform premise family never checks as complete")
            return None
        no_schema, bad_params, bad_sample = rule.schema_messages
        u = p.uniform
        block = p.info.get("block") if p.rule == "m-inf" else ()
        if u is None or (p.rule == "m-inf" and not block):
            self.fail(path, no_schema)
            return None
        arity = len(block) or 1  # m-rule's one block is its existential's index
        if len(u.params) != arity or len(set(block)) != len(block):
            self.fail(path, bad_params)
            return None
        if not u.sampled:
            self.fail(path, "unsampled uniform schema")
            return None
        if any(len(t) != arity for t in u.sampled):
            self.fail(path, bad_sample)
            return None
        c = p.conclusion.sentences
        used = frozenset().union(*(bases_of(f) for f in c)) if c else frozenset()
        for b in u.params:
            if b in used or b in params:
                self.fail(path, f"parameter {b} is not fresh")
                return None
        if rule.match(p) is None:
            self.fail(path, rule.mismatch)
            return None
        mark = len(self.passed)
        h = self.check(u.schema, path + ("u",), params | set(u.params))
        if h is not None:
            kept = len(self.passed)
            for k, values in enumerate(u.sampled):
                instp = self._instantiate(u.schema, zip(u.params, values), path + ("s", k))
                ok = instp is not None and self.check(instp, path + ("s", k), params) is not None
                # a sample's entries are the nodes its instantiation rebuilt,
                # which no other sample shares
                self._forget(kept)
                if not ok:
                    h = None
                    break
        self._forget(mark)  # the entries of this schema end with it
        return None if h is None else h + 1

    def _forget(self, mark: int):
        """Drop the memo entries added since it held ``mark`` of them."""
        while len(self.passed) > mark:
            self.passed.popitem()

    def _instantiate(self, schema: Proof, assignment, path) -> Optional[Proof]:
        """The schema at one sample; None, with a located error, when a
        sample takes some element of the schema out of the naturals."""
        try:
            for base, e in assignment:
                memo = self.instances.setdefault((base, e), {})
                planned = self.plans.get((id(schema), base))
                if planned is None:
                    planned = self.plans[id(schema), base] = (
                        schema, plan_instantiation(schema, base))
                schema = replay_plan(schema, planned[1], base, e, memo)
        except (ElementError, KernelError) as exc:
            self.fail(path, f"sample does not instantiate the schema: {exc}")
            return None
        return schema

    def _certified(self, p, rule, path, params):
        """prop, and pred with first-order certificates: the conclusion's
        canonical disjunction must be certified from the premises'."""
        from .propcalc import check_certificate
        side = p.info.get("prop")
        if side is None:
            self.fail(path, f"{p.rule} node carries no certificate")
            return None
        cert = side["cert"]
        hyps = {vee(q.conclusion.sentences) for q in p.premises}
        goal = vee(p.conclusion.sentences)
        if not cert.lines or cert.lines[-1].formula != goal:
            self.fail(path, "certificate does not end with the conclusion disjunction")
            return None
        if not check_certificate(cert, hyps.__contains__, first_order=p.rule == "pred"):
            self.fail(path, "certificate rejected")
            return None
        heights = []
        for i, q in enumerate(p.premises):
            h = self.check(q, path + (i,), params)
            if h is None:
                return None
            heights.append(h)
        return (max(heights) if heights else 0) + 1

    def _skolem(self, p, rule, path, params):
        from .skolem import apply_skolem, build_prefixed, is_skolem_operator
        info = p.info.get("skolem")
        if info is None:
            self.fail(path, "skolem node carries no operator data")
            return None
        q, table, phi, samples = info["q"], info["table"], info["phi"], info["samples"]
        if not is_skolem_operator(table, q):
            self.fail(path, "the table is not a Skolem operator for this prefix")
            return None
        if len(samples) != len(p.premises):
            self.fail(path, "one premise per sampled input is required")
            return None
        d = build_prefixed(q, phi)
        c = p.conclusion.sentences
        if d not in c:
            self.fail(path, "conclusion lacks the prefixed sentence")
            return None
        heights = []
        for i, (qp, a) in enumerate(zip(p.premises, samples)):
            want = apply_skolem(phi, q, table, a)
            if not _adds(c, d, qp.conclusion.sentences, want):
                self.fail(path, f"premise {i} is not the Skolem instance at {a}")
                return None
            h = self.check(qp, path + (i,), params)
            if h is None:
                return None
            heights.append(h)
        return (max(heights) if heights else 0) + 1


# ---------------------------------------------------------------------------
# the inference table: one row per tag


@dataclass(frozen=True)
class _Rule:
    """An inference tag's facts. ``handler`` checks its nodes and is passed
    the row; ``match`` is its ``match_rule`` step; a finite rule has its
    premise count; ``mismatch`` is the message when no conclusion sentence
    matches; a uniform rule's ``schema_messages`` are those for no schema,
    parameter arity and sample arity; ``gate`` names the ``RulePolicy``
    flag that enables the rule, and ``disabled`` is the message when it is
    off. The checker tests the gate before the handler."""
    handler: Callable
    match: Optional[Callable] = None
    premises: int = 0
    mismatch: str = ""
    schema_messages: tuple[str, str, str] = ("", "", "")
    gate: Optional[str] = None
    disabled: str = ""


_INF_OFF = "infinite instantiation rules disabled by policy"
_OR_MISMATCH = "no disjunction in the conclusion matches the premise"

_RULES = {
    "weak": _Rule(_Checker._finite, _match_weak, 1, "weakening adds exactly one sentence"),
    "or-i1": _Rule(_Checker._finite, _match_or_intro, 1, _OR_MISMATCH),
    "or-i2": _Rule(_Checker._finite, _match_or_intro, 1, _OR_MISMATCH),
    "or-i3": _Rule(_Checker._finite, _match_or_i3, 2,
                   "premises do not split a negated disjunction"),
    "neg-i": _Rule(_Checker._finite, _match_neg_i, 1, "no double negation matches the premise"),
    "cut": _Rule(_Checker._finite, _match_cut, 2,
                 "premises are not a cut pair over the conclusion"),
    "ex-i": _Rule(_Checker._finite, _match_ex_i, 1,
                  "premise is not an instance of an existential in the conclusion"),
    "m-rule": _Rule(_Checker._schema, _match_schema,
                    mismatch="schema conclusion does not instantiate a negated existential",
                    schema_messages=("m-rule needs a uniform premise schema",
                                     "m-rule binds exactly one parameter",
                                     "m-rule samples are single elements")),
    "prop": _Rule(_Checker._certified, gate="allow_prop", disabled="prop rule disabled by policy"),
    "i-ex-inf": _Rule(_Checker._finite, _match_block_instance, 1,
                      "premise is not a block instance of the conclusion",
                      gate="allow_inf", disabled=_INF_OFF),
    "m-inf": _Rule(_Checker._schema, _match_schema,
                   mismatch="schema conclusion is not a block instance",
                   schema_messages=("m-inf needs a uniform schema and block indices",
                                    "block arity mismatch", "block arity mismatch"),
                   gate="allow_inf", disabled=_INF_OFF),
    "skolem": _Rule(_Checker._skolem, gate="allow_skolem",
                    disabled="skolem rule disabled by policy"),
    "pred": _Rule(_Checker._certified, gate="allow_pred", disabled="pred rule disabled by policy"),
}

RULE_TAGS = AXIOM_TAGS + tuple(_RULES)


def check(p: Proof, policy: RulePolicy = RulePolicy()) -> CheckReport:
    ck = _Checker(policy)
    h = ck.check(p)
    return CheckReport(ok=h is not None and not ck.errors, height=h, errors=ck.errors)


M_POLICY = RulePolicy(logic="m")
M_FREE_POLICY = RulePolicy(logic="m-free")
TEMPLATE_POLICY = RulePolicy(logic="template")


def template_policy_for(lam_oracle) -> RulePolicy:
    """Template logic whose extra axioms are the approximations of an oracle set."""
    return RulePolicy(
        logic="template",
        extra_axioms=lambda f: tp.apprx_member(f, lam_oracle),
    )
