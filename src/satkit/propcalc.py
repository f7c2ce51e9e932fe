"""Hilbert-style propositional certificates over negation and disjunction.

The fixed axiomatization has three scheme ids, each with side forms
(recorded in the shipped scheme manifest):

  add   disjunction introduction
        phi -> (phi or psi)  [l]          phi -> (psi or phi)  [r]
  sum   expansion, with commutation admissible rather than axiomatic
        (phi -> psi) -> ((chi or phi) -> (chi or psi))  [rr]
        and the left/commuted variants ll, rc, lc
  cut   the cut-like scheme and its contraction degenerate
        (phi or psi) -> (((not phi) or chi) -> (psi or chi))  [full]
        (phi or phi) -> phi  [contract]

with modus ponens as the only rule; phi -> psi abbreviates (not phi) or psi.
Certificates are numbered lines; a line holds by being an axiom instance,
an accepted hypothesis, or modus ponens from two earlier lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional

from . import syntax as sx
from .ground_model import TRUE, Tarski, TruthValue, of_bool, witness_candidates
from .kernel import AXIOM_TAGS, Proof, Sequent, match_axiom, match_instance, match_rule, vee
from .elements import Std, Sym


class PropError(Exception):
    pass


class Exhausted(PropError):
    pass


def imp(a: sx.Formula, b: sx.Formula) -> sx.Formula:
    return sx.Or(sx.Not(a), b)


# ---------------------------------------------------------------------------
# axiom schemes

SCHEME_FORMS = {
    "add": ("l", "r"),
    "sum": ("rr", "ll", "rc", "lc"),
    "cut": ("full", "contract"),
}


def axiom_instance(scheme: str, form: str, args: tuple) -> sx.Formula:
    if form not in SCHEME_FORMS.get(scheme, ()):
        raise PropError(f"unknown scheme {scheme}/{form}")
    need = 1 if form == "contract" else 2 if scheme == "add" else 3
    if len(args) != need:
        raise PropError(f"{scheme}/{form} takes {need} formulas, found {len(args)}")
    if form == "contract":
        (phi,) = args
        return imp(sx.Or(phi, phi), phi)
    if scheme == "add":
        phi, psi = args
        return imp(phi, sx.Or(phi, psi) if form == "l" else sx.Or(psi, phi))
    phi, psi, chi = args
    if scheme == "cut":
        return imp(sx.Or(phi, psi), imp(sx.Or(sx.Not(phi), chi), sx.Or(psi, chi)))
    # sum: the first letter places phi in the antecedent disjunction, the
    # second says whether psi keeps that place (r, l) or is commuted (c)
    ante = sx.Or(chi, phi) if form in ("rr", "rc") else sx.Or(phi, chi)
    post = sx.Or(chi, psi) if form in ("rr", "lc") else sx.Or(psi, chi)
    return imp(imp(phi, psi), imp(ante, post))


# each scheme's shape stated once, as axiom_instance over the placeholder
# leaves v0, v1, v2, in the order match_prop_axiom tries them
_PATTERNS = tuple(
    (scheme, form, axiom_instance(scheme, form, tuple(map(sx.Var, range(arity)))))
    for scheme, form, arity in (
        ("cut", "contract", 1), ("add", "l", 2), ("add", "r", 2), ("cut", "full", 3),
        ("sum", "rr", 3), ("sum", "ll", 3), ("sum", "rc", 3), ("sum", "lc", 3)))


def _bind(pat, f, found: dict) -> bool:
    """Whether f has the pattern's shape, with one formula for every
    occurrence of a placeholder; ``found`` collects them by index."""
    if type(pat) is sx.Var:
        return found.setdefault(pat.index, f) == f
    return type(f) is type(pat) and all(
        _bind(x, y, found) for x, y in zip(pat.children, f.children))


def match_prop_axiom(f: sx.Formula) -> Optional[tuple[str, str, tuple]]:
    """(scheme, form, args) of the first scheme that f instantiates, or None."""
    for scheme, form, pat in _PATTERNS:
        found: dict = {}
        if _bind(pat, f, found):
            return scheme, form, tuple(found[i] for i in range(len(found)))
    return None


def match_fo_axiom(f: sx.Formula) -> Optional[tuple[str, tuple]]:
    """Quantifier instantiation schemes for the first-order certificates."""
    if not (isinstance(f, sx.Or) and isinstance(f.left, sx.Not)):
        return None
    a, b = f.left.body, f.right
    if isinstance(b, sx.Ex) and match_instance(b.body, b.index, a) is not None:
        return ("ex-intro", (b,))
    if (isinstance(a, sx.Not) and isinstance(a.body, sx.Ex) and isinstance(b, sx.Not)
            and match_instance(a.body.body, a.body.index, b.body) is not None):
        return ("ex-elim-neg", (a.body,))
    return None


def is_axiom(f: sx.Formula, first_order: bool = False) -> bool:
    if match_prop_axiom(f) is not None:
        return True
    return first_order and match_fo_axiom(f) is not None


def scheme_manifest() -> dict:
    return {
        "version": 2,
        "connectives": ["not", "or"],
        "implication": "(not a) or b",
        "rule": "modus ponens",
        "schemes": {
            "add": {
                "l": "phi -> (phi or psi)",
                "r": "phi -> (psi or phi)",
            },
            "sum": {
                "rr": "(phi -> psi) -> ((chi or phi) -> (chi or psi))",
                "ll": "(phi -> psi) -> ((phi or chi) -> (psi or chi))",
                "rc": "(phi -> psi) -> ((chi or phi) -> (psi or chi))",
                "lc": "(phi -> psi) -> ((phi or chi) -> (chi or psi))",
            },
            "cut": {
                "full": "(phi or psi) -> (((not phi) or chi) -> (psi or chi))",
                "contract": "(phi or phi) -> phi",
            },
            "first_order_extras": {
                "ex-intro": "phi[c/v] -> (exists v phi)",
                "ex-elim-neg": "(not exists v phi) -> not phi[c/v]",
            },
        },
    }


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertLine:
    formula: sx.Formula
    just: tuple  # ("hyp",) | ("ax", scheme, form, args) | ("mp", i, k)


@dataclass(frozen=True)
class PropCertificate:
    lines: tuple[CertLine, ...]


def _antecedent(g: sx.Formula) -> Optional[sx.Formula]:
    """h when g is the implication h -> r, that is (not h) or r, else None."""
    if type(g) is sx.Or and type(g.left) is sx.Not:
        return g.left.body
    return None


def certificate_errors(cert: PropCertificate, hyp: Callable[[sx.Formula], bool],
                       first_order: bool = False) -> list[tuple[int, str]]:
    """The located errors of a certificate, in line order, at most one per line.

    Every line must be a sentence. A line that meets its justification
    takes its closedness from it, without a free-variable walk of its own:
    an ``ax`` line that equals its rebuilt instance is closed exactly when
    its arguments are, since the schemes have no binders, and an ``mp``
    line whose cited implication line is closed is closed, being that
    line's right disjunct. Every other line (``hyp`` and ``ax-fo`` lines,
    and any line that fails its justification) is tested for closedness
    first, so ``hyp`` is asked only about sentences.
    """
    lines = cert.lines
    closed: list[bool] = []
    errors: list[tuple[int, str]] = []
    for i, line in enumerate(lines):
        f = line.formula
        tag = line.just[0]
        err = None
        if tag == "ax":
            _, scheme, form, args = line.just
            try:
                if axiom_instance(scheme, form, args) != f:
                    err = "axiom instantiation does not rebuild the line"
            except PropError as e:
                err = str(e)
            if err is None:
                closed.append(all(map(sx.is_closed, args)))
                if not closed[i]:
                    errors.append((i, "line is not a sentence"))
                continue
        elif tag == "mp":
            _, j, k = line.just
            if not (0 <= j < i and 0 <= k < i):
                err = "modus ponens cites a line not before this one"
            else:
                g = lines[j].formula
                if _antecedent(g) != lines[k].formula or g.right != f:
                    err = "cited lines are not an implication pair"
                elif closed[j]:
                    closed.append(True)
                    continue
        closed.append(sx.is_closed(f))
        if not closed[i]:
            err = "line is not a sentence"
        elif tag == "hyp":
            if not hyp(f):
                err = "hypothesis not accepted"
        elif tag == "ax-fo":
            if not first_order:
                err = "first-order axiom in a propositional certificate"
            elif match_fo_axiom(f) is None:
                err = "not a quantifier-instantiation axiom"
        elif tag not in ("ax", "mp"):
            err = f"unknown justification {tag!r}"
        if err is not None:
            errors.append((i, err))
    return errors


def check_certificate(cert: PropCertificate, hyp: Callable[[sx.Formula], bool],
                      first_order: bool = False) -> bool:
    return not certificate_errors(cert, hyp, first_order)


def recheck_unlabelled(cert: PropCertificate, hyp: Callable[[sx.Formula], bool],
                       first_order: bool = False) -> bool:
    """Validity in the justification-free reading: each line is an axiom,
    an accepted hypothesis, or modus ponens from two earlier lines."""
    seen: set[sx.Formula] = set()
    antes: dict[sx.Formula, list] = {}  # r -> every h with h -> r seen so far
    for line in cert.lines:
        f = line.formula
        if not (is_axiom(f, first_order) or hyp(f)
                or any(h in seen for h in antes.get(f, ()))):
            return False
        seen.add(f)
        h = _antecedent(f)
        if h is not None:
            antes.setdefault(f.right, []).append(h)
    return True


def extract_hypotheses(cert: PropCertificate, first_order: bool = False) -> frozenset:
    """The lines that are neither axioms nor modus-ponens results anywhere
    in the certificate. Re-checking against this set fails when a line
    stands as a hypothesis before a later line derives it again."""
    present = {line.formula for line in cert.lines}
    derived = {g.right for g in present if _antecedent(g) in present}
    return frozenset(f for f in present
                     if f not in derived and not is_axiom(f, first_order))


# ---------------------------------------------------------------------------
# truth tables


def prop_atoms(f: sx.Formula) -> list[sx.Formula]:
    out: list[sx.Formula] = []

    def go(g):
        if isinstance(g, sx.Or):
            go(g.left)
            go(g.right)
        elif isinstance(g, sx.Not):
            go(g.body)
        else:
            if g not in out:
                out.append(g)

    go(f)
    return out


@dataclass
class _Row(Tarski):
    """A truth-table row: every part that is not a not or an or is an atom."""

    env: dict

    def atom(self, f: sx.Formula, params: frozenset) -> TruthValue:
        return of_bool(self.env[f])

    exists = atom


def _eval_prop(f: sx.Formula, env: dict) -> bool:
    return _Row(0, env).decide(f, frozenset()) is TRUE


def entails(hyps: Iterable[sx.Formula], goal: sx.Formula) -> bool:
    hyps = list(hyps)
    atoms: list[sx.Formula] = []
    for g in hyps + [goal]:
        for a in prop_atoms(g):
            if a not in atoms:
                atoms.append(a)
    if len(atoms) > 16:
        raise PropError("too many atoms for a truth table")
    for bits in product((False, True), repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        if all(_eval_prop(h, env) for h in hyps) and not _eval_prop(goal, env):
            return False
    return True


def is_tautology(f: sx.Formula) -> bool:
    return entails((), f)


# ---------------------------------------------------------------------------
# certificate search (forward modus-ponens saturation over a small pool)


def _instance_pool(goal: sx.Formula, hyps: list[sx.Formula], widen: int) -> list[sx.Formula]:
    pool: list[sx.Formula] = []

    def push(f):
        if f not in pool:
            pool.append(f)

    for g in [goal] + hyps:
        for sub in sx.subobjects(g):
            if isinstance(sub, sx.Formula):
                push(sub)
    for f in list(pool):
        push(sx.Not(f))
        push(sx.Or(f, f))
    if widen > 1:
        for f in list(pool):
            if isinstance(f, sx.Not):
                push(f.body)
    return pool


def derive_or_search(goal: sx.Formula, hyps: Iterable[sx.Formula],
                     fuel: int = 30_000) -> PropCertificate:
    """Bounded forward search for a certificate of goal from the hypotheses.

    Raises Exhausted when the modus-ponens closure over the instance pool
    does not reach the goal within fuel steps.
    """
    hyps = list(dict.fromkeys(hyps))
    try:
        entailed = entails(hyps, goal)
    except PropError:
        entailed = True  # too many atoms to table; search anyway
    if not entailed:
        # soundness makes non-entailed goals unprovable; skip the search
        raise Exhausted(f"{goal!r} is not a propositional consequence")
    for widen in (1, 2):
        cert = _try_search(goal, hyps, fuel, widen)
        if cert is not None:
            return cert
    raise Exhausted(f"no certificate for {goal!r} within fuel")


def _try_search(goal, hyps, fuel, widen) -> Optional[PropCertificate]:
    pool = _instance_pool(goal, hyps, widen)
    if len(pool) > 44:
        pool = pool[:44]
    origin: dict[sx.Formula, tuple] = {}
    queue: list[sx.Formula] = []

    def admit(f, how):
        if f not in origin:
            origin[f] = how
            queue.append(f)

    for h in hyps:
        admit(h, ("hyp",))
    for phi in pool:
        admit(axiom_instance("cut", "contract", (phi,)),
              ("ax", "cut", "contract", (phi,)))
        for psi in pool:
            admit(axiom_instance("add", "l", (phi, psi)), ("ax", "add", "l", (phi, psi)))
            admit(axiom_instance("add", "r", (phi, psi)), ("ax", "add", "r", (phi, psi)))

    by_ante: dict[sx.Formula, list[sx.Formula]] = {}
    known: set[sx.Formula] = set()
    implications: list[sx.Formula] = []

    def saturate(idx: int) -> int:
        while idx < len(queue) and len(known) < fuel:
            f = queue[idx]
            idx += 1
            if f in known:
                continue
            known.add(f)
            if isinstance(f, sx.Or) and isinstance(f.left, sx.Not):
                implications.append(f)
                by_ante.setdefault(f.left.body, []).append(f)
                if f.left.body in known:
                    admit(f.right, ("mp", f, f.left.body))
            for g in by_ante.get(f, []):
                admit(g.right, ("mp", g, f))
            if goal in known:
                return idx
        return idx

    # the expansion scheme is instantiated only on implications already
    # derived: from A -> B admit ((chi or A) -> ...) through one sum axiom
    idx = saturate(0)
    for _round in range(3):
        if goal in known or len(origin) > 2 * fuel:
            break
        for f in list(implications):
            a, b = f.left.body, f.right
            for chi in pool:
                for form in ("rr", "ll", "rc", "lc"):
                    inst = axiom_instance("sum", form, (a, b, chi))
                    admit(inst, ("ax", "sum", form, (a, b, chi)))
            if len(origin) > 2 * fuel:
                break
        idx = saturate(idx)
    if goal not in known:
        return None

    # rebuild a linear certificate by dependency order
    lines: list[CertLine] = []
    index: dict[sx.Formula, int] = {}

    def emit(f) -> int:
        if f in index:
            return index[f]
        how = origin[f]
        if how[0] == "mp":
            _, impf, ante = how
            j = emit(impf)
            k = emit(ante)
            lines.append(CertLine(f, ("mp", j, k)))
        else:
            lines.append(CertLine(f, how))
        index[f] = len(lines) - 1
        return index[f]

    emit(goal)
    return PropCertificate(tuple(lines))


def one_line(phi: sx.Formula) -> PropCertificate:
    return PropCertificate((CertLine(phi, ("hyp",)),))


# ---------------------------------------------------------------------------
# constructive implication certificates
#
# Deterministic compilation of disjunction-tree entailments, used to turn
# the structural sequent rules into single certified steps. A source tree
# implies a target tree whenever every source leaf occurs as a node of the
# target, possibly behind a double negation.


class CertBuilder:
    def __init__(self):
        self.lines: list[CertLine] = []
        self._memo: dict[sx.Formula, int] = {}

    def _emit(self, formula: sx.Formula, just: tuple) -> int:
        got = self._memo.get(formula)
        if got is not None:
            return got
        self.lines.append(CertLine(formula, just))
        idx = len(self.lines) - 1
        self._memo[formula] = idx
        return idx

    def hyp(self, f: sx.Formula) -> int:
        return self._emit(f, ("hyp",))

    def ax(self, scheme: str, form: str, args: tuple) -> int:
        return self._emit(axiom_instance(scheme, form, args),
                          ("ax", scheme, form, args))

    def mp(self, i_imp: int, i_ante: int) -> int:
        f = self.lines[i_imp].formula
        if _antecedent(f) != self.lines[i_ante].formula:
            raise PropError("modus ponens on a non-implication pair")
        return self._emit(f.right, ("mp", i_imp, i_ante))

    def certificate(self, goal: sx.Formula) -> PropCertificate:
        if not self.lines or self.lines[-1].formula != goal:
            idx = self._memo.get(goal)
            if idx is None:
                raise PropError("the goal was never derived")
            self.lines.append(self.lines[idx])
        return PropCertificate(tuple(self.lines))

    # -- derived steps

    def hs(self, i_ab: int, i_bc: int) -> int:
        """From A -> B and B -> C, the composite A -> C."""
        ab = self.lines[i_ab].formula
        bc = self.lines[i_bc].formula
        a, b = ab.left.body, ab.right
        c = bc.right
        step = self.ax("sum", "rr", (b, c, sx.Not(a)))
        mid = self.mp(step, i_bc)
        return self.mp(mid, i_ab)

    def identity(self, x: sx.Formula) -> int:
        up = self.ax("add", "l", (x, x))
        down = self.ax("cut", "contract", (x,))
        return self.hs(up, down)

    def lem(self, x: sx.Formula) -> int:
        """x or (not x), which doubles as (not x) -> ... bridges."""
        contract = self.ax("cut", "contract", (x,))
        step = self.ax("sum", "rc", (sx.Or(x, x), x, sx.Not(x)))
        lifted = self.mp(step, contract)
        seed = self.ax("add", "l", (x, x))
        return self.mp(lifted, seed)

    def _node_to_tree(self, node: sx.Formula, tree: sx.Formula) -> int:
        """node -> tree when node occurs in the tree, maybe doubly negated."""
        if tree == node:
            return self.identity(node)
        if _doubly_negates(tree, node):
            return self.lem(sx.Not(node))  # literally node -> not not node
        if isinstance(tree, sx.Or):
            if _tree_contains(tree.left, node):
                inner = self._node_to_tree(node, tree.left)
                step = self.ax("add", "l", (tree.left, tree.right))
                return self.hs(inner, step)
            if _tree_contains(tree.right, node):
                inner = self._node_to_tree(node, tree.right)
                step = self.ax("add", "r", (tree.right, tree.left))
                return self.hs(inner, step)
        raise PropError(f"{node!r} has no place in the target tree")

    def tree_implication(self, x: sx.Formula, t: sx.Formula) -> int:
        """x -> t by splitting x's disjunction tree into placed leaves."""
        if _tree_contains(t, x):
            return self._node_to_tree(x, t)
        if isinstance(x, sx.Or):
            i_l = self.tree_implication(x.left, t)
            i_r = self.tree_implication(x.right, t)
            step = self.ax("sum", "ll", (x.left, t, x.right))
            half = self.mp(step, i_l)          # (x.left or x.right) -> (t or x.right)
            step2 = self.ax("sum", "rc", (x.right, t, t))
            collapse = self.mp(step2, i_r)     # (t or x.right) -> (t or t)
            contract = self.ax("cut", "contract", (t,))
            return self.hs(self.hs(half, collapse), contract)
        return self._node_to_tree(x, t)

    def cut_step(self, i_pos: int, i_neg: int, pivot: sx.Formula,
                 rest: sx.Formula) -> int:
        """From pivot-or-rest and (not pivot)-or-rest, derive rest."""
        step = self.ax("cut", "full", (pivot, rest, rest))
        once = self.mp(step, i_pos)
        doubled = self.mp(once, i_neg)
        contract = self.ax("cut", "contract", (rest,))
        return self.mp(contract, doubled)


def _doubly_negates(tree: sx.Formula, node: sx.Formula) -> bool:  # == Not(Not(node))
    return type(tree) is sx.Not and type(tree.body) is sx.Not and tree.body.body == node


def _tree_contains(tree: sx.Formula, node: sx.Formula) -> bool:
    if tree == node or _doubly_negates(tree, node):
        return True
    return isinstance(tree, sx.Or) and (
        _tree_contains(tree.left, node) or _tree_contains(tree.right, node))


def weakening_cert(source: sx.Formula, target: sx.Formula) -> PropCertificate:
    """Certificate of target from the single hypothesis source."""
    b = CertBuilder()
    i_hyp = b.hyp(source)
    i_imp = b.tree_implication(source, target)
    b.mp(i_imp, i_hyp)
    return b.certificate(target)


def cut_cert(pos: sx.Formula, neg: sx.Formula, pivot: sx.Formula,
             target: sx.Formula) -> PropCertificate:
    """Certificate of target from hypotheses containing pivot and its
    negation respectively, both otherwise inside the target."""
    b = CertBuilder()
    i1 = b.mp(b.tree_implication(pos, sx.Or(pivot, target)), b.hyp(pos))
    i2 = b.mp(b.tree_implication(neg, sx.Or(sx.Not(pivot), target)), b.hyp(neg))
    b.cut_step(i1, i2, pivot, target)
    return b.certificate(target)


def split_negation_cert(pos_f: sx.Formula, pos_g: sx.Formula,
                        f: sx.Formula, g: sx.Formula,
                        target: sx.Formula) -> PropCertificate:
    """Certificate of target (containing not(f or g)) from two hypotheses
    containing not f and not g respectively."""
    b = CertBuilder()
    d = sx.Or(f, g)
    i_lem = b.lem(d)  # (f or g) or not(f or g)
    mid = sx.Or(g, target)
    x1 = b.mp(b.tree_implication(sx.Or(d, sx.Not(d)), sx.Or(f, mid)), i_lem)
    y1 = b.mp(b.tree_implication(pos_f, sx.Or(sx.Not(f), mid)), b.hyp(pos_f))
    got_mid = b.cut_step(x1, y1, f, mid)
    y2 = b.mp(b.tree_implication(pos_g, sx.Or(sx.Not(g), target)), b.hyp(pos_g))
    b.cut_step(got_mid, y2, g, target)
    return b.certificate(target)


# ---------------------------------------------------------------------------
# finite-height provability predicates


PF_SAMPLES = (Std(0), Std(1), Std(2), Std(17), Sym("pf"))
PF_WITNESS_BOUND = 24  # the witness search bound at an existential disjunct


@dataclass
class PfEvidence:
    kind: str  # "axiom" | "prop" | "ex" | "all"
    phi: sx.Formula
    level: int
    parts: tuple = ()
    data: dict | None = None


def _spine_splits(phi: sx.Formula):
    """Candidate finite sets whose canonical disjunction is phi."""
    yield frozenset((phi,))
    parts: list[sx.Formula] = []
    rest = phi
    while isinstance(rest, sx.Or):
        parts.append(rest.left)
        rest = rest.right
        cand = frozenset(parts + [rest])
        if vee(cand) == phi:
            yield cand


def _axiom_disjunction(phi: sx.Formula) -> Optional[frozenset]:
    for cand in _spine_splits(phi):
        for tag in AXIOM_TAGS:
            if match_axiom(tag, cand, frozenset()) is not None:
                return cand
    return None


def pf_height_check(phi: sx.Formula, k: int,
                    hint: Optional[Proof] = None) -> Optional[PfEvidence]:
    """Arithmetized finite-height provability, mirrored recursively.

    Level 1 accepts exactly the axiom disjunctions. Level k+1 accepts
    propositional consequences of level-k sentences, an instantiated
    existential disjunct, or a negated existential whose sampled instances
    all pass level k. Returns evidence usable for proof expansion, or None.
    """
    if k < 1:
        raise PropError("levels start at 1")
    if k == 1:
        cand = _axiom_disjunction(phi)
        if cand is None:
            return None
        return PfEvidence("axiom", phi, 1, data={"set": cand})

    if hint is not None:
        ev = _pf_from_proof(phi, k, hint)
        if ev is not None:
            return ev

    # existential disjunct
    for cand in _spine_splits(phi):
        for d in cand:
            if isinstance(d, sx.Ex):
                rest = cand - {d}
                for w in witness_candidates(d.body, PF_WITNESS_BOUND):
                    inst = sx.substitute(d.body, sx.const(w), d.index)
                    sub = pf_height_check(vee(rest | {inst}), k - 1)
                    if sub is not None:
                        return PfEvidence("ex", phi, k, (sub,),
                                          {"d": d, "w": w, "rest": rest})
            if isinstance(d, sx.Not) and isinstance(d.body, sx.Ex):
                rest = cand - {d}
                subs = []
                for e in PF_SAMPLES:
                    inst = sx.Not(sx.substitute(d.body.body, sx.const(e), d.body.index))
                    sub = pf_height_check(vee(rest | {inst}), k - 1)
                    if sub is None:
                        subs = None
                        break
                    subs.append(sub)
                if subs is not None:
                    return PfEvidence("all", phi, k, tuple(subs), {"d": d, "rest": rest})

    # propositional consequence of level k-1 sentences
    hyp_pool = []
    for cand in _spine_splits(phi):
        for d in cand:
            if d not in hyp_pool:
                hyp_pool.append(d)
    passing = []
    for h in hyp_pool:
        sub = pf_height_check(h, k - 1)
        if sub is not None:
            passing.append((h, sub))
    lower = pf_height_check(phi, k - 1)
    if lower is not None:
        passing.append((phi, lower))
    try:
        cert = derive_or_search(phi, [h for h, _ in passing])
    except Exhausted:
        return None
    used = extract_hypotheses(cert)
    parts = tuple(sub for h, sub in passing if h in used)
    if not all(any(h == g for g, _ in passing) for h in used):
        return None
    return PfEvidence("prop", phi, k, parts,
                      {"cert": cert, "hyps": tuple(h for h, _ in passing if h in used)})


def _pf_from_proof(phi: sx.Formula, k: int, p: Proof) -> Optional[PfEvidence]:
    """Witness the provability predicate along an existing proof tree."""
    if vee(p.conclusion.sentences) != phi:
        return None
    if k == 1:
        return pf_height_check(phi, 1)
    if p.rule == "prop" and "prop" in p.info:
        subs = []
        hyps = []
        for q in p.premises:
            h = vee(q.conclusion.sentences)
            sub = _pf_from_proof(h, k - 1, q)
            if sub is None:
                return None
            subs.append(sub)
            hyps.append(h)
        return PfEvidence("prop", phi, k, tuple(subs),
                          {"cert": p.info["prop"]["cert"], "hyps": tuple(hyps)})
    if p.rule in AXIOM_TAGS and p.rule != "axiomL":
        low = pf_height_check(phi, 1)
        if low is None:
            return None
        return PfEvidence("prop", phi, k, (low,),
                          {"cert": one_line(phi), "hyps": (phi,)})
    # the kernel's decomposition; the premise's context, c without d or c
    # itself when the premise keeps d, is c & pc
    c = p.conclusion.sentences
    found = match_rule(p) if p.rule == "ex-i" and len(p.premises) == 1 else None
    if found is not None:
        (d, w), q = found, p.premises[0]
        sub = _pf_from_proof(vee(q.conclusion.sentences), k - 1, q)
        if sub is None:
            return None
        return PfEvidence("ex", phi, k, (sub,),
                          {"d": d, "w": Std(0) if w is None else w,
                           "rest": c & q.conclusion.sentences})
    found = match_rule(p) if p.rule == "m-rule" and p.uniform is not None else None
    if found is not None:
        from .kernel import block_instance, subst_param_proof
        d, u = found[0], p.uniform
        rest = c & u.schema.conclusion.sentences
        subs = []
        for (e,) in u.sampled:
            inst = sx.Not(block_instance(d.body, (d.body.index,), (e,)))
            sub = _pf_from_proof(vee(rest | {inst}), k - 1,
                                 subst_param_proof(u.schema, u.params[0], e))
            if sub is None:
                return None
            subs.append(sub)
        return PfEvidence("all", phi, k, tuple(subs), {"d": d, "rest": rest, "uniform": u})
    return None


def _prop_join(p: Proof, phi: sx.Formula) -> Proof:
    """One certified step from a set conclusion to its singleton disjunction."""
    if p.conclusion.sentences == frozenset((phi,)):
        return p
    assert vee(p.conclusion.sentences) == phi
    return Proof(Sequent(frozenset((phi,))), "prop", (p,),
                 info={"prop": {"cert": one_line(phi)}})


def expand_pf(ev: PfEvidence) -> Proof:
    """Rebuild a checked proof from provability evidence.

    The height of the result stays within 3k - 2 for level-k evidence.
    """
    if ev.kind == "axiom":
        cand = ev.data["set"]
        tag = next(t for t in AXIOM_TAGS if match_axiom(t, cand, frozenset()) is not None)
        return _prop_join(Proof(Sequent(cand), tag), ev.phi)
    if ev.kind == "prop":
        prems = tuple(expand_pf(sub) for sub in ev.parts)
        cert = ev.data["cert"]
        return Proof(Sequent(frozenset((ev.phi,))), "prop", prems,
                     info={"prop": {"cert": cert}})
    if ev.kind == "ex":
        sub = expand_pf(ev.parts[0])  # proves the singleton of the instance vee
        d, w, rest = ev.data["d"], ev.data["w"], ev.data["rest"]
        inst = sx.substitute(d.body, sx.const(w), d.index)
        split = frozenset(rest | {inst})
        inner = sub
        if inner.conclusion.sentences != split:
            inner = Proof(Sequent(split), "prop", (sub,),
                          info={"prop": {"cert": one_line(vee(split))}})
        stepped = Proof(Sequent(frozenset(rest | {d})), "ex-i", (inner,),
                        info={"witness": w})
        return _prop_join(stepped, ev.phi)
    if ev.kind == "all":
        uni = ev.data.get("uniform")
        if uni is None:
            raise PropError("sampled evidence cannot rebuild a uniform schema")
        d, rest = ev.data["d"], ev.data["rest"]
        inner = Proof(Sequent(frozenset(rest | {d})), "m-rule", (), uni)
        return _prop_join(inner, ev.phi)
    raise PropError(f"cannot expand {ev.kind} evidence")
