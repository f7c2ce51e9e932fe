"""Template structures, their satisfaction relation, soundness audits,
the witness gallery, and finite-stage maximal-consistent fragments.

A structure is a truth oracle for boxed formulas plus a valuation of boxed
terms. Satisfaction is the ground model's ``Tarski`` evaluator with the
structure's atoms. An existential tries its candidates first: 0..fuel,
the structure's declared symbolic elements, then the values of the boxed
terms in its body. A true candidate decides it; it is false only when
every candidate and the body at a generic element are false, and
otherwise Unknown. Free structures may value terms outside the ground
model; their outside bases are excluded from quantifier range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from typing import Callable, Iterable, Optional

from . import syntax as sx
from . import template as tp
from .congruence import QuotientStructure, build_quotient, subterm_closure
from .elements import Element, ElementError, Std, Sym, affine_hits, half, pred
from .ground_model import (FALSE, TRUE, UNKNOWN, Tarski, TruthValue, eval_tr,
                           mentions_family, of_bool, val)
from .kernel import Proof, match_instance

_GENERIC = "generic"


class SemanticsError(Exception):
    pass


class BadWitnessParams(SemanticsError):
    pass


class SoundnessViolation(SemanticsError):
    pass


class OracleUndecided(SemanticsError):
    def __init__(self, sentence, fragment):
        super().__init__(f"oracle undecided on {sentence!r}")
        self.sentence = sentence
        self.fragment = fragment


@dataclass
class TStructure:
    name: str
    t_set: Callable[[sx.Formula], bool]
    t_val: Callable[[sx.Term], Element]
    domain_syms: tuple[Element, ...] = ()
    outside_bases: frozenset[str] = frozenset()

    @property
    def supports_axiom12(self) -> bool:
        # a term valued outside the model has no value for axiom12's witness
        return not self.outside_bases


def val_t(t_struct: TStructure, t: sx.Term) -> Element:
    """Valuation of a closed template term; a homomorphism outside boxes."""

    def leaf(x: sx.Term) -> Element:
        if isinstance(x, tp.TemplTerm):
            return t_struct.t_val(x.obj)
        if isinstance(x, sx.SymTermRef):
            return t_struct.t_val(x)
        raise SemanticsError(f"no valuation for {x!r}")

    return val(t, leaf)


def _eq_truth(t_struct: TStructure, u: Element, w: Element,
              generics: frozenset[str]) -> TruthValue:
    if u == w:
        return TRUE
    if not generics:
        return FALSE
    # a generic base ranges over the whole ground model; decide whether the
    # two affine forms can collide at any in-model value
    for g in generics:
        for a, b in ((u, w), (w, u)):
            if isinstance(a, Sym) and a.base == g:
                if _hits_in_model(t_struct, a, g, b, generics):
                    return UNKNOWN
    return FALSE


def _hits_in_model(t_struct: TStructure, a: Sym, g: str, target: Element,
                   generics: frozenset[str]) -> bool:
    if isinstance(target, Sym) and target.base in t_struct.outside_bases:
        return False  # the target lives outside the model
    if isinstance(target, Sym) and target.base in generics and target.base != g:
        return True  # two independent generics can always collide
    return affine_hits(a, g, target)


@dataclass
class _Satisfaction(Tarski):
    """Satisfaction in a structure: a boxed formula reads the oracle and
    an equation compares val_t values."""

    struct: TStructure

    def atom(self, gamma, params: frozenset) -> TruthValue:
        if isinstance(gamma, tp.TemplForm):
            try:
                return of_bool(bool(self.struct.t_set(gamma.obj)))
            except Exception:
                return UNKNOWN
        if isinstance(gamma, sx.Eq):
            try:
                u = val_t(self.struct, gamma.left)
                w = val_t(self.struct, gamma.right)
            except ElementError:
                return UNKNOWN
            return _eq_truth(self.struct, u, w, params)
        raise SemanticsError(f"cannot evaluate {gamma!r}")

    def exists(self, gamma: sx.Ex, params: frozenset) -> TruthValue:
        # FALSE needs every candidate FALSE and the generic instance too:
        # the oracle may reject a generic box that a candidate satisfies
        s = self.struct
        candidates = dict.fromkeys(chain(
            map(Std, range(self.fuel + 1)), s.domain_syms, _candidate_elems(s, gamma.body)))
        tp.has_templates(gamma.body)  # an abbreviation outside a box raises
        r, _ = self.first_true(gamma.body, gamma.index, candidates, params)
        if r is TRUE:
            return TRUE
        generic = self.at_generic(gamma, f"{_GENERIC}{len(params)}", params)
        return FALSE if r is FALSE and generic is FALSE else UNKNOWN


def models(t_struct: TStructure, gamma, fuel: int = 32) -> TruthValue:
    """Three-valued satisfaction; Unknown only from quantifier exhaustion."""
    return _Satisfaction(fuel, t_struct).decide(gamma, frozenset())


def _candidate_elems(t_struct: TStructure, body) -> list[Element]:
    """Values of the closed boxed terms inside a quantifier body; these are
    the witnesses a structure can actually name."""
    out: list[Element] = []
    _collect_values(t_struct, body, out)
    return [e for e in out if not (isinstance(e, Sym) and e.base in t_struct.outside_bases)]


def _collect_values(t_struct: TStructure, x, out: list) -> None:
    # the values of x's boxed terms, family terms and equation sides
    if isinstance(x, (tp.TemplTerm, sx.SymTermRef)):
        try:
            out.append(val_t(t_struct, x))
        except ElementError:
            pass
        return
    if x.extended:
        return
    if type(x) is sx.Eq:
        for side in (x.left, x.right):
            try:
                out.append(val_t(t_struct, side))
            except (ElementError, SemanticsError):
                pass
    for k in x.children:
        _collect_values(t_struct, k, out)


# ---------------------------------------------------------------------------
# soundness audit


@dataclass
class AuditReport:
    verdict: TruthValue
    applicable: bool
    note: str = ""


def uses_axiom12(q: Proof) -> bool:
    return any(p.rule == "axiom12" for p in sx.subobjects(q))


def audit_soundness(q: Proof, t_struct: TStructure, fuel: int = 32) -> AuditReport:
    """Evaluate the conclusion's disjunction; False is a kernel bug.

    The audit applies only when every extra-axiom leaf is true in the
    structure and the structure supports the existence axiom if used.
    """
    if uses_axiom12(q) and not t_struct.supports_axiom12:
        return AuditReport(UNKNOWN, applicable=False, note="existence axiom unsupported")
    leaves = (lam for p in sx.subobjects(q) if p.rule == "axiomL" for lam in p.conclusion.sentences)
    if any(models(t_struct, lam, fuel) is not TRUE for lam in leaves):
        return AuditReport(UNKNOWN, applicable=False, note="hypothesis not true here")
    disj: Optional[sx.Formula] = None
    for f in sorted(q.conclusion.sentences, key=repr):
        disj = f if disj is None else sx.Or(disj, f)
    if disj is None:
        disj = sx.FALSUM
    verdict = models(t_struct, disj, fuel)
    if verdict is FALSE:
        raise SoundnessViolation(f"checked conclusion false in {t_struct.name}")
    return AuditReport(verdict, applicable=True)


# ---------------------------------------------------------------------------
# the witness gallery


def delta_structure(a: Element, with_ground_truth: bool = False) -> TStructure:
    """Every cofinite stage of the disjunction tower over 0 != 0 is true.

    With with_ground_truth the oracle also holds the decidably true
    sentences, so the structure certifies mixed enumerations and not just
    the tower family itself.
    """
    if not isinstance(a, Sym):
        raise BadWitnessParams("the tower index must be symbolic")
    root = sx.delta(a)

    def family(phi: sx.Formula) -> bool:
        return _levels_below(root, phi) is not None

    if not with_ground_truth:
        return TStructure(f"delta({a})", family, lambda t: Std(0))
    truth = ground_truth_structure()
    return TStructure(
        f"delta({a})+truth",
        lambda phi: family(phi) or truth.t_set(phi),
        truth.t_val,
    )


def _levels_below(root: sx.FamilyRef, x) -> Optional[int]:
    """k when x is root's family at root's index - k, k >= 0, else None."""
    if type(x) is not type(root) or x.family != root.family:
        return None
    a, b = root.index, x.index
    if (b.base, b.coeff) != (a.base, a.coeff) or b.offset > a.offset:
        return None
    return a.offset - b.offset


# the inverse of a term family's head operation, keyed by the head's type
_LEVEL_DOWN = {sx.Succ: pred, sx.Add: half}


def _tower_value(root: sx.SymTermRef, a: Element, t: sx.Term) -> Element:
    """t's value when root's tower is valued at a: the tower k levels below
    root is a stepped down k times by the inverse of its row's head, a
    constant its element, and any other term 0."""
    k = _levels_below(root, t)
    if k is None:
        e = sx.const_elem(t)
        return Std(0) if e is None else e
    down = _LEVEL_DOWN[sx.FAMILIES[root.family].head]
    for _ in range(k):
        a = down(a)
    return a


def sc_tower(family: str, height: Element, a: Element) -> TStructure:
    """A tower with no constants or multiplications at finite depth whose
    every approximation is valued at the target element."""
    row = sx.FAMILIES.get(family)
    if row is None or row.head not in _LEVEL_DOWN:
        raise BadWitnessParams(
            "towers with constants or multiplications at finite depth are "
            "refutable and carry no witness structure")
    if not isinstance(height, Sym) or not isinstance(a, Sym):
        raise BadWitnessParams("tower height and target must be symbolic")
    root = sx.tower(family, height)
    target = sx.Eq(root, sx.const(a))
    return TStructure(
        f"sc_tower({family},{height},{a})",
        lambda phi: phi == target,
        lambda t: _tower_value(root, a, t),
        domain_syms=(a,),
    )


def _ground_value(t: sx.Term) -> Element:
    try:
        return val(t)
    except Exception:
        return Std(0)


def _truth_structure(name: str, classes: tuple[str, ...], fuel: int) -> TStructure:
    """Ground truth as the template oracle: a sentence is true when it is
    true in the first of the classes that admits it. A term takes its
    ground value, 0 when it has none.

    A verdict reads only the sentence, the classes and the fuel, so
    ``t_set`` keeps one per sentence. The memo lives as long as the
    structure: one ``henkin_extend`` run (one ``satkit henkin`` request),
    or every use of a gallery structure that its caller keeps."""

    @cache
    def t_set(phi: sx.Formula) -> bool:
        for cls in classes:
            try:
                return eval_tr(phi, cls, fuel) is TRUE
            except Exception:
                continue
        return False

    return TStructure(name, t_set, _ground_value)


def tr_sigma(k: int, fuel: int = 32) -> TStructure:
    """Truth for the bounded/existential classes as the template oracle."""
    return _truth_structure(f"tr_sigma({k})", ("d0", f"s{k}") if k else ("d0",), fuel)


def quotient_witness(q: QuotientStructure) -> TStructure:
    """Terms valued through the canonical map of a well-defined quotient."""
    if not (q.injective_on_constants and q.surjective_on_universe):
        raise BadWitnessParams("the canonical map must be a bijection here")

    def t_val(t: sx.Term) -> Element:
        e = q.const_of.get(q.find(t)) if t in q.parent else None
        return Std(0) if e is None else e

    def t_set(phi: sx.Formula) -> bool:
        return (isinstance(phi, sx.Eq) and phi.left in q.parent
                and phi.right in q.parent and q.same_class(phi.left, phi.right))

    return TStructure("quotient", t_set, t_val)


def free_tower(a: Element, b: Element) -> TStructure:
    """The numeral tower at a valued outside the model: num(a-k) goes to b-k."""
    if not isinstance(a, Sym) or not isinstance(b, Sym):
        raise BadWitnessParams("both indices must be symbolic")
    if a.base == b.base:
        raise BadWitnessParams("the outside value needs its own base")
    root = sx.numeral(a)

    return TStructure(
        f"free_tower({a},{b})",
        lambda phi: False,
        lambda t: _tower_value(root, b, t),
        outside_bases=frozenset((b.base,)),
    )


# ---------------------------------------------------------------------------
# finite-stage maximal-consistent fragments


@dataclass
class SatFragment:
    decided: dict
    stage_log: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)


ORACLE_FUEL = 32  # the quantifier fuel of each evaluation
ORACLE_DEPTH = 2  # the approximation depth probed


def structure_oracle(t_struct: TStructure):
    """Certify a finite set by making every member true in the structure.

    Truth of the boxed sentence alone is not enough: the branch is only
    certified when its approximations up to the probe depth hold as well,
    since a consistent set must keep every unfolding true.

    A member's verdict reads only the member, the structure, ORACLE_FUEL
    and ORACLE_DEPTH, so the oracle keeps one verdict per sentence and
    tests members left to right up to the first that fails. The memo lives
    as long as the returned oracle: one ``henkin_extend`` run (one
    ``satkit henkin`` request), which asks about each stage's whole set.
    """
    @cache
    def verdict(f: sx.Formula) -> bool:
        if models(t_struct, _boxed(f), ORACLE_FUEL) is not TRUE:
            return False
        for k in range(1, ORACLE_DEPTH + 1):
            chain = tp.full_depth_approx([f], k)
            image = tp.apply_to_object(chain, f)
            if models(t_struct, image, ORACLE_FUEL) is FALSE:
                return False
        return True

    def oracle(sentences: Iterable[sx.Formula]) -> bool:
        return all(map(verdict, sentences))

    return oracle


def _boxed(phi: sx.Formula):
    # evaluate the propositional face structurally, boxing at the leaves
    if isinstance(phi, sx.Not):
        return sx.Not(_boxed(phi.body))
    if isinstance(phi, sx.Or):
        return sx.Or(_boxed(phi.left), _boxed(phi.right))
    return tp.TemplForm(phi)


def ground_truth_structure(fuel: int = 64) -> TStructure:
    return _truth_structure("ground-truth", ("d0", "s1", "s2"), fuel)


def henkin_extend(lam: list[sx.Formula], enumeration: list[sx.Formula],
                  oracle=None, budget: int = 32) -> SatFragment:
    """Finite-stage variant of the maximal-consistent construction.

    Each enumerated sentence is decided by whichever side the oracle
    certifies; an accepted existential immediately receives an accepted
    witness instance. The oracle certifies finite sets (by default against
    ground truth); an uncertifiable pair halts with OracleUndecided.
    """
    if oracle is None:
        oracle = structure_oracle(ground_truth_structure())
    frag = SatFragment(decided={})
    current: list[sx.Formula] = []
    for f in lam:
        frag.decided[f] = True
        current.append(f)
        frag.stage_log.append(("axiom", f, True))

    def accept(phi: sx.Formula, value: bool):
        frag.decided[phi] = value
        current.append(phi if value else sx.Not(phi))
        if isinstance(phi, sx.Not):
            frag.decided.setdefault(phi.body, not value)
        frag.stage_log.append(("decide", phi, value))

    for phi in enumeration:
        if phi in frag.decided:
            frag.stage_log.append(("repeat", phi, frag.decided[phi]))
            continue
        if oracle(current + [phi]):
            accept(phi, True)
        elif oracle(current + [sx.Not(phi)]):
            accept(phi, False)
        else:
            raise OracleUndecided(phi, frag)
        if frag.decided[phi] and isinstance(phi, sx.Ex):
            found = None
            for n in range(budget + 1):
                inst = sx.substitute(phi.body, sx.const(Std(n)), phi.index)
                if oracle(current + [inst]):
                    found = (Std(n), inst)
                    break
            if found is None:
                raise OracleUndecided(phi, frag)
            frag.witnesses[phi] = found[0]
            if found[1] not in frag.decided:
                accept(found[1], True)
    return frag


@dataclass
class ComplianceReport:
    passed: bool
    failures: list[str] = field(default_factory=list)
    quotient: Optional[QuotientStructure] = None


def check_fragment(frag: SatFragment) -> ComplianceReport:
    """Clause compliance of a fragment, restricted to what it decided."""
    failures: list[str] = []

    # negation: a sentence and its negation are decided oppositely
    for f, v in frag.decided.items():
        if isinstance(f, sx.Not) and f.body in frag.decided:
            if v == frag.decided[f.body]:
                failures.append(f"negation clause fails at {f!r}")

    # disjunction: truth of a decided disjunction matches its decided parts
    for f, v in frag.decided.items():
        if isinstance(f, sx.Or):
            lv, rv = frag.decided.get(f.left), frag.decided.get(f.right)
            if lv is not None and rv is not None and v != (lv or rv):
                failures.append(f"disjunction clause fails at {f!r}")

    # existentials: accepted iff some accepted instance
    for f, v in frag.decided.items():
        if not isinstance(f, sx.Ex):
            continue
        has_instance = any(
            w and match_instance(f.body, f.index, g) is not None
            for g, w in frag.decided.items() if not isinstance(g, sx.Ex)
        )
        if v and not has_instance:
            failures.append(f"accepted existential without witness: {f!r}")
        if not v and has_instance:
            failures.append(f"rejected existential with accepted instance: {f!r}")

    # term clauses through the quotient of accepted equations
    eqs = []
    denied = []
    terms: list[sx.Term] = []
    for f, v in frag.decided.items():
        atom = None
        if isinstance(f, sx.Eq):
            atom, truth = f, v
        elif isinstance(f, sx.Not) and isinstance(f.body, sx.Eq):
            atom, truth = f.body, not v
        if atom is None or not sx.is_closed(atom) or mentions_family(atom):
            continue
        (eqs if truth else denied).append((atom.left, atom.right))
        terms.extend((atom.left, atom.right))
    quotient = None
    if terms:
        quotient = build_quotient(eqs, subterm_closure(terms))
        if not quotient.injective_on_constants:
            failures.append("distinct constants identified by accepted equations")
        for t, r in denied:
            if quotient.same_class(t, r):
                failures.append(f"equation both accepted and denied: {t!r} = {r!r}")
    return ComplianceReport(passed=not failures, failures=failures, quotient=quotient)
