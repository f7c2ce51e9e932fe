"""Constructive proofs of true ground sentences (and refutations of false
ones) in the infinitary calculus.

Equalities are proved by evaluating both sides down to their naming
constants through the compatibility and ground-arithmetic axioms;
disequalities run the same evaluation into the distinct-constants axiom.
A false existential becomes a uniform schema over a fresh parameter, so
its refutation must be structurally uniform in the witness; sentences
whose refutation would need case analysis on the parameter are rejected
rather than approximated.

The decision procedure is the ground model's Tarski evaluator over
affine atoms. It settles an existential by its generic instance first:
a body false at a fresh parameter under every instantiation has no true
instance, so the witness candidates are searched only when that test
fails. Its fresh parameters are named d0, d1, ... and proof
parameters q0, q1, ... from a counter that only proof building advances,
so the names in a proof never depend on how the search went.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import syntax as sx
from .elements import Element, ElementError, Sym, never_equal_under
from .ground_model import FALSE, TRUE, UNKNOWN, Tarski, TruthValue, val, witness_candidates
from .kernel import DEFAULT_SAMPLES, FUNCTION_AXIOMS, Proof, Sequent, Uniform
from .transform import weak_to


class EldiagError(Exception):
    pass


class FuelExhausted(EldiagError):
    pass


class NotUniform(FuelExhausted):
    """The sentence is undecided: either the witness search ran out of
    fuel or its truth is not uniform in an active parameter."""


def _no_value(t: sx.Term):
    raise EldiagError(f"no ground value for {t!r}")


def _single(phi: sx.Formula) -> Sequent:
    return Sequent(frozenset((phi,)))


def _cut(gamma: frozenset, f: sx.Formula, p_with: Proof, p_without: Proof) -> Proof:
    left = weak_to(p_with, gamma | {f})
    right = weak_to(p_without, gamma | {sx.Not(f)})
    return Proof(Sequent(gamma), "cut", (left, right))


@dataclass
class _Prover(Tarski):
    samples: tuple[Element, ...]

    def __post_init__(self):
        self._decided: dict = {}
        # (Ex sentence, params) -> (first true witness, its instance)
        self._witnesses: dict = {}
        self._proof_names = count()
        self._search_names = count()

    # -- uniform three-valued decision under the active parameters

    def decide(self, phi: sx.Formula, params: frozenset) -> TruthValue:
        """TRUE/FALSE when uniform over all parameter instantiations, else
        UNKNOWN."""
        key = (phi, params)
        hit = self._decided.get(key)
        if hit is None:
            hit = Tarski.decide(self, phi, params)
            self._decided[key] = hit
        return hit

    def atom(self, phi: sx.Formula, params: frozenset) -> TruthValue:
        if not isinstance(phi, sx.Eq):
            raise EldiagError(f"decide: non-primitive sentence {phi!r}")
        # parameters ride through as affine elements
        try:
            a, b = val(phi.left, _no_value), val(phi.right, _no_value)
        except ElementError:
            return UNKNOWN
        if a == b:
            return TRUE
        if all(never_equal_under(base, a, b) for base in list(params) + [None]):
            return FALSE
        return UNKNOWN

    def exists(self, phi: sx.Ex, params: frozenset) -> TruthValue:
        """FALSE when the generic instance, the body at a fresh d<n>
        parameter, is; otherwise TRUE at the first witness candidate whose
        instance is TRUE, which is recorded for proof building, and
        UNKNOWN when there is none."""
        if self.at_generic(phi, f"d{next(self._search_names)}", params) is FALSE:
            return FALSE
        r, found = self.first_true(phi.body, phi.index,
                                   witness_candidates(phi.body, self.fuel), params)
        if r is not TRUE:
            return UNKNOWN
        self._witnesses[(phi, params)] = found
        return TRUE

    # -- equality toolkit

    def sym_eq(self, p: Proof, t: sx.Term, r: sx.Term) -> Proof:
        """{t=r} to {r=t}."""
        ax4 = Proof(_single_pair(sx.Not(sx.Eq(t, r)), sx.Eq(r, t)), "axiom4")
        return _cut(frozenset((sx.Eq(r, t),)), sx.Eq(t, r), p, ax4)

    def trans_eq(self, p_tr: Proof, p_rs: Proof,
                 t: sx.Term, r: sx.Term, s: sx.Term) -> Proof:
        """{t=r} and {r=s} to {t=s}."""
        ax5 = Proof(
            Sequent(frozenset((sx.Not(sx.Eq(t, r)), sx.Not(sx.Eq(r, s)), sx.Eq(t, s)))),
            "axiom5")
        step = _cut(frozenset((sx.Not(sx.Eq(t, r)), sx.Eq(t, s))), sx.Eq(r, s), p_rs, ax5)
        return _cut(frozenset((sx.Eq(t, s),)), sx.Eq(t, r), p_tr, step)

    def prove_named(self, t: sx.Term) -> tuple[Element, Proof]:
        """The value a of t together with a proof of {t = c_a}: axiom3 for a
        constant; for h(t..), its arguments named c.. left to right, h's
        compatibility axiom cut on each argument's proof in turn gives
        t = h(c..), which h's ground-operation axiom h(c..) = c_a closes."""
        e = sx.const_elem(t)
        if e is not None:
            return e, Proof(_single(sx.Eq(t, t)), "axiom3")
        axioms = FUNCTION_AXIOMS.get(type(t))
        if axioms is None:
            raise EldiagError(f"cannot name {t!r}")
        args = t.children
        named = [self.prove_named(u) for u in args]
        a = sx.OPERATIONS[type(t)](*(b for b, _ in named))
        consts = [sx.const(b) for b, _ in named]
        image, ca = t.rebuild(*consts), sx.const(a)
        mid = sx.Eq(t, image)
        negs = [sx.Not(sx.Eq(u, c)) for u, c in zip(args, consts)]
        proof = Proof(Sequent(frozenset((*negs, mid))), axioms[0])
        for k, (u, c, (_, pu)) in enumerate(zip(args, consts, named)):
            proof = _cut(frozenset((*negs[k + 1:], mid)), sx.Eq(u, c), pu, proof)
        ground = Proof(_single(sx.Eq(image, ca)), axioms[1])
        return a, self.trans_eq(proof, ground, t, image, ca)

    def prove_eq(self, t: sx.Term, r: sx.Term) -> Proof:
        a, pt = self.prove_named(t)
        b, pr = self.prove_named(r)
        if a != b:
            raise EldiagError("prove_eq on unequal sides")
        ca = sx.const(a)
        flipped = self.sym_eq(pr, r, ca)
        return self.trans_eq(pt, flipped, t, ca, r)

    def refute_eq(self, t: sx.Term, r: sx.Term) -> Proof:
        a, pt = self.prove_named(t)
        b, pr = self.prove_named(r)
        ca, cb = sx.const(a), sx.const(b)
        goal = sx.Not(sx.Eq(t, r))
        c_at = self.sym_eq(pt, t, ca)
        ax5a = Proof(Sequent(frozenset((
            sx.Not(sx.Eq(ca, t)), goal, sx.Eq(ca, r)))), "axiom5")
        d1 = _cut(frozenset((goal, sx.Eq(ca, r))), sx.Eq(ca, t), c_at, ax5a)
        ax5b = Proof(Sequent(frozenset((
            sx.Not(sx.Eq(ca, r)), sx.Not(sx.Eq(r, cb)), sx.Eq(ca, cb)))), "axiom5")
        d2 = _cut(frozenset((sx.Not(sx.Eq(ca, r)), sx.Eq(ca, cb))), sx.Eq(r, cb), pr, ax5b)
        d3 = _cut(frozenset((goal, sx.Eq(ca, cb))), sx.Eq(ca, r), d1, d2)
        ax2 = Proof(_single(sx.Not(sx.Eq(ca, cb))), "axiom2")
        return _cut(frozenset((goal,)), sx.Eq(ca, cb), d3, ax2)

    # -- sentences

    def prove(self, phi: sx.Formula, params: frozenset) -> Proof:
        verdict = self.decide(phi, params)
        if verdict is UNKNOWN:
            raise NotUniform(f"cannot decide {phi!r} uniformly within fuel")
        if verdict is TRUE:
            return self._prove_true(phi, params)
        return self._prove_false(phi, params)

    def _prove_true(self, phi: sx.Formula, params: frozenset) -> Proof:
        if isinstance(phi, sx.Eq):
            return self.prove_eq(phi.left, phi.right)
        if isinstance(phi, sx.Not):
            return self._prove_false(phi.body, params)
        if isinstance(phi, sx.Or):
            if self.decide(phi.left, params) is TRUE:
                sub = self._prove_true(phi.left, params)
                return Proof(_single(phi), "or-i1", (sub,))
            sub = self._prove_true(phi.right, params)
            return Proof(_single(phi), "or-i2", (sub,))
        if isinstance(phi, sx.Ex):
            if self.decide(phi, params) is not TRUE:
                raise FuelExhausted(f"no witness for {phi!r} within fuel")
            e, inst = self._witnesses[(phi, params)]
            sub = self._prove_true(inst, params)
            return Proof(_single(phi), "ex-i", (sub,), info={"witness": e})
        raise EldiagError(f"prove: non-primitive sentence {phi!r}")

    def _prove_false(self, phi: sx.Formula, params: frozenset) -> Proof:
        """A proof of {not phi}."""
        if isinstance(phi, sx.Eq):
            return self.refute_eq(phi.left, phi.right)
        if isinstance(phi, sx.Not):
            sub = self._prove_true(phi.body, params)
            return Proof(_single(sx.Not(phi)), "neg-i", (sub,))
        if isinstance(phi, sx.Or):
            l = self._prove_false(phi.left, params)
            r = self._prove_false(phi.right, params)
            return Proof(_single(sx.Not(phi)), "or-i3", (l, r))
        if isinstance(phi, sx.Ex):
            base = f"q{next(self._proof_names)}"
            generic = sx.substitute(phi.body, sx.const(Sym(base)), phi.index)
            schema = self._prove_false(generic, params | {base})
            uni = Uniform((base,), schema, tuple((e,) for e in self.samples))
            return Proof(_single(sx.Not(phi)), "m-rule", (), uni)
        raise EldiagError(f"refute: non-primitive sentence {phi!r}")


def _single_pair(a: sx.Formula, b: sx.Formula) -> Sequent:
    return Sequent(frozenset((a, b)))


def prove_eldiag(phi: sx.Formula, fuel: int = 200,
                 samples: tuple[Element, ...] = DEFAULT_SAMPLES) -> Proof:
    """A checked proof of {phi} when phi is true, of {not phi} when false.

    phi must be a closed primitive sentence that the ground model decides;
    existential witnesses are searched within fuel, and false existentials
    are discharged by a uniform schema over a fresh parameter.
    """
    if not sx.is_closed(phi):
        raise EldiagError("only sentences have diagram proofs")
    if not sx.is_primitive(phi):
        raise EldiagError("expand abbreviations before proving")
    prover = _Prover(fuel=fuel, samples=samples)
    return prover.prove(phi, frozenset())
