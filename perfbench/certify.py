"""``certify``: the whole pipeline over already generated proofs.

The run is one pass over every proof of ``corpus.base_corpus()`` and
``mprop_entries()``, a seeded set of extra diagram proofs, and a seeded
few corpus proofs with their root conclusion negated, in seeded order.
Proofs are generated during set-up.  Item costs span about 1000x, so the
run is one whole pass, sized to take longer than ``--seconds``: stopping
inside a pass would make throughput depend on where it stopped, and a
second pass would show the corpus to the program twice.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import satkit.syntax as sx
from satkit.corpus import base_corpus, mprop_entries
from satkit.eldiag import prove_eldiag
from satkit.elements import sym
from satkit.kernel import RulePolicy, Sequent, TEMPLATE_POLICY, check, template_policy_for, vee
from satkit.propcalc import expand_pf, extract_hypotheses, pf_height_check, recheck_unlabelled
from satkit.semantics import (
    audit_soundness, delta_structure, free_tower, ground_truth_structure, sc_tower, tr_sigma,
)
from satkit.transform import to_certified_calculus
from satkit.translate import translate_proof

import gen
import reference as ref
from harness import (
    Workload, formula_properties, item, kernel_span, proof_properties, proof_sentences,
)

# Extra diagram proofs per pass: the sentences without refutations that
# 150 draws of the criterion-11 generator (100 true, 50 false: its two
# to one, at half its 300 so that a pass fits a run) hold in expectation,
# by truth and proof size (nodes // 10, capped at 8), because an extra's
# pipeline cost grows with its proof's size.  SIZES counts them among
# 30,000 draws (seeds 0-99 of stream "extra-sizes", each 200 true then
# 100 false, as criterion 11 draws).  One converted refutation takes 1-6 s
# to check, so refutations are left to the corpus's uniform-refutation
# entries.
SIZES = {(True, 0): 412, (True, 1): 3755, (True, 2): 3390, (True, 3): 2586,
         (True, 4): 2084, (True, 5): 2005, (True, 6): 1827, (True, 7): 992,
         (True, 8): 2,
         (False, 1): 418, (False, 2): 369, (False, 3): 235, (False, 4): 146,
         (False, 5): 164, (False, 6): 160, (False, 7): 108, (False, 8): 150}
SIZE_CAP = 8
DRAWS = {True: 20_000, False: 10_000}
EXTRA_DRAWS = {True: 100, False: 50}
EXTRA_COUNTS = {k: round(n * EXTRA_DRAWS[k[0]] / DRAWS[k[0]]) for k, n in SIZES.items()}
NEGATED = 3


def gallery(tr):
    """The structures criterion 6 audits against."""
    return [
        tr.call("semantics.delta_structure", delta_structure, sym("a")),
        tr.call("semantics.sc_tower", sc_tower, "num", sym("h"), sym("a")),
        tr.call("semantics.tr_sigma", tr_sigma, 1),
        tr.call("semantics.ground_truth_structure", ground_truth_structure),
        tr.call("semantics.free_tower", free_tower, sym("a"), sym("b")),
    ]


def certificates(p) -> list:
    return [q.info["prop"]["cert"] for q in ref.nodes(p) if "prop" in q.info]


class Certify(Workload):
    # The items beyond p90 are the same few long corpus proofs in every
    # pass, so the mean over them is as noisy as their speed factors; the
    # percentile sits among items that vary less.
    tail_pct = 90.0
    tail_mean = False

    def setup(self, seed, tr):
        self.rng = gen.stream(seed, "certify")
        corpus = tr.call("corpus.base_corpus", base_corpus)
        mprop = tr.call("corpus.mprop_entries", mprop_entries)
        self.fixed = ([item("corpus", name=e.name, proof=e.proof, policy=e.policy)
                       for e in corpus] +
                      [item("mprop", name=e.name, proof=e.proof, policy=e.policy)
                       for e in mprop])
        self.negatable = [it for it in self.fixed if len(it.proof.conclusion.sentences) == 1]
        self.structures = gallery(tr)
        self.first = self._pass(gen.stream(seed, "certify-extras"), tr)
        self.warm = self._extras(gen.stream(seed, "warmup"), {(True, 1): 1, (True, 2): 1}, tr)

    @staticmethod
    def _extras(rng, counts, tr) -> list:
        """Refutation-free diagram proofs, drawn until each (truth, size)
        class holds its count; a proof of a full class is dropped."""
        wanted, extras = dict(counts), []
        for truth in (True, False):
            while any(n for (t, _), n in wanted.items() if t == truth):
                phi = gen.decidable_sentence(rng, truth)
                if ref.refutation_depth(ref.read_text(ref.to_text(phi)), truth):
                    continue
                proof = tr.call("eldiag.prove_eldiag", prove_eldiag, phi)
                key = (truth, min(ref.proof_shape(proof)[0] // 10, SIZE_CAP))
                if wanted.get(key):
                    wanted[key] -= 1
                    extras.append(item("extra", name="extra", proof=proof,
                                       policy=RulePolicy(), phi=phi, truth=truth))
        return extras

    def _pass(self, rng, tr):
        items = list(self.fixed) + self._extras(rng, EXTRA_COUNTS, tr)
        for it in self.rng.sample(self.negatable, NEGATED):
            (phi,) = it.proof.conclusion.sentences
            flipped = dataclasses.replace(
                it.proof, conclusion=Sequent(frozenset((sx.Not(phi),))))
            items.append(item("negated", name=it.name, proof=flipped, policy=it.policy))
        self.rng.shuffle(items)
        return items

    def warmup(self):
        return self.warm

    def batch(self, n):
        return self.first if n == 0 else []

    def run(self, it, tr):
        p, pol = it.proof, it.policy
        out = item("out", rep=tr.call(kernel_span(pol), check, p, pol))
        if it.kind == "negated" or not out.rep.ok:
            return out
        lam = pol.extra_axioms
        if it.kind == "mprop":
            target = vee(p.conclusion.sentences)
            out.ev = tr.call("propcalc.pf_height_check", pf_height_check,
                             target, out.rep.height + 1, hint=p)
            if out.ev is not None:
                back = tr.call("propcalc.expand_pf", expand_pf, out.ev)
                out.back = back
                out.back_rep = tr.call("kernel.check_prop", check, back,
                                       RulePolicy(allow_prop=True))
            out.certs = []
            for cert in certificates(p):
                hyps = tr.call("propcalc.extract_hypotheses", extract_hypotheses, cert)
                ok = tr.call("propcalc.recheck_unlabelled", recheck_unlabelled,
                             cert, hyps.__contains__)
                out.certs.append((cert, hyps, ok))
        else:
            res = tr.call("translate.translate_proof", translate_proof, p, pol)
            tpol = template_policy_for(lam) if lam else TEMPLATE_POLICY
            out.trep = tr.call(kernel_span(tpol), check, res.proof, tpol)
            out.level, out.chain_len = res.bound_level(), len(res.chain)
            out.translated = res.proof
            out.audits = [tr.call("semantics.audit_soundness", audit_soundness,
                                  res.proof, s, fuel=8) for s in self.structures]
        out.conv = tr.call("transform.to_certified_calculus", to_certified_calculus, p)
        cpol = RulePolicy(allow_prop=True, extra_axioms=lam)
        out.crep = tr.call(kernel_span(cpol), check, out.conv, cpol)
        return out

    def verify(self, it, out):
        if it.kind == "negated":
            return "kernel accepted a negated conclusion" if out.rep.ok else None
        if not out.rep.ok:
            return f"kernel rejected a checked proof: {out.rep.first_error()}"
        if out.rep.height != ref.proof_shape(it.proof)[1]:
            return "reported height differs from the proof tree's"
        if it.kind == "extra":
            want = it.phi if it.truth else sx.Not(it.phi)
            if it.proof.conclusion.sentences != {want}:
                return "diagram proof of the wrong sentence"
        if it.kind == "mprop":
            if out.ev is None:
                return "no finite-height evidence for a checked proof"
            if not (out.back_rep.ok and out.back_rep.height <= 3 * out.ev.level - 2):
                return "expanded evidence fails the 3k - 2 bound or the check"
            for cert, hyps, ok in out.certs:
                if not ok:
                    return "certificate fails against its own hypotheses"
                last = ref.read_text(ref.to_text(cert.lines[-1].formula))
                if not hyps and not ref.tautology(last):
                    return "hypothesis-free certificate ends in a non-tautology"
        else:
            if not out.trep.ok:
                return f"translated proof rejected: {out.trep.first_error()}"
            if not ref.within_g_bound(out.level, out.chain_len):
                return "translation chain exceeds G(height + 1)"
            # criterion 6 holds the corpus to True; on other proofs an
            # audit may run out of fuel, and only False would be unsound
            allowed = ("True",) if it.kind == "corpus" else ("True", "Unknown")
            if any(a.applicable and a.verdict.tag not in allowed for a in out.audits):
                return "an applicable soundness audit is not True"
        if out.conv.conclusion != it.proof.conclusion or not out.crep.ok:
            return "certified-calculus conversion fails to check"
        return None

    def count(self, it, out, c: Counter):
        shape = ref.proof_shape(it.proof)
        proof_properties(c, shape)
        formula_properties(c, proof_sentences(it.proof),
                           min(it.proof.conclusion.sentences, key=ref.to_text))
        checked = [it.proof]
        c["kernel.rejected"] += not out.rep.ok
        if it.kind == "extra":
            c["eldiag.proof_nodes"] += shape[0]
            c["eldiag.uniform_nodes"] += shape[2]
        if hasattr(out, "translated"):
            checked.append(out.translated)
            c["translate.chain_len"] += out.chain_len
            c["semantics.audits_applicable"] += sum(a.applicable for a in out.audits)
        if hasattr(out, "back"):
            checked.append(out.back)
        if hasattr(out, "conv"):
            checked.append(out.conv)
            c["transform.out_nodes"] += ref.proof_shape(out.conv)[0]
            c["propcalc.cert_lines"] += sum(len(x.lines) for x in certificates(out.conv))
        for p in checked:
            nodes, _, _, depth = ref.proof_shape(p)
            c["kernel.proof_nodes"] += nodes
            c["kernel.uniform_depth_max"] = max(c["kernel.uniform_depth_max"], depth)
