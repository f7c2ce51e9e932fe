"""``diagram``: prove a decidable sentence, then check the proof.

Sentences are drawn as criterion 11 draws them, true and false mixed
with nested quantifiers.  How deeply refuted existentials nest sets an
item's cost (each level multiplies the kernel's sample re-checks); the
number of existentials and, in sentences without refutations, of
successor symbols set much of the rest.  Items are drawn by stratum in
the shares the generator itself produces, interleaved so that every
prefix of the stream holds each stratum in its share.  That keeps
runs of different seeds comparable without changing what an item is.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from time import perf_counter

from satkit.eldiag import prove_eldiag
from satkit.kernel import M_POLICY, check
import satkit.syntax as sx

import gen
import reference as ref
from harness import (
    Workload, formula_properties, item, proof_properties, proof_sentences, schedule,
)

# (truth, refutation depth, existentials capped at 2, successors // 3
# capped at 3, the last only without refutations) -> count among 30k
# sentences of the criterion-11 generator
STRATA = {(True, 0, 0, 0): 950, (True, 0, 1, 0): 3622, (True, 0, 1, 1): 3823,
          (True, 0, 2, 0): 828, (True, 0, 2, 1): 2949, (True, 0, 2, 2): 3165,
          (True, 0, 2, 3): 1727, (True, 1, 1, 0): 1839, (True, 1, 2, 0): 857,
          (True, 2, 2, 0): 240,
          (False, 0, 0, 0): 480, (False, 0, 1, 0): 437, (False, 0, 1, 1): 498,
          (False, 0, 2, 0): 49, (False, 0, 2, 1): 113, (False, 0, 2, 2): 117,
          (False, 0, 2, 3): 33, (False, 1, 1, 0): 4100, (False, 1, 2, 0): 2235,
          (False, 2, 2, 0): 1938}
BATCH = 10
PREPARED = 600  # items taken during set-up; later ones between items
DRAWS = 1500  # sentences drawn during set-up
WARMUP = 20


class Sampler:
    """Sentences from a seeded stream, sorted into strata as drawn."""

    def __init__(self, rng):
        self.rng = rng
        self.queues = defaultdict(deque)

    def draw(self, truth: bool) -> None:
        phi = gen.decidable_sentence(self.rng, truth)
        depth = min(ref.refutation_depth(ref.read_text(ref.to_text(phi)), truth), 2)
        subs = list(sx.subobjects(phi))
        exists = min(sum(isinstance(x, sx.Ex) for x in subs), 2)
        succs = min(sum(isinstance(x, sx.Succ) for x in subs) // 3, 3) if depth == 0 else 0
        self.queues[(truth, depth, exists, succs)].append(phi)

    def fill(self, draws: int) -> None:
        """A fixed number of draws, two true for each false one, so that
        set-up does the same work whatever the seed."""
        for k in range(draws):
            self.draw(k % 3 != 2)

    def take(self, stratum):
        queue = self.queues[stratum]
        while not queue:
            self.draw(stratum[0])
        return queue.popleft()


class Diagram(Workload):
    tail_pct = 95.0

    def setup(self, seed, tr):
        self.sampler = Sampler(gen.stream(seed, "diagram"))
        self.order = schedule(STRATA)
        self.sampler.fill(DRAWS)
        self.pending = deque(self._next() for _ in range(PREPARED))
        warm = Sampler(gen.stream(seed, "warmup"))
        self.warm = [self._item(warm, s) for s, _ in zip(schedule(STRATA), range(WARMUP))]

    @staticmethod
    def _item(sampler, stratum):
        return item("diagram", phi=sampler.take(stratum), truth=stratum[0])

    def _next(self):
        return self._item(self.sampler, next(self.order))

    def warmup(self):
        return self.warm

    def batch(self, n):
        return [self.pending.popleft() if self.pending else self._next()
                for _ in range(BATCH)]

    def run(self, it, tr):
        proof = tr.call("eldiag.prove_eldiag", prove_eldiag, it.phi)
        report = tr.call("kernel.check_m", check, proof, M_POLICY)
        return proof, report

    def verify(self, it, out):
        proof, report = out
        want = {it.phi} if it.truth else {sx.Not(it.phi)}
        if proof.conclusion.sentences != want:
            return "conclusion is not the sentence of the intended truth"
        if not report.ok:
            return f"kernel rejected the diagram proof: {report.first_error()}"
        return None

    def count(self, it, out, c):
        proof, report = out
        shape = ref.proof_shape(proof)
        c["eldiag.proof_nodes"] += shape[0]
        c["eldiag.uniform_nodes"] += shape[2]
        c["kernel.proof_nodes"] += shape[0]
        c["kernel.uniform_depth_max"] = max(c["kernel.uniform_depth_max"], shape[3])
        c["kernel.rejected"] += not report.ok
        proof_properties(c, shape)
        formula_properties(c, proof_sentences(proof), it.phi)

    def acceptance(self):
        """Criterion 11 as it runs: Random(1111), 200 true then 100 false."""
        rng = random.Random(1111)
        start = perf_counter()
        for k in range(300):
            phi = gen.decidable_sentence(rng, k < 200)
            p = prove_eldiag(phi)
            want = {phi} if k < 200 else {sx.Not(phi)}
            if p.conclusion.sentences != want or not check(p, M_POLICY).ok:
                raise RuntimeError(f"criterion 11 input {k} failed")
        return {"acceptance.c11_margin": 30.0 / (perf_counter() - start)}
