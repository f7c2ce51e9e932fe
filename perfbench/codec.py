"""``codec``: sequence and Gödel round trips, checked against the
reference encoder.

Gödel items (a formula with all its subobjects, as criterion 15 checks
them) and sequence items (up to 32 naturals below 2^64, as the bulk
round-trip test draws them) alternate one for one, because criterion 15
and ``test_round_trip_bulk`` each run 10,000 of their kind.  Only
``coding`` and the ``syntax`` walk over subobjects do work here.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

import satkit.syntax as sx
from satkit.coding import godel_decode, godel_encode, seq_decode, seq_encode

import gen
import reference as ref
from harness import Workload, formula_properties, item, schedule

MIX = {"godel": 1, "seq": 1}
BATCH = 60
PREPARED = 6000
WARMUP = 120


class Codec(Workload):
    # An item takes well under 5 ms, so a stall of the machine lifts it
    # into the top few percent: on a shared machine the mean of the top
    # 1%, and the 99th percentile itself, moved by a third between runs.
    # The 95th percentile stays put while stalls hit fewer than 5%.
    tail_pct = 95.0
    tail_mean = False

    def setup(self, seed, tr):
        self.rngs = {"godel": gen.stream(seed, "godel"), "seq": gen.stream(seed, "seq")}
        self.order = schedule(MIX)
        self.pending = deque(self._next() for _ in range(PREPARED))
        warm = {"godel": gen.stream(seed, "warmup-godel"),
                "seq": gen.stream(seed, "warmup-seq")}
        self.warm = [self._item(kind, warm[kind])
                     for kind, _ in zip(schedule(MIX), range(WARMUP))]

    @staticmethod
    def _item(kind, rng):
        if kind == "godel":
            return item(kind, formula=gen.codec_formula(rng))
        return item(kind, items=gen.codec_sequence(rng))

    def _next(self):
        kind = next(self.order)
        return self._item(kind, self.rngs[kind])

    def warmup(self):
        return self.warm

    def batch(self, n):
        return [self.pending.popleft() if self.pending else self._next()
                for _ in range(BATCH)]

    def run(self, it, tr):
        if it.kind == "seq":
            code = tr.call("coding.seq_encode", seq_encode, it.items)
            return code.code, tr.call("coding.seq_decode", seq_decode, code)
        code = tr.call("coding.godel_encode", godel_encode, it.formula)
        back = tr.call("coding.godel_decode", godel_decode, code)
        subs = tr.call("syntax.subobjects", list, sx.subobjects(it.formula))
        sub_codes = [tr.call("coding.godel_encode", godel_encode, s).code for s in subs]
        return code.code, back, subs, sub_codes

    def verify(self, it, out):
        if it.kind == "seq":
            code, back = out
            if code != ref.seq_code(it.items):
                return "sequence code differs from the reference encoder"
            return None if back == it.items else "sequence round trip changed the list"
        code, back, subs, sub_codes = out
        if code != ref.godel_code(it.formula):
            return "Gödel code differs from the reference encoder"
        if back != it.formula:
            return "Gödel round trip changed the formula"
        if any(c != ref.godel_code(s) for s, c in zip(subs, sub_codes)):
            return "a subobject's code differs from the reference encoder"
        if any(c > code for c in sub_codes):
            return "a subobject's code exceeds its host's"
        return None

    def count(self, it, out, c):
        if it.kind == "seq":
            c["coding.digits"] += (out[0].bit_length() + 1) // 2
        else:
            c["coding.symbols"] += (out[0].bit_length() + 3) // 4
            formula_properties(c, [it.formula])

    def acceptance(self):
        """Criterion 15 as it runs: Random(1515), 10k formulas."""
        rng = random.Random(1515)
        start = perf_counter()
        for k in range(10_000):
            f = gen.codec_formula(rng)
            code = godel_encode(f)
            if godel_decode(code) != f or any(
                    godel_encode(s).code > code.code for s in sx.subobjects(f)):
                raise RuntimeError(f"criterion 15 input {k} failed")
        return {"acceptance.c15_margin": 5.0 / (perf_counter() - start)}
