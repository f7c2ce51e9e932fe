"""Set-up, warm-up, the timed phase, and the metrics the run prints.

One process, one thread, closed loop: the next item starts when the
previous one is done.  An item's latency is the wall time of its calls
into satkit; generating inputs and checking answers happen between
items, outside the clock.  The timed phase ends at the first batch
boundary after the items' summed latency reaches ``--seconds``.

Every reported time is divided by the machine speed factor near it (see
``Speed``), so times are in seconds of the machine ``calibrate.REF_S`` was
taken on; the details line keeps the factors and the wall-clock figures.
Set-up is timed in fresh processes, one set-up each.
"""

from __future__ import annotations

import bisect
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter
from pathlib import Path
from types import SimpleNamespace

import satkit.syntax as sx

import calibrate
import reference as ref
from spans import Tracer

SETUP_REPEATS = 3


class Speed:
    """How fast this machine runs plain Python during the run.

    On a machine shared with other tenants the same code runs up to about
    40% slower for stretches of seconds to minutes, which would swamp the
    differences between two commits.  Between items, after every
    ``EVERY_S`` seconds of measured work, the run times the frozen work in
    ``calibrate``, which shares no code with satkit or with the oracles.
    An interval's factor is the median of the samples taken within
    ``NEAR_S`` of it, or within its own length if that is longer (the
    three nearest if fewer), over ``calibrate.REF_S``.
    """

    EVERY_S = 0.1
    NEAR_S = 0.5

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.pending = 0.0

    def sample(self) -> None:
        self.times.append(perf_counter())
        self.samples.append(calibrate.sample())
        self.pending = 0.0

    def worked(self, seconds: float) -> None:
        self.pending += seconds
        if self.pending >= self.EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """The machine's slow-down over [start, end]; 1.0 is the speed
        ``calibrate.REF_S`` was taken at."""
        near = max(self.NEAR_S, end - start)  # long intervals look wider
        lo = bisect.bisect_left(self.times, start - near)
        hi = bisect.bisect_right(self.times, end + near)
        if hi - lo < 3:  # too few samples near: take the three nearest
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo, hi = max(mid - 2, 0), min(mid + 1, len(self.times))
        return statistics.median(self.samples[lo:hi]) / calibrate.REF_S

    def run_factor(self) -> float:
        return statistics.median(self.samples) / calibrate.REF_S


def item(kind: str, **fields) -> SimpleNamespace:
    return SimpleNamespace(kind=kind, **fields)


def schedule(weights: dict):
    """Smooth weighted round robin over the keys of ``weights``: every
    prefix of the sequence is within one draw of each key's share."""
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0)
    while True:
        for k, w in weights.items():
            credit[k] += w
        pick = max(credit, key=credit.get)
        credit[pick] -= total
        yield pick


def kernel_span(policy) -> str:
    """Span name of a kernel check, by the calculus its policy selects."""
    if policy.template:
        return "kernel.check_template"
    return "kernel.check_prop" if policy.allow_prop else "kernel.check_m"


class Workload:
    """One workload: seeded inputs, the calls an item makes, and the
    independent answer each item is checked against."""

    # item kinds whose failures are defects the benchmark keeps visible
    known_defects: frozenset[str] = frozenset()
    # the highest percentile with at least ten samples beyond it in a run
    # at today's speed; fixed, so that a faster program is not measured
    # at a different percentile
    tail_pct: float = 95.0
    # latency_tail_ms is the mean of the samples from tail_pct up, or, if
    # False, the latency at tail_pct itself
    tail_mean: bool = True

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int, tr: Tracer) -> None:
        raise NotImplementedError

    def warmup(self) -> list:
        raise NotImplementedError

    def batch(self, n: int) -> list:
        """The n-th batch of timed items; empty when the workload is done."""
        raise NotImplementedError

    def run(self, it, tr: Tracer):
        raise NotImplementedError

    def verify(self, it, out) -> str | None:
        """None when the verdict is right, else why it is not."""
        raise NotImplementedError

    def count(self, it, out, c: Counter) -> None:
        """Work and input-property counts, from inputs and outputs."""

    def acceptance(self) -> dict[str, float]:
        """Acceptance-budget margins this workload reproduces."""
        return {}


# ---------------------------------------------------------------------------
# input properties (satellite counts), from inputs and outputs only


def proof_properties(c: Counter, shape: tuple[int, int, int, int]) -> None:
    nodes, _, _, depth = shape
    c["in.proof_items"] += 1
    c["in.proof_nodes"] += nodes
    c["in.nested_items"] += depth >= 2
    c["in.uniform_depth_max"] = max(c["in.uniform_depth_max"], depth)


def proof_sentences(p) -> list:
    return [f for q in ref.nodes(p) for f in q.conclusion.sentences]


def formula_properties(c: Counter, formulas, main=None) -> None:
    """Sharing over ``formulas``; size of ``main`` (default: the first)."""
    seen: set = set()
    occurrences = 0
    for f in formulas:
        for sub in sx.subobjects(f):
            occurrences += 1
            seen.add(sub)
    if main is None and formulas:
        main = formulas[0]
    if main is not None:
        c["in.formula_items"] += 1
        c["in.formula_size"] += sum(1 for _ in sx.subobjects(main))
    c["in.distinct"] += len(seen)
    c["in.occurrences"] += occurrences


# ---------------------------------------------------------------------------
# per-layer metrics: span sums by name prefix, self times, counts

SPAN_SUMS = {
    "coding.seq_encode_s": ("coding.seq_encode",),
    "coding.seq_decode_s": ("coding.seq_decode",),
    "coding.godel_encode_s": ("coding.godel_encode",),
    "coding.godel_decode_s": ("coding.godel_decode",),
    "eldiag.prove_s": ("eldiag.prove_eldiag",),
    "kernel.check_m_s": ("kernel.check_m",),
    "kernel.check_template_s": ("kernel.check_template",),
    "kernel.check_prop_s": ("kernel.check_prop",),
    "translate.s": ("translate.translate_proof",),
    "transform.to_certified_s": ("transform.to_certified_calculus",),
    "propcalc.pf_height_s": ("propcalc.pf_height_check",),
    "propcalc.check_cert_s": ("propcalc.check_certificate", "propcalc.recheck_unlabelled"),
    "semantics.audit_s": ("semantics.audit_soundness",),
    "semantics.henkin_s": ("semantics.henkin_extend",),
    "semantics.models_s": ("semantics.models", "semantics.val_t"),
    "template.apply_chain_s": ("template.apply_chain", "template.apply_to_object"),
    "ground_model.eval_tr_s": ("ground_model.eval_tr",),
    "congruence.quotient_s": ("congruence.",),
    "skolem.search_s": ("skolem.find_skolem_table",),
    "sexpr.parse_s": ("sexpr.parse", "sexpr.read"),
    "sexpr.print_s": ("sexpr.print",),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metric(name: str, tr: Tracer, totals, selfs, c: Counter,
                 extra: dict) -> float:
    if name in extra:
        return extra[name]
    if name in SPAN_SUMS:
        prefixes = SPAN_SUMS[name]
        return sum(t for span, t in totals.items() if span.startswith(prefixes))
    if name.endswith(".self_s"):
        return selfs.get(name[:-len(".self_s")], 0.0)
    if name.startswith("cli.") and name.endswith("_s"):
        return totals.get(name[:-2], 0.0)
    if name == "kernel.nodes_per_s":
        busy = sum(t for span, t in totals.items() if span.startswith("kernel.check"))
        return _ratio(c["kernel.proof_nodes"], busy)
    derived = {
        "input.proof_nodes": lambda: _ratio(c["in.proof_nodes"], c["in.proof_items"]),
        "input.uniform_depth_max": lambda: c["in.uniform_depth_max"],
        "input.nested_share": lambda: _ratio(c["in.nested_items"], c["in.items"]),
        "input.formula_size": lambda: _ratio(c["in.formula_size"], c["in.formula_items"]),
        "input.sharing_ratio": lambda: _ratio(c["in.distinct"], c["in.occurrences"]),
        "trace.spans": lambda: len(tr.spans),
    }
    if name in derived:
        return derived[name]()
    return c[name]


# ---------------------------------------------------------------------------
# the run


def latency_stats(lat: list[float], pct: float) -> dict:
    """Median, the workload's tail percentile, which is chosen so that at
    least ten samples lie beyond it, and the mean of the samples from that
    percentile up.  One order statistic in the tail moves with which few
    inputs a seed puts there; the mean over them moves far less."""
    ordered = sorted(lat)
    n = len(ordered)
    k = min(int(n * pct / 100), n - 1)
    return {"p50_ms": statistics.median(ordered) * 1e3,
            "tail_ms": ordered[k] * 1e3,
            "tail_mean_ms": statistics.fmean(ordered[k:]) * 1e3,
            "tail_pct": pct,
            "beyond_tail": n - k - 1,
            "samples": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_phase(wl: Workload, seconds: float, tr: Tracer, speed: Speed,
                counts: Counter | None):
    gc.collect()  # start with no garbage left over from set-up
    lat: list[float] = []
    timed: list[tuple[float, float, str]] = []
    failures: list[tuple[str, str]] = []
    batches = 0
    while sum(lat) < seconds:
        todo = wl.batch(batches)
        if not todo:
            break
        for it in todo:
            tr.item = len(lat)
            start = perf_counter()
            try:
                out = tr.call("bench.item", wl.run, it, tr)
            except Exception as exc:  # an item that raises is a failed item
                out = exc
            lat.append(perf_counter() - start)
            timed.append((start, lat[-1], it.kind))
            speed.worked(lat[-1])
            why = (f"raised {type(out).__name__}: {out}" if isinstance(out, Exception)
                   else wl.verify(it, out))
            if why is not None:
                failures.append((it.kind, why))
            if counts is not None:
                counts["in.items"] += 1
                if not isinstance(out, Exception):
                    wl.count(it, out, counts)
        batches += 1
    for _ in range(3):  # samples after the last items, for their factors
        speed.sample()
    tr.item = "done"
    return timed, failures, batches


def summary(wl: Workload, speed: Speed, timed, failures) -> dict:
    """Counts and latency figures; ``timed`` holds (start, wall, kind) per
    item."""
    lat = [t / speed.factor(s, s + t) for s, t, _ in timed]
    wall = [t for _, t, _ in timed]
    run_factor = speed.run_factor()
    attempted = len(lat)
    right = attempted - len(failures)
    by_kind = Counter(kind for kind, _ in failures)
    kind_time: Counter = Counter()
    kind_items: Counter = Counter()
    for _, t, kind in timed:
        kind_time[kind] += t
        kind_items[kind] += 1
    return {
        "attempted": attempted,
        "failed": len(failures),
        "correct": all(kind in wl.known_defects for kind, _ in failures),
        "items_per_s": right / sum(lat),
        "latency": latency_stats(lat, wl.tail_pct),
        "run_factor": run_factor,
        "run_factor_items_per_s": right * run_factor / sum(wall),
        "run_factor_latency": latency_stats([t / run_factor for t in wall], wl.tail_pct),
        "wall_s": sum(wall),
        "wall_items_per_s": right / sum(wall),
        "wall_latency": latency_stats(wall, wl.tail_pct),
        "items_by_kind": dict(sorted(kind_items.items())),
        "time_share_by_kind": {k: round(t / sum(wall), 4)
                               for k, t in sorted(kind_time.items())},
        "failures_by_kind": dict(sorted(by_kind.items())),
        "first_failures": sorted({f"{k}: {w}"[:300] for k, w in failures})[:10],
    }


def probe_setups(probe_argv: list[str]) -> list[dict]:
    """``SETUP_REPEATS`` set-ups, each in its own fresh process."""
    probes = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable] + probe_argv, capture_output=True,
                              text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        probes.append(json.loads(lines[-1]))
    return probes


def run_untraced(wl: Workload, seed: int, seconds: float, probe_argv: list[str]):
    null = Tracer(False)
    speed = Speed()
    probes = probe_setups(probe_argv)
    speed.sample()
    start = perf_counter()
    wl.setup(seed, null)
    in_process_setup = perf_counter() - start
    speed.sample()
    for it in wl.warmup():
        wl.run(it, null)
    timed, failures, batches = timed_phase(wl, seconds, null, speed, None)
    s = summary(wl, speed, timed, failures)
    s.update(batches=batches, setup_probes=probes, in_process_setup_wall_s=in_process_setup,
             speed_samples=len(speed.samples))
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "items_per_s": s["items_per_s"],
        "latency_p50_ms": s["latency"]["p50_ms"],
        "latency_tail_ms": s["latency"]["tail_mean_ms" if wl.tail_mean else "tail_ms"],
        "ok_share": (s["attempted"] - s["failed"]) / s["attempted"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return s, metrics


def baseline(argv: list[str]) -> tuple[dict, dict]:
    """An untraced run of the same workload and seed in a fresh process."""
    proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          timeout=150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"untraced baseline failed: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def run_traced(wl: Workload, seed: int, seconds: float, base_argv: list[str],
               outdir: Path, names: list[str]):
    base_details, base_result = baseline(base_argv)
    tr = Tracer(True)
    speed = Speed()
    speed.sample()
    wl.setup(seed, tr)
    tr.enabled = False
    for it in wl.warmup():
        wl.run(it, tr)
    tr.enabled = True
    counts: Counter = Counter()
    timed, failures, batches = timed_phase(wl, seconds, tr, speed, counts)
    tr.enabled = False
    s = summary(wl, speed, timed, failures)
    base_rate = base_result["metrics"]["items_per_s"]["value"]
    extra = {
        "trace.overhead_share": base_rate / s["items_per_s"] - 1.0,
        "latency.tail_pct": base_details["latency"]["tail_pct"],
        "latency.samples": base_details["latency"]["samples"],
        "failed_share": s["failed"] / s["attempted"],
        "acceptance.c11_margin": 0.0,
        "acceptance.c15_margin": 0.0,
    }
    extra.update(wl.acceptance())
    totals, selfs = tr.totals(), tr.self_times()
    metrics = {n: layer_metric(n, tr, totals, selfs, counts, extra) for n in names}
    trace_file = outdir / f"trace-{type(wl).__name__.lower()}-{seed}.jsonl"
    tr.write(trace_file)
    s.update(batches=batches, trace_file=str(trace_file),
             baseline_items_per_s=base_rate)
    return s, metrics
