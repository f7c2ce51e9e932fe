"""``cli-session``: seeded requests to ``satkit.cli.main``, in process.

Each request runs twice with ``--json`` and captured output; an item is
the pair, and two reports that are not byte-identical fail it.  Proofs
arrive as ``.sexp`` text, so their nodes are unshared.  The mix keeps two
kinds of request that fail today: malformed proof files, which README
says exit 2 but exit 1 on ``ParseError``, and ``encode`` on a 3000-deep
``not`` nest, which exits 1 on ``RecursionError`` instead of giving its
code.  They are this workload's whole non-zero failure share.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import shutil
from collections import Counter
from pathlib import Path

import satkit.cli as cli
import satkit.coding as coding
import satkit.congruence as congruence
import satkit.sexpr as sexpr
import satkit.syntax as sx
import satkit.template as template
from satkit.corpus import base_corpus, mprop_entries
from satkit.kernel import Sequent
from satkit.elements import std
from satkit.propcalc import weakening_cert
from satkit.translate import translate_proof

import gen
import reference as ref
from harness import (
    Workload, formula_properties, item, kernel_span, proof_properties, proof_sentences,
)
from spans import ModuleView

# One kind per subcommand and expected outcome, taken in turn: no share
# of real traffic is known, so none is assumed.
KINDS = ["check", "check-negated", "check-template", "translate", "check-malformed",
         "translate-malformed", "encode", "decode", "encode-deep", "eval-tr", "quotient",
         "skolem", "skolem-none", "henkin", "prop-check", "prop-check-forged", "approx",
         "witness"]
DEFECTS = frozenset({"check-malformed", "translate-malformed", "encode-deep"})
DEEP = 3000
BATCH = len(KINDS)
WARMUP = len(KINDS)
FALSE_ATOM = "(= 0 (sc 0))"


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


class ProofFile:
    """A proof written to disk, with what the benchmark knows about it."""

    def __init__(self, path: Path, proof, flags: list[str]):
        self.path = path
        path.write_text(sexpr.print_proof(proof) + "\n")
        self.flags = flags
        self.shape = ref.proof_shape(proof)
        self.bytes = path.stat().st_size
        self.proof = proof
        self._sharing = None

    def sharing(self) -> Counter:
        """Sentence sharing counts, computed on first use (traced runs)."""
        if self._sharing is None:
            self._sharing = Counter()
            formula_properties(self._sharing, proof_sentences(self.proof))
        return self._sharing


class CliSession(Workload):
    known_defects = DEFECTS
    tail_pct = 95.0

    def setup(self, seed, tr):
        self.dir = self.workdir / "session"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        if tr.enabled:
            self._instrument(tr)
        entries = (tr.call("corpus.base_corpus", base_corpus)
                   + tr.call("corpus.mprop_entries", mprop_entries))
        self.proofs, self.negated, self.broken = [], [], []
        self.translatable, self.translated = [], []
        for k, e in enumerate(entries):
            flags = ["--allow-prop"] if e.policy.allow_prop else []
            if e.policy.extra_axioms is not None:
                lam = self.dir / f"lam-{k}.txt"
                hyps = e.policy.extra_axioms.__self__  # a set's membership test
                lam.write_text("".join(ref.to_text(h) + "\n" for h in sorted(hyps, key=ref.to_text)))
                flags += ["--lam", str(lam)]
            pf = ProofFile(self.dir / f"p-{k}.sexp", e.proof, flags)
            self.proofs.append(pf)
            text = pf.path.read_text()
            trunc = self.dir / f"trunc-{k}.sexp"
            trunc.write_text(text.rstrip()[:-1])
            bad = self.dir / f"bad-{k}.sexp"
            bad.write_text(text.replace("(= ", "(equals ", 1))
            self.broken.append((trunc, bad, flags))
            if len(e.proof.conclusion.sentences) == 1:
                (phi,) = e.proof.conclusion.sentences
                neg = dataclasses.replace(e.proof, conclusion=Sequent(frozenset((sx.Not(phi),))))
                self.negated.append(ProofFile(self.dir / f"n-{k}.sexp", neg, flags))
            if not e.policy.allow_prop:
                self.translatable.append(pf)
                res = tr.call("translate.translate_proof", translate_proof, e.proof, e.policy)
                tflags = ["--logic", "template"] + flags
                self.translated.append(ProofFile(self.dir / f"t-{k}.sexp", res.proof, tflags))
        for k in range(1, 7):
            (self.dir / f"chain-{k}.sexp").write_text(f"(chain (delta {k}))\n")
        self.files = 0
        self.stream = (gen.stream(seed, "cli"), itertools.cycle(KINDS), {})
        self.first = self._batch(self.stream)
        self.warm = self._batch((gen.stream(seed, "warmup"), itertools.cycle(KINDS), {}),
                                WARMUP)

    def _instrument(self, tr):
        """Spans at the boundary between the CLI and the layers it calls.

        This rebinds names in satkit's modules for the rest of the process,
        so a traced run sets up only once."""
        cli.check = tr.wrap(lambda proof, policy, *a: kernel_span(policy), cli.check)
        for layer, names in (
                ("translate", ["translate_proof", "g_bound_at_least"]),
                ("ground_model", ["eval_tr"]),
                ("skolem", ["find_skolem_table", "is_skolem_operator"]),
                ("semantics", ["henkin_extend", "check_fragment", "models", "val_t",
                               "delta_structure", "sc_tower", "free_tower",
                               "structure_oracle"]),
                ("propcalc", ["check_certificate"]),
                ("elements", ["parse_element"])):
            for n in names:
                setattr(cli, n, tr.wrap(f"{layer}.{n}", getattr(cli, n)))
        cli.sexpr = ModuleView(sexpr, tr, "sexpr", [
            "read_one", "read_nodes", "parse_obj", "parse_formula", "parse_proof",
            "parse_chain", "parse_certificate", "print_obj", "print_proof", "print_chain"])
        cli.coding = ModuleView(coding, tr, "coding", ["godel_encode", "godel_decode"])
        cli.tp = ModuleView(template, tr, "template", [
            "apply_chain", "apply_to_object", "normalize", "apprx_member"])
        cli.sx = ModuleView(sx, tr, "syntax", ["expand_abbreviation"])
        for n in ("build_quotient", "subterm_closure"):  # cli imports these per call
            setattr(congruence, n, tr.wrap(f"congruence.{n}", getattr(congruence, n)))

    # -- requests

    def _file(self, suffix: str, text: str) -> Path:
        self.files += 1
        path = self.dir / f"req-{self.files}{suffix}"
        path.write_text(text)
        return path

    def _batch(self, stream, size=BATCH):
        """Requests from a stream: its random numbers, its kind schedule,
        and its file rounds."""
        rng, order, rounds = stream
        return [self._request(next(order), rng, rounds) for _ in range(size)]

    def _request(self, kind, rng, rounds):
        it = item(kind, argv=None, expect=0, proof=None, formula=None, read=0)
        if kind in ("check", "check-negated", "check-template", "translate"):
            pf = self._next_file(kind, rng, rounds)
            if kind == "translate":
                it.argv = ["translate", "--in", str(pf.path), "--out", str(self.dir / "out.sexp"),
                           "--emit-chain", str(self.dir / "chain-out.sexp")] + pf.flags
            else:
                it.argv = ["check", "--in", str(pf.path)] + pf.flags
            it.proof, it.read = pf, pf.bytes
            it.expect = 1 if kind == "check-negated" else 0
        elif kind in ("check-malformed", "translate-malformed"):
            trunc, bad, flags = self._next_file(kind, rng, rounds)
            path = trunc if kind == "check-malformed" else bad
            it.argv = [kind.split("-")[0], "--in", str(path)] + flags
            it.expect, it.read = 2, path.stat().st_size
        elif kind == "encode":
            it.formula = gen.codec_formula(rng)
            it.argv = ["encode", ref.to_text(it.formula)]
            it.want = str(ref.godel_code(it.formula))
        elif kind == "decode":
            it.formula = gen.codec_formula(rng)
            it.argv = ["decode", str(ref.godel_code(it.formula))]
            it.want = ref.to_text(it.formula)
        elif kind == "encode-deep":
            it.argv = ["encode", "(not " * DEEP + "(= 0 0)" + ")" * DEEP]
            it.want = str(ref.not_nest_code(DEEP))
        elif kind == "eval-tr":
            it.formula = gen.bounded_sentence(rng)
            text = ref.to_text(it.formula)
            it.argv = ["eval-tr", "--class", "d0", "--formula", text]
            it.want = str(ref.truth(ref.read_text(text)))
        elif kind == "quotient":
            eqs = [(gen.closed_term(rng, 2), gen.closed_term(rng, 2))
                   for _ in range(rng.randrange(1, 4))]
            text = "".join(f"(= {ref.term_text(a)} {ref.term_text(b)})\n" for a, b in eqs)
            path = self._file(".sexp", text)
            it.argv = ["quotient", "--equations", str(path)]
            it.want, it.read = ref.quotient(eqs), len(text)
        elif kind in ("skolem", "skolem-none"):
            k, grid = rng.randrange(5), rng.randrange(2, 5)
            search = grid + k + rng.randrange(3) if kind == "skolem" else grid + k - 1
            it.argv = ["skolem", "--q", "[A0,E1]", "--formula", f"(= (+ v0 c{k}) v1)",
                       "--grid", str(grid), "--search", str(search)]
            it.want = {str(x): [x + k] for x in range(grid)} if kind == "skolem" else None
            it.expect = 0 if kind == "skolem" else 1
        elif kind == "henkin":
            sentences = self._henkin_enumeration(rng)
            text = "".join(s + "\n" for s in dict.fromkeys(sentences))
            it.argv = ["henkin", "--enumeration", str(self._file(".txt", text))]
            it.want, it.read = list(dict.fromkeys(sentences)), len(text)
        elif kind in ("prop-check", "prop-check-forged"):
            source = self._atom(rng, true=True)
            leaves = [source] + [self._atom(rng) for _ in range(rng.randrange(1, 4))]
            rng.shuffle(leaves)
            target = leaves[-1]
            for leaf in reversed(leaves[:-1]):
                target = sx.Or(leaf, target)
            text = sexpr.print_certificate(weakening_cert(source, target))
            if kind == "prop-check-forged":
                last = text.rindex(f"(line {ref.to_text(target)} ")
                text = text[:last] + text[last:].replace(ref.to_text(target), FALSE_ATOM, 1)
            hyps = ref.to_text(source) + "\n"
            it.argv = ["prop-check", "--cert", str(self._file(".sexp", text)),
                       "--hyps", str(self._file(".txt", hyps))]
            it.expect, it.read = (0 if kind == "prop-check" else 1), len(text) + len(hyps)
            it.entailment = ref.read_text(ref.to_text(sx.Or(sx.Not(source), target)))
        elif kind == "approx":
            k = rng.randrange(1, 7)
            it.argv = ["approx", "--chain", str(self.dir / f"chain-{k}.sexp"),
                       "--input", f"(tf (delta {k}))"]
            inner = ref.delta_text(k - 1)
            it.want = f"(or (tf {inner}) (tf {inner}))"
        elif kind == "witness":
            a, b = rng.sample("abcdefg", 2)
            which = rng.choice(("delta", "sc-tower", "free-tower"))
            it.argv = ["witness", which, "--a", f"w[{a}]"]
            if which == "delta":
                it.argv += ["--depth", "6"]
            elif which == "sc-tower":
                it.argv += ["--family", rng.choice(("num", "addtower")), "--height", "w[h]",
                            "--depth", "8"]
            else:
                it.argv += ["--b", f"w[{b}]", "--depth", "4"]
            it.want = f"ω[{a}]" if which == "sc-tower" else "True"
        it.argv = it.argv + ["--json"]
        return it

    def _next_file(self, kind, rng, rounds):
        """Files go round in a seeded order per request kind, so every
        stretch of requests reads each file about equally often."""
        pools = {"check": self.proofs, "check-negated": self.negated,
                 "check-template": self.translated, "translate": self.translatable,
                 "check-malformed": self.broken, "translate-malformed": self.broken}
        queue = rounds.get(kind)
        if not queue:
            queue = rounds[kind] = rng.sample(pools[kind], len(pools[kind]))
        return queue.pop()

    @staticmethod
    def _atom(rng, true: bool = False):
        """A ground equation or its negation, true in the standard model
        if ``true`` is set."""
        a, b = rng.randrange(6), rng.randrange(6)
        if true:
            b = a if rng.random() < 0.5 else (a + 1 + b) % 7  # never a
            eq = sx.Eq(sx.const(std(a)), sx.const(std(b)))
            return eq if a == b else sx.Not(eq)
        eq = sx.Eq(sx.const(std(a)), sx.const(std(b)))
        return eq if rng.random() < 0.5 else sx.Not(eq)

    @staticmethod
    def _henkin_enumeration(rng) -> list[str]:
        """Six sentences of fixed kinds and truths, seeded constants: two
        sums (one true, one false), a disequation, a disjunction, and an
        existential with a witness and one without."""
        a, b, c, d = (rng.randrange(1, 10) for _ in range(4))
        return [f"(= (+ c{a} c{b}) c{a + b})",
                f"(= (+ c{a} c{b}) c{a + b + c})",
                f"(not (= c{c} c{c + d}))",
                f"(or (= c{a} c{a + d}) (= c{b} c{b}))",
                f"(ex 0 (= (+ v0 c{a}) c{a + c}))",
                f"(ex 0 (= (+ v0 c{a + c}) c{a}))"]

    def warmup(self):
        return self.warm

    def batch(self, n):
        return self.first if n == 0 else self._batch(self.stream)

    def run(self, it, tr):
        name = f"cli.{it.argv[0]}"
        return tr.call(name, call_cli, it.argv), tr.call(name, call_cli, it.argv)

    def verify(self, it, out):
        (code, text), second = out
        if second != (code, text):
            return "two runs of the request gave different reports"
        if code != it.expect:
            return f"exit {code}, expected {it.expect}"
        if code == 2:
            return None
        report = json.loads(text)
        kind = it.kind
        if kind.startswith("check"):
            if report["ok"] != (it.expect == 0):
                return "wrong verdict"
            if report["ok"] and report["height"] != it.proof.shape[1]:
                return "reported height differs from the proof tree's"
        elif kind == "translate":
            if not report["within_bound"] or report["height"] != it.proof.shape[1]:
                return "translation outside its bound or of the wrong height"
            if not ref.within_g_bound(report["height"] + 1, report["chain_length"]):
                return "chain longer than G(height + 1)"
        elif kind in ("encode", "encode-deep"):
            if report["code"] != it.want:
                return "code differs from the reference encoder"
        elif kind == "decode":
            if report["object"] != it.want:
                return "decoded object differs from the encoded one"
        elif kind == "eval-tr":
            if report["verdict"] != it.want:
                return f"verdict {report['verdict']}, standard model says {it.want}"
        elif kind == "quotient":
            classes, injective, surjective = it.want
            if (report["classes"], report["injective_on_constants"],
                    report["surjective_on_universe"]) != (classes, injective, surjective):
                return "quotient differs from the reference closure"
        elif kind.startswith("skolem"):
            if report["found"] != (it.want is not None) or \
                    (it.want is not None and report["table"] != it.want):
                return "witness table differs from x -> x + k"
        elif kind == "henkin":
            decided = report["decided"]
            if not report["clauses_pass"] or any(s not in decided for s in it.want):
                return "fragment fails its clauses or leaves a sentence undecided"
            if any(v != ref.truth(ref.read_text(s)) for s, v in decided.items()):
                return "fragment decides a sentence against the standard model"
        elif kind.startswith("prop-check"):
            if report["ok"] != (kind == "prop-check" and ref.tautology(it.entailment)):
                return "wrong certificate verdict"
        elif kind == "approx":
            if report["result"] != it.want:
                return "approximation differs from one opened level"
        elif kind == "witness":
            if not report["ok"] or any(v != it.want for _, v in report["results"]):
                return "witness structure fails an approximation"
        return None

    def count(self, it, out, c):
        (code, text), _ = out
        c["cli.wrong_exit"] += code != it.expect
        c["sexpr.bytes"] += 2 * (it.read + sum(len(a) for a in it.argv))
        if it.proof is not None:
            nodes = it.proof.shape[0]
            if it.kind.startswith("check"):
                c["kernel.proof_nodes"] += 2 * nodes
                c["kernel.uniform_depth_max"] = max(c["kernel.uniform_depth_max"],
                                                     it.proof.shape[3])
                c["kernel.rejected"] += 2 * (code == 1)
            proof_properties(c, it.proof.shape)
            c.update(it.proof.sharing())
        if it.formula is not None:
            formula_properties(c, [it.formula])
        if it.kind == "eval-tr" and code == 0:
            c["ground_model.unknown"] += json.loads(text)["verdict"] == "Unknown"
