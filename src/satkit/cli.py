"""Batch front door: encoding, checking, translation, evaluation, witnesses.

Every subcommand has a --json twin of its text output with the same
verdicts; reports carry no timestamps, so fixed inputs give byte-identical
output across runs. Exit codes: 0 success, 1 check failure, 2 bad input,
usage, or input nested too deeply.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import coding, sexpr
from . import syntax as sx
from . import template as tp
from .elements import ElementError, parse_element, Sym
from .ground_model import EvalError, eval_tr
from .kernel import RulePolicy, check
from .propcalc import check_certificate, scheme_manifest
from .semantics import (
    BadWitnessParams, check_fragment, delta_structure, free_tower, henkin_extend,
    models, sc_tower, structure_oracle, val_t,
)
from .sexpr import ParseError
from .skolem import QuantSeq, SkolemError, find_skolem_table, is_skolem_operator, table_of
from .translate import g_bound, g_bound_at_least, translate_proof

REPORT_SCHEMA = 1


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        payload["schema"] = REPORT_SCHEMA
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _given(value, what: str):
    """The value of an option the request needs; bad input when absent."""
    if value is None:
        raise ValueError(f"{what} is required")
    return value


def _policy(args) -> RulePolicy:
    lam = None
    if getattr(args, "lam", None):
        forms = [sexpr.parse_formula(line)
                 for line in Path(args.lam).read_text().splitlines() if line.strip()]
        members = set(forms)
        if args.logic.startswith("template"):
            # template extra axioms are approximations of the listed sentences
            lam = lambda f: tp.apprx_member(f, members.__contains__)
        else:
            lam = members.__contains__
    return RulePolicy(
        logic=args.logic,
        extra_axioms=lam,
        allow_prop=getattr(args, "allow_prop", False),
        allow_inf=getattr(args, "allow_inf", False),
        allow_skolem=getattr(args, "allow_skolem", False),
        allow_pred=getattr(args, "allow_pred", False),
    )


def cmd_encode(args) -> int:
    obj = sexpr.parse_obj(sexpr.read_one(args.input))
    n = coding.code_length(obj)
    if n > coding.MAX_CODE_SYMBOLS:
        raise coding.NotEncodable(f"the code has {coding.to_decimal(n)} symbols, "
                                  f"past the limit of {coding.MAX_CODE_SYMBOLS}")
    text = coding.to_decimal(coding.godel_encode(obj).code)
    _emit(args, {"code": text}, [text])
    return 0


def cmd_decode(args) -> int:
    obj = coding.godel_decode(coding.GodelCode(coding.from_decimal(args.code)))
    text = sexpr.print_obj(obj)
    _emit(args, {"object": text}, [text])
    return 0


def cmd_check(args) -> int:
    proof = sexpr.parse_proof(Path(args.input).read_text())
    report = check(proof, _policy(args))
    lines = [f"ok: {report.ok}"]
    if report.ok:
        lines.append(f"height: {report.height}")
    errors = [str(e) for e in report.errors]
    lines.extend(f"error: {e}" for e in errors)
    _emit(args, {"ok": report.ok, "height": report.height, "errors": errors}, lines)
    return 0 if report.ok else 1


def cmd_translate(args) -> int:
    proof = sexpr.parse_proof(Path(args.input).read_text())
    result = translate_proof(proof, _policy(args))
    level = result.bound_level()
    within = g_bound_at_least(level, len(result.chain))
    if args.out:
        Path(args.out).write_text(sexpr.print_proof(result.proof) + "\n")
    if args.emit_chain:
        Path(args.emit_chain).write_text(sexpr.print_chain(result.chain) + "\n")
    lines = [
        f"height: {result.height}",
        f"chain-length: {len(result.chain)}",
        f"within-bound: {within}",
    ]
    _emit(args, {"height": result.height, "chain_length": len(result.chain),
                 "within_bound": within}, lines)
    return 0 if within else 1


def cmd_gbound(args) -> int:
    n = int(args.n)
    if n < 1:
        raise ValueError(f"gbound: n must be at least 1, not {n}")
    value = g_bound(n, force=args.force)
    _emit(args, {"n": n, "value": str(value)}, [str(value)])
    return 0


def cmd_eval_tr(args) -> int:
    f = sexpr.parse_formula(args.formula)
    f = sx.expand_abbreviation(f)
    verdict = eval_tr(f, args.cls, args.fuel)
    _emit(args, {"verdict": verdict.tag}, [verdict.tag])
    return 0


def _towers_below(root: sx.FamilyRef, depth: int) -> list:
    """The towers 0..depth-1 levels below a family reference, root first."""
    i = root.index
    return [sx.tower(root.family, Sym(i.base, i.coeff, i.offset - k)) for k in range(depth)]


def cmd_witness(args) -> int:
    depth = args.depth
    if depth < 0:
        raise ValueError(f"witness: --depth must be at least 0, not {depth}")
    results = []
    ok = True
    a = parse_element(_given(args.a, f"witness {args.name}: --a"))
    if args.name == "delta":
        t = delta_structure(a)
        target = sx.delta(a)
        chain_steps = _towers_below(target, depth)
        for k in range(depth + 1):
            f = tp.ApproxChain(tuple(chain_steps[:k]))
            approx = tp.apply_to_object(f, target)
            verdict = models(t, approx, fuel=8)
            results.append((f"approximation-{k}", verdict.tag))
            ok = ok and verdict.is_true()
    elif args.name == "sc-tower":
        h = parse_element(_given(args.height, "witness sc-tower: --height"))
        t = sc_tower(args.family, h, a)
        root = sx.tower(args.family, h)
        steps = _towers_below(root, depth)
        for k in range(depth + 1):
            f = tp.ApproxChain(tuple(steps[:k]))
            value = val_t(t, tp.apply_to_object(f, root))
            results.append((f"chain-{k}", str(value)))
            ok = ok and value == a
    else:
        t = free_tower(a, parse_element(_given(args.b, "witness free-tower: --b")))
        target = sx.Not(sx.Ex(0, sx.Eq(sx.numeral(a), sx.Var(0))))
        base_chain = [target, target.body, sx.Eq(sx.numeral(a), sx.Var(0)), sx.Var(0)]
        tower_steps = _towers_below(sx.numeral(a), depth)
        for k in range(depth + 1):
            f = tp.normalize(tp.ApproxChain(tuple(base_chain + tower_steps[:k])))
            approx = tp.apply_to_object(f, target)
            verdict = models(t, approx, fuel=6)
            results.append((f"approximation-{k}", verdict.tag))
            ok = ok and verdict.is_true()
    lines = [f"{name}: {v}" for name, v in results]
    lines.append(f"ok: {ok}")
    _emit(args, {"ok": ok, "results": [list(r) for r in results]}, lines)
    return 0 if ok else 1


def cmd_quotient(args) -> int:
    from .congruence import build_quotient, subterm_closure
    nodes = sexpr.read_nodes(Path(args.equations).read_text())
    eqs = []
    for k, node in enumerate(nodes, 1):
        f = sexpr.parse_obj(node)
        if not isinstance(f, sx.Eq):
            raise ParseError(f"expression {k} is not an equation: {sexpr.print_obj(f)}")
        eqs.append((f.left, f.right))
    universe = subterm_closure([t for pair in eqs for t in pair])
    q = build_quotient(eqs, universe)
    classes = [sorted(sexpr.print_obj(t) for t in cls) for cls in q.classes()]
    classes.sort()
    lines = [f"class: {' '.join(c)}" for c in classes]
    lines.append(f"well-defined: True")
    lines.append(f"injective-on-constants: {q.injective_on_constants}")
    lines.append(f"surjective-on-universe: {q.surjective_on_universe}")
    _emit(args, {
        "classes": classes,
        "well_defined": True,
        "injective_on_constants": q.injective_on_constants,
        "surjective_on_universe": q.surjective_on_universe,
    }, lines)
    return 0


def cmd_henkin(args) -> int:
    enumeration = [sexpr.parse_formula(line)
                   for line in Path(args.enumeration).read_text().splitlines()
                   if line.strip()]
    lam = []
    oracle = None
    if args.lam:
        lam = [sexpr.parse_formula(line)
               for line in Path(args.lam).read_text().splitlines() if line.strip()]
    if args.delta_witness:
        oracle = structure_oracle(
            delta_structure(parse_element(args.delta_witness), with_ground_truth=True))
    frag = henkin_extend(lam, enumeration, oracle=oracle, budget=args.budget)
    report = check_fragment(frag)
    lines = [f"decided: {len(frag.decided)}"]
    for f, v in frag.decided.items():
        lines.append(f"{'+' if v else '-'} {sexpr.print_obj(f)}")
    lines.append(f"clauses-pass: {report.passed}")
    lines.extend(f"failure: {x}" for x in report.failures)
    _emit(args, {
        "decided": {sexpr.print_obj(f): v for f, v in frag.decided.items()},
        "clauses_pass": report.passed,
        "failures": report.failures,
    }, lines)
    return 0 if report.passed else 1


def _parse_quantseq(text: str) -> QuantSeq:
    items = []
    for part in text.strip("[] ").split(","):
        part = part.strip()
        if not part:
            continue
        items.append((part[0].upper(), int(part[1:])))
    try:
        return QuantSeq(tuple(items))
    except SkolemError as e:
        raise ValueError(f"skolem: --q: {e}") from None


def cmd_skolem(args) -> int:
    q = _parse_quantseq(args.q)
    if args.table:
        raw = json.loads(Path(args.table).read_text())
        table = table_of({tuple(map(int, k.split(","))) if k else (): tuple(v)
                          for k, v in raw.items()})
        ok = is_skolem_operator(table, q)
        _emit(args, {"ok": ok}, [f"ok: {ok}"])
        return 0 if ok else 1
    text = _given(args.formula, "skolem: --table or --formula")
    if args.grid < 1:
        raise ValueError(f"skolem: --grid must be at least 1, not {args.grid}")
    f = sx.expand_abbreviation(sexpr.parse_formula(text))

    def truth(sentence):
        return eval_tr(sentence, "d0", args.fuel).is_true()

    table = find_skolem_table(f, q, args.grid, args.search, truth)
    if table is None:
        _emit(args, {"found": False}, ["found: False"])
        return 1
    rows = {",".join(map(str, k)): list(v) for k, v in table.mapping}
    lines = [f"{k or '()'} -> {v}" for k, v in sorted(rows.items())]
    lines.insert(0, "found: True")
    _emit(args, {"found": True, "table": rows}, lines)
    return 0


def cmd_prop_check(args) -> int:
    cert = sexpr.parse_certificate(sexpr.read_one(Path(args.cert).read_text()))
    hyps = set()
    if args.hyps:
        hyps = {sexpr.parse_formula(line)
                for line in Path(args.hyps).read_text().splitlines() if line.strip()}
    ok = check_certificate(cert, hyps.__contains__, first_order=args.first_order)
    _emit(args, {"ok": ok}, [f"ok: {ok}"])
    return 0 if ok else 1


def cmd_approx(args) -> int:
    chain = sexpr.parse_chain(Path(args.chain).read_text())
    obj = sexpr.parse_obj(sexpr.read_one(args.input))
    try:
        tp.has_templates(obj)
    except tp.TemplateError as e:
        raise ParseError(f"--input: abbreviation outside a box: {e}") from None
    out = tp.apply_chain(chain, obj)
    text = sexpr.print_obj(out)
    _emit(args, {"result": text}, [text])
    return 0


def cmd_manifest(args) -> int:
    payload = coding.encoding_manifest() if args.what == "encoding" else scheme_manifest()
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="satkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn.__name__)
        sp.add_argument("--json", action="store_true")
        return sp

    sp = add("encode", cmd_encode)
    sp.add_argument("input")

    sp = add("decode", cmd_decode)
    sp.add_argument("code")

    for name, fn in (("check", cmd_check), ("translate", cmd_translate)):
        sp = add(name, fn)
        sp.add_argument("--in", dest="input", required=True)
        sp.add_argument("--logic", default="m",
                        choices=["m", "m-free", "template", "template-free"])
        sp.add_argument("--lam")
        sp.add_argument("--allow-prop", action="store_true")
        sp.add_argument("--allow-inf", action="store_true")
        sp.add_argument("--allow-skolem", action="store_true")
        sp.add_argument("--allow-pred", action="store_true")
        if name == "translate":
            sp.add_argument("--out")
            sp.add_argument("--emit-chain")

    sp = add("gbound", cmd_gbound)
    sp.add_argument("n")
    sp.add_argument("--force", action="store_true")

    sp = add("eval-tr", cmd_eval_tr)
    sp.add_argument("--class", dest="cls", default="d0")
    sp.add_argument("--formula", required=True)
    sp.add_argument("--fuel", type=int, default=64)

    sp = add("witness", cmd_witness)
    sp.add_argument("name", choices=["delta", "sc-tower", "free-tower"])
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.add_argument("--height")
    sp.add_argument("--family", default="num", choices=["num", "addtower"])
    sp.add_argument("--depth", type=int, default=8)

    sp = add("quotient", cmd_quotient)
    sp.add_argument("--equations", required=True)

    sp = add("henkin", cmd_henkin)
    sp.add_argument("--enumeration", required=True)
    sp.add_argument("--lam")
    sp.add_argument("--delta-witness")
    sp.add_argument("--budget", type=int, default=32)

    sp = add("skolem", cmd_skolem)
    sp.add_argument("--q", required=True)
    sp.add_argument("--table")
    sp.add_argument("--formula")
    sp.add_argument("--grid", type=int, default=8)
    sp.add_argument("--search", type=int, default=16)
    sp.add_argument("--fuel", type=int, default=64)

    sp = add("prop-check", cmd_prop_check)
    sp.add_argument("--cert", required=True)
    sp.add_argument("--hyps")
    sp.add_argument("--first-order", action="store_true")

    sp = add("approx", cmd_approx)
    sp.add_argument("--chain", required=True)
    sp.add_argument("--input", required=True)

    sp = add("manifest", cmd_manifest)
    sp.add_argument("what", choices=["encoding", "axioms"])

    return p


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv=None) -> int:
    """Run one request. The parser is built by the first call and reused,
    so repeated calls in one process pay only for their own work."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        # by name at call time, so a handler rebound on this module is used
        return globals()[args.fn](args)
    except (OSError, ValueError, KeyError, ParseError, coding.CodingError, EvalError,
            ElementError, BadWitnessParams) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError as e:
        print(f"error: input nested too deeply ({e})", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
