import json
import subprocess
import sys

import pytest

import satkit.cli as cli
import satkit.sexpr as sexpr
from satkit.cli import build_parser, main
from satkit.corpus import commute_or_proof
from satkit.coding import to_decimal
import satkit.syntax as sx
from generators import assert_finishes
from test_sexpr import INTEGER_FIELDS, NOT_NATURALS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestBasicCommands:
    def test_gbound(self, capsys):
        code, out = run_cli(["gbound", "2"], capsys)
        assert code == 0 and out.strip() == "1535"

    def test_gbound_refuses_four(self, capsys):
        code, _ = run_cli(["gbound", "4"], capsys)
        assert code != 0

    def test_encode_decode_round_trip(self, capsys):
        text = "(= (sc 0) v0)"
        code, out = run_cli(["encode", text], capsys)
        assert code == 0
        n = out.strip()
        code, out = run_cli(["decode", n], capsys)
        assert code == 0 and out.strip() == text

    def test_encode_deep_not_nest(self, capsys):
        from satkit.coding import SYM_EQ, SYM_NOT, SYM_ZERO
        depth = 3000
        text = "(not " * depth + "(= 0 0)" + ")" * depth
        code, out = run_cli(["encode", text], capsys)
        assert code == 0
        # base-16 digits, the first symbol least significant
        symbols = [SYM_NOT] * depth + [SYM_EQ, SYM_ZERO, SYM_ZERO]
        assert out.strip() == str(sum(s << (4 * k) for k, s in enumerate(symbols)))
        # and the code decodes back to the same nest
        code, out = run_cli(["decode", out.strip()], capsys)
        assert code == 0 and out.strip() == text

    def test_encode_decode_past_the_decimal_digit_limit(self, capsys):
        # the code of a 3,700-deep nest has 4,458 decimal digits, past the
        # interpreter's default limit of 4,300 for int/str conversion
        limit = sys.get_int_max_str_digits()
        depth = 3700
        text = "(not " * depth + "(= 0 0)" + ")" * depth
        code, out = run_cli(["encode", text], capsys)
        assert code == 0 and len(out.strip()) == 4458
        code, back = run_cli(["decode", out.strip()], capsys)
        assert code == 0 and back.strip() == text
        code, out = run_cli(["encode", "--json", text], capsys)
        assert code == 0 and len(json.loads(out)["code"]) == 4458
        assert sys.get_int_max_str_digits() == limit

    def test_encode_refuses_a_code_past_the_limit(self, capsys):
        # 99,998 successors, their 0, the = and the other 0: one symbol
        # too many; (num 100001) is refused by the reader before it is built
        for text, message in [
                ("(= (num 99998) 0)",
                 "error: the code has 100001 symbols, past the limit of 100000\n"),
                ("(num 100001)",
                 "error: a num tower of height 100001 is past the limit of 100000 levels\n")]:
            assert main(["encode", text]) == 2
            assert capsys.readouterr().err == message
        # a length past the interpreter's 4300-digit str limit is still named
        assert main(["encode", "(addtower 20000)"]) == 2
        assert capsys.readouterr().err == \
            f"error: the code has {to_decimal(2 ** 20001 - 1)} symbols, past the limit of 100000\n"

    def test_encode_refuses_unbounded_codes_at_once(self):
        # the code of (delta 30) has 5 * 2^30 - 1 symbols, and (num 10^9)
        # would be 10^9 nodes: both are refused before any is written
        assert_finishes("""if True:
            from satkit.cli import main
            assert main(["encode", "(delta 30)"]) == 2
            assert main(["encode", "(num 1000000000)"]) == 2
            print("ok")
        """, timeout=20)

    def test_check_names_a_tower_by_its_size(self, tmp_path, capsys):
        # an open sentence over a shared tower: its repr would write every
        # occurrence of each level, 224 KB at (delta 12), and does not end
        # at (delta 30); the message names its size instead
        proof = tmp_path / "tower.proof"
        proof.write_text("(rule axiom3\n  (concl (or (delta 12) (= v0 0))))\n")
        assert main(["check", "--in", str(proof)]) == 2
        assert capsys.readouterr().err == \
            "error: open sentence in a sequent: <a formula of 20483 nodes>\n"
        proof.write_text("(rule axiom3\n  (concl (or (delta 30) (= v0 0))))\n")
        assert_finishes(f"""if True:
            from satkit.cli import main
            assert main(["check", "--in", {str(proof)!r}]) == 2
            print("ok")
        """, timeout=20)

    def test_too_deep_input_exits_2(self, capsys):
        # eval-tr still evaluates recursively
        depth = 3000
        code = main(["eval-tr", "--formula", "(not " * depth + "(= 0 0)" + ")" * depth])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: input nested too deeply") and err.count("\n") == 1

    def test_eval_tr(self, capsys):
        code, out = run_cli(
            ["eval-tr", "--class", "d0",
             "--formula", "(bex 0 c10 (= (* v0 v0) c49))"], capsys)
        assert code == 0 and out.strip() == "True"

    def test_eval_tr_json_matches_text(self, capsys):
        args = ["eval-tr", "--class", "d0", "--formula", "(= 0 0)"]
        _, text_out = run_cli(args, capsys)
        _, json_out = run_cli(args + ["--json"], capsys)
        assert json.loads(json_out)["verdict"] == text_out.strip()


class TestProofCommands:
    @pytest.fixture()
    def proof_file(self, tmp_path):
        p = commute_or_proof(sx.Eq(sx.ZERO, sx.ZERO),
                             sx.Eq(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)))
        f = tmp_path / "proof.sexp"
        f.write_text(sexpr.print_proof(p) + "\n")
        return f

    def test_check(self, proof_file, capsys):
        code, out = run_cli(["check", "--in", str(proof_file)], capsys)
        assert code == 0
        assert "ok: True" in out and "height: 6" in out

    def test_check_json_verdict_matches(self, proof_file, capsys):
        _, out = run_cli(["check", "--in", str(proof_file), "--json"], capsys)
        payload = json.loads(out)
        assert payload["ok"] is True and payload["height"] == 6

    def test_translate_emits_chain_and_proof(self, proof_file, tmp_path, capsys):
        out_proof = tmp_path / "tproof.sexp"
        out_chain = tmp_path / "chain.sexp"
        code, out = run_cli(
            ["translate", "--in", str(proof_file),
             "--out", str(out_proof), "--emit-chain", str(out_chain)], capsys)
        assert code == 0 and "within-bound: True" in out
        chain = sexpr.parse_chain(out_chain.read_text())
        assert len(chain) > 0
        tproof = sexpr.parse_proof(out_proof.read_text())
        code, out = run_cli(
            ["check", "--in", str(out_proof), "--logic", "template"], capsys)
        assert code == 0

    def test_hypothesis_proof_translates_through_files(self, tmp_path, capsys):
        from satkit.corpus import neq_from_hypotheses
        from satkit.elements import std
        t = sx.Add(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO))
        r = sx.Mul(sx.const(std(2)), sx.const(std(3)))
        proof = tmp_path / "fig.sexp"
        proof.write_text(sexpr.print_proof(
            neq_from_hypotheses(t, r, std(2), std(6))) + "\n")
        lam = tmp_path / "lam.txt"
        lam.write_text("(= (+ (sc 0) (sc 0)) c2)\n(= (* c2 c3) c6)\n")
        code, _ = run_cli(["check", "--in", str(proof), "--lam", str(lam)], capsys)
        assert code == 0
        tproof = tmp_path / "figt.sexp"
        code, _ = run_cli(["translate", "--in", str(proof), "--lam", str(lam),
                           "--out", str(tproof)], capsys)
        assert code == 0
        code, out = run_cli(["check", "--in", str(tproof), "--logic", "template",
                             "--lam", str(lam)], capsys)
        assert code == 0 and "ok: True" in out

    @pytest.mark.parametrize("concl, code, out", [
        ("(or (tf (and (= 0 0) (= 0 0))) (tf (= 0 0)))", 0, "ok: True\nheight: 0\n"),
        ("(or (tf (and (= 0 0) (= 0 0))) (tf (= 0 (sc 0))))", 1,
         "ok: False\nerror: root: sentence is not an accepted extra axiom\n"),
        ("(or (not (or (not (= 0 0)) (not (= 0 0)))) (= 0 0))", 1,
         "ok: False\nerror: root: sentence is not an accepted extra axiom\n"),
    ], ids=["approximation", "other-box", "expanded"])
    def test_template_extra_axiom_may_box_an_abbreviation(self, tmp_path, capsys,
                                                          concl, code, out):
        # the first is the one-step approximation of the listed sentence,
        # whose box holds a conjunction
        lam = tmp_path / "lam.txt"
        lam.write_text("(or (and (= 0 0) (= 0 0)) (= 0 0))\n")
        proof = tmp_path / "ax.sexp"
        proof.write_text(f"(rule axiomL (concl {concl}))\n")
        assert run_cli(["check", "--in", str(proof), "--logic", "template",
                        "--lam", str(lam)], capsys) == (code, out)

    def test_check_failure_exit_code(self, tmp_path, capsys):
        bad = "(rule axiom3 (concl (= 0 (sc 0))))"
        f = tmp_path / "bad.sexp"
        f.write_text(bad)
        code, out = run_cli(["check", "--in", str(f)], capsys)
        assert code == 1 and "ok: False" in out

    @pytest.mark.parametrize("damage", [
        "truncated", "unknown-head",
        # whole files whose proof items lack a part
        pytest.param("(rule)", id="no-tag"),
        pytest.param("(rule axiom3 (concl (= 0 0)) (witness))", id="empty-witness"),
        pytest.param("(rule axiom3 (concl (= 0 0)) (prem (rule)))", id="premise-no-tag"),
        pytest.param("(rule m-rule (concl (= 0 0)) (uniform (params q) (sample (tuple 0))))",
                     id="uniform-no-schema"),
        pytest.param("(rule axiom3 (concl (= 0 0)) (witness w[))", id="bad-element"),
        # conclusions that are not sentences
        pytest.param("(rule axiom3 (concl (sc 0)))", id="term-conclusion"),
        pytest.param("(rule axiom3 (concl (= v0 v0)))", id="open-conclusion"),
        pytest.param("(rule axiom3 (concl (and (= 0 0) (= 0 0))))", id="abbreviation-conclusion"),
    ])
    @pytest.mark.parametrize("command", ["check", "translate"])
    def test_malformed_file_exits_2(self, proof_file, tmp_path, capsys, damage, command):
        # exit 1 means a failed check; a file that does not parse is bad input
        text = proof_file.read_text()
        if damage == "truncated":
            text = text[: len(text) // 2]
        elif damage == "unknown-head":
            text = text.replace("(= ", "(equals ", 1)
        else:
            text = damage
        proof_file.write_text(text)
        args = [command, "--in", str(proof_file)]
        if command == "translate":
            args += ["--out", str(tmp_path / "out.sexp")]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        # a message, not just the name of a missing part
        assert len(err.split()) > 2


    def test_wrong_scheme_arity_is_a_located_rejection(self, tmp_path, capsys):
        f = tmp_path / "prop.sexp"
        f.write_text("(rule prop (concl (= 0 0)) (cert (line (= 0 0) (ax add l (= 0 0)))))")
        code, out = run_cli(["check", "--allow-prop", "--in", str(f)], capsys)
        assert code == 1
        assert out.splitlines() == ["ok: False", "error: root: certificate rejected"]

    def test_extra_argument_exits_2(self, capsys):
        # (not ...) takes one argument; a second one is bad input
        code = main(["encode", "(not (= 0 0) junk)"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("argv, option", [
        # numbers outside the codec's image
        pytest.param(["decode", "--", "0"], None, id="decode-zero"),
        pytest.param(["decode", "--", "-1"], None, id="decode-negative"),
        # a code is a run of ASCII digits, not whatever int() reads
        pytest.param(["decode", "\u0667\u0666\u0662\u0661\u0664\u0669"], "ASCII digits",
                     id="decode-arabic-indic-digits"),
        pytest.param(["decode", "762_149"], "ASCII digits", id="decode-underscore"),
        pytest.param(["decode", "--", " +762149 "], "ASCII digits", id="decode-sign-and-spaces"),
        # sentences outside the ground model, or outside any class
        pytest.param(["eval-tr", "--formula", "(= (num w[a]) 0)"], None, id="eval-tr-family"),
        pytest.param(["eval-tr", "--formula", "(= v0 0)"], None, id="eval-tr-open"),
        pytest.param(["eval-tr", "--class", "q1", "--formula", "(= 0 0)"], None,
                     id="eval-tr-unknown-class"),
        # values the ground model cannot compute
        pytest.param(["eval-tr", "--class", "s1", "--formula", "(bex 0 csym:a (= v0 v0))"],
                     None, id="eval-tr-symbolic-bound"),
        pytest.param(["eval-tr", "--formula", "(= (* csym:a csym:b) 0)"], None,
                     id="eval-tr-symbolic-product"),
        # an element that does not parse
        pytest.param(["witness", "delta", "--a", "foo bar"], None, id="witness-bad-element"),
        # witness parameters the structure cannot take
        pytest.param(["witness", "delta", "--a", "3"], None, id="witness-delta-standard-index"),
        pytest.param(["witness", "free-tower", "--a", "w[a]", "--b", "w[a]"], None,
                     id="witness-free-tower-shared-base"),
        pytest.param(["witness", "sc-tower", "--family", "num", "--height", "3",
                      "--a", "w[a]"], None, id="witness-sc-tower-standard-height"),
        # options a request needs, each named in the message
        pytest.param(["witness", "delta"], "--a", id="witness-delta-no-a"),
        pytest.param(["witness", "sc-tower"], "--a", id="witness-sc-tower-no-a"),
        pytest.param(["witness", "free-tower"], "--a", id="witness-free-tower-no-a"),
        pytest.param(["witness", "sc-tower", "--a", "3"], "--height",
                     id="witness-sc-tower-no-height"),
        pytest.param(["witness", "free-tower", "--a", "w[a]"], "--b",
                     id="witness-free-tower-no-b"),
        pytest.param(["skolem", "--q", "[E0]"], "--formula", id="skolem-no-table-or-formula"),
        pytest.param(["skolem", "--q", "[X0]", "--formula", "(= 0 0)"], "--q",
                     id="skolem-bad-quantifier"),
        # a negative depth checked nothing and a grid below 1 found an empty table
        pytest.param(["witness", "delta", "--a", "w[a]", "--depth", "-1", "--json"], "--depth",
                     id="witness-negative-depth"),
        pytest.param(["skolem", "--q", "[A0,E1]", "--formula", "(= v0 (sc v1))", "--grid", "0"],
                     "--grid", id="skolem-grid-zero"),
        # the bound starts at 1
        pytest.param(["gbound", "0"], "gbound: n ", id="gbound-zero"),
        pytest.param(["gbound", "--", "-1"], "gbound: n ", id="gbound-negative"),
        # an abbreviation outside a box in a certificate line or an ax
        # argument, named by its line (a (name, text) pair is a file
        # holding the text)
        pytest.param(["prop-check", "--first-order", "--cert", ("cert.sexp", (
            "(cert (line (or (not (and (= c2 c2) (= c2 c2))) "
            "(ex 0 (and (= v0 c2) (= v0 c2)))) ax-fo))"))],
            "certificate line 0", id="prop-check-abbreviation-in-a-line"),
        pytest.param(["prop-check", "--cert", ("cert.sexp", (
            "(cert (line (= 0 0) hyp) (line (or (not (= 0 0)) (or (= 0 0) (tf (= 0 0)))) "
            "(ax add l (= 0 0) (and (= 0 0) (= 0 0)))))"))],
            "certificate line 1", id="prop-check-abbreviation-in-an-ax-argument"),
        # an abbreviation as a chain step, whose box cannot unfold, or
        # outside a box in the input
        pytest.param(["approx", "--chain", ("chain.sexp", "(chain (and (= 0 0) (= 0 0)))"),
                      "--input", "(tf (and (= 0 0) (= 0 0)))"], "chain step 0",
                     id="approx-abbreviation-as-a-step"),
        pytest.param(["approx", "--chain", ("chain.sexp", "(chain (= 0 0))"),
                      "--input", "(and (= 0 0) (= 0 0))"], "--input",
                     id="approx-abbreviation-outside-a-box"),
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, argv, option):
        argv = list(argv)
        for k, a in enumerate(argv):
            if isinstance(a, tuple):
                name, text = a
                argv[k] = str(tmp_path / name)
                (tmp_path / name).write_text(text)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert option is None or option in err

    @pytest.mark.parametrize("command, text, flags", [
        pytest.param("henkin", "(= 0 0)\n", ["--delta-witness", "foo bar"],
                     id="henkin-bad-delta-witness"),
        pytest.param("quotient", "(= 0 0)\n(not (= 0 0))\n", [], id="quotient-non-equation"),
    ])
    def test_bad_file_input_exits_2(self, tmp_path, capsys, command, text, flags):
        f = tmp_path / "input.txt"
        f.write_text(text)
        option = "--enumeration" if command == "henkin" else "--equations"
        code = main([command, option, str(f)] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["(cert (line))", "(cert (line (= 0 0) (ax)))",
                                      "(cert (line (= 0 0) (mp 0)))", "(cert ())"])
    def test_malformed_certificate_exits_2(self, tmp_path, capsys, text):
        f = tmp_path / "cert.sexp"
        f.write_text(text)
        code = main(["prop-check", "--cert", str(f)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("template, field", INTEGER_FIELDS)
    @pytest.mark.parametrize("bad", NOT_NATURALS)
    def test_loose_integer_field_exits_2(self, tmp_path, capsys, template, field, bad):
        f = tmp_path / "input.sexp"
        f.write_text(template.format(bad))
        argv = (["prop-check", "--cert", str(f)] if template.startswith("(cert")
                else ["check", "--in", str(f)])
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err == f"error: expected {field}, found {bad!r}\n"


class TestWitnessCommands:
    def test_delta(self, capsys):
        code, out = run_cli(
            ["witness", "delta", "--a", "w[a]", "--depth", "8"], capsys)
        assert code == 0 and "ok: True" in out

    def test_sc_tower(self, capsys):
        code, out = run_cli(
            ["witness", "sc-tower", "--family", "num", "--height", "w[h]",
             "--a", "w[a]", "--depth", "10"], capsys)
        assert code == 0 and "ok: True" in out

    def test_free_tower(self, capsys):
        code, out = run_cli(
            ["witness", "free-tower", "--a", "w[a]", "--b", "w[b]",
             "--depth", "6"], capsys)
        assert code == 0 and "ok: True" in out

    def test_towers_of_depth_40_finish(self):
        # a tower unfolds to Add(c, c) or Or(s, s) over one child; walks
        # that lost that sharing took 2^depth steps (depth 14 took seconds,
        # 40 would never end)
        assert_finishes("""if True:
            import contextlib, io, json
            from satkit.cli import main
            for argv, want in [
                    (["sc-tower", "--family", "addtower", "--height", "w[h]"], "ω[a]"),
                    (["delta"], "True"),
                    (["free-tower", "--b", "w[b]"], "True")]:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["witness", *argv, "--a", "w[a]", "--depth", "40", "--json"])
                results = json.loads(out.getvalue())["results"]
                assert code == 0 and len(results) == 41, (argv, code, results)
                assert all(v == want for _, v in results), (argv, results)
            print("ok")
        """)


class TestDataCommands:
    def test_quotient(self, tmp_path, capsys):
        f = tmp_path / "eqs.sexp"
        f.write_text("(= (+ (sc 0) (sc 0)) c2)\n(= (sc 0) c1)\n")
        code, out = run_cli(["quotient", "--equations", str(f)], capsys)
        assert code == 0
        assert "injective-on-constants: True" in out

    def test_henkin(self, tmp_path, capsys):
        f = tmp_path / "enum.txt"
        f.write_text("(= 0 0)\n(= c1 c2)\n(ex 0 (= v0 c3))\n")
        code, out = run_cli(["henkin", "--enumeration", str(f)], capsys)
        assert code == 0 and "clauses-pass: True" in out

    def test_henkin_with_a_delta_witness(self, tmp_path, capsys):
        # the delta structure's oracle decides delta at w[a]-1 and w[a]-2,
        # which have no ground value
        lam, enum = tmp_path / "lam.txt", tmp_path / "enum.txt"
        lam.write_text("(delta w[a])\n")
        enum.write_text("(delta w[a]-1)\n(delta w[a]-2)\n")
        code, out = run_cli(["henkin", "--enumeration", str(enum), "--lam", str(lam),
                             "--delta-witness", "w[a]"], capsys)
        assert code == 0 and "clauses-pass: True" in out
        assert "+ (delta ω[a]-2)" in out

    def test_skolem_find_and_check(self, tmp_path, capsys):
        code, out = run_cli(
            ["skolem", "--q", "[A0,E1]", "--formula", "(= (+ v0 c2) v1)",
             "--grid", "4", "--search", "8"], capsys)
        assert code == 0 and "found: True" in out
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"0": [0], "1": [1]}))
        code, out = run_cli(
            ["skolem", "--q", "[A0,E1]", "--table", str(table)], capsys)
        assert code == 0 and "ok: True" in out

    def test_prop_check(self, tmp_path, capsys):
        from satkit.propcalc import derive_or_search
        cert = derive_or_search(
            sx.Or(sx.Eq(sx.ZERO, sx.ZERO), sx.Not(sx.Eq(sx.ZERO, sx.ZERO))), [])
        f = tmp_path / "cert.sexp"
        f.write_text(sexpr.print_certificate(cert))
        code, out = run_cli(["prop-check", "--cert", str(f)], capsys)
        assert code == 0 and "ok: True" in out

    @pytest.mark.parametrize("form, code", [("r", 0), ("zz", 1), ("_", 1)])
    def test_prop_check_rejects_an_unlisted_form(self, tmp_path, capsys, form, code):
        # (= 0 0) -> ((= c1 c1) or (= 0 0)) is an add/r instance; add has no
        # other form that builds it
        line = "(or (not (= 0 0)) (or (= c1 c1) (= 0 0)))"
        f = tmp_path / "cert.sexp"
        f.write_text(f"(cert (line {line} (ax add {form} (= 0 0) (= c1 c1))))")
        got, out = run_cli(["prop-check", "--cert", str(f)], capsys)
        assert got == code and f"ok: {code == 0}" in out

    @pytest.mark.parametrize("flags, code", [(["--first-order"], 0), ([], 1)])
    def test_prop_check_first_order_line(self, tmp_path, capsys, flags, code):
        # (= c2 c2) -> (ex 0 (= v0 c2)) instantiates a quantifier: an axiom
        # of the first-order certificates only
        f = tmp_path / "cert.sexp"
        f.write_text("(cert (line (= c2 c2) hyp)"
                     " (line (or (not (= c2 c2)) (ex 0 (= v0 c2))) ax-fo)"
                     " (line (ex 0 (= v0 c2)) (mp 1 0)))")
        hyps = tmp_path / "hyps.txt"
        hyps.write_text("(= c2 c2)\n")
        got, out = run_cli(["prop-check", "--cert", str(f), "--hyps", str(hyps)] + flags,
                           capsys)
        assert got == code and out.strip() == f"ok: {code == 0}"

    def test_approx(self, tmp_path, capsys):
        chain = tmp_path / "chain.sexp"
        chain.write_text("(chain (delta 2))")
        code, out = run_cli(
            ["approx", "--chain", str(chain), "--input", "(tf (delta 2))"], capsys)
        assert code == 0
        d1 = "(or (not (= 0 0)) (not (= 0 0)))"
        assert out.strip() == f"(or (tf {d1}) (tf {d1}))"

    def test_manifests(self, capsys):
        code, out = run_cli(["manifest", "encoding"], capsys)
        assert code == 0 and json.loads(out)["base"] == 16
        code, out = run_cli(["manifest", "axioms"], capsys)
        assert code == 0 and "schemes" in json.loads(out)


class TestProofFileFormat:
    def test_whole_corpus_round_trips_and_rechecks(self):
        from satkit.corpus import base_corpus
        from satkit.kernel import check
        for entry in base_corpus():
            text = sexpr.print_proof(entry.proof)
            back = sexpr.parse_proof(text)
            assert sexpr.print_proof(back) == text, entry.name
            assert check(back, entry.policy).ok, entry.name


class TestExtendedNodeFiles:
    def test_certified_and_skolem_nodes_round_trip(self):
        from satkit.corpus import mprop_entries
        from satkit.kernel import Proof, RulePolicy, check, seq
        from satkit.skolem import apply_skolem, build_prefixed, quantseq, table_of
        from satkit.elements import std
        for entry in mprop_entries():
            text = sexpr.print_proof(entry.proof)
            back = sexpr.parse_proof(text)
            assert sexpr.print_proof(back) == text
            assert check(back, entry.policy).ok, entry.name

        q = quantseq(("A", 0), ("E", 1))
        phi = sx.Eq(sx.Var(1), sx.Succ(sx.Var(0)))
        table = table_of({(k,): (k + 1,) for k in range(3)})
        samples = ((0,), (1,), (2,))
        prems = tuple(
            Proof(seq(apply_skolem(phi, q, table, a)), "axiomL") for a in samples)
        node = Proof(seq(build_prefixed(q, phi)), "skolem", prems,
                     info={"skolem": {"q": q, "table": table, "phi": phi,
                                      "samples": samples}})
        pol = RulePolicy(allow_skolem=True, extra_axioms=lambda f: True)
        text = sexpr.print_proof(node)
        back = sexpr.parse_proof(text)
        assert sexpr.print_proof(back) == text
        assert check(back, pol).ok

        inst = sx.Eq(sx.Add(sx.const(std(2)), sx.const(std(3))), sx.const(std(5)))
        block_node = Proof(
            seq(sx.Ex(0, sx.Ex(1, sx.Ex(2, sx.Eq(sx.Add(sx.Var(0), sx.Var(1)), sx.Var(2)))))),
            "i-ex-inf",
            (Proof(seq(inst), "axiomL"),),
            info={"block": (0, 1, 2), "tuple": (std(2), std(3), std(5))})
        pol2 = RulePolicy(allow_inf=True, extra_axioms={inst}.__contains__)
        text = sexpr.print_proof(block_node)
        back = sexpr.parse_proof(text)
        assert sexpr.print_proof(back) == text
        assert check(back, pol2).ok

    def test_block_tuple_over_a_schema_parameter_checks_from_a_file(self, tmp_path, capsys):
        from satkit.elements import Sym
        from test_kernel import schema_block_proof
        f = tmp_path / "block.sexp"
        f.write_text(sexpr.print_proof(
            schema_block_proof("i-ex-inf", {"block": (1,), "tuple": (Sym("q"),)})) + "\n")
        code, out = run_cli(["check", "--in", str(f), "--allow-inf"], capsys)
        assert code == 0 and out == "ok: True\nheight: 3\n"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        p = commute_or_proof(sx.Eq(sx.ZERO, sx.ZERO),
                             sx.Eq(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)))
        f = tmp_path / "proof.sexp"
        f.write_text(sexpr.print_proof(p) + "\n")
        cmd = [sys.executable, "-m", "satkit", "check", "--in", str(f), "--json"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b

    def test_usage_error_exit_code(self):
        cmd = [sys.executable, "-m", "satkit", "no-such-command"]
        out = subprocess.run(cmd, capture_output=True)
        assert out.returncode == 2

    def test_unknown_witness_structure_is_a_usage_error(self, capsys):
        # the gallery's tr-sigma structure has no approximation check
        assert main(["witness", "tr-sigma"]) == 2
        assert capsys.readouterr().err.startswith("usage: ")


class TestRepeatedCalls:
    """main can be called again and again in one process: the parser is
    built once, and no call leaves state for the next."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        """main with no parser built yet; yields the build_parser calls."""
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        return built

    @pytest.fixture
    def requests(self, tmp_path):
        proof = tmp_path / "proof.sexp"
        proof.write_text(sexpr.print_proof(commute_or_proof(
            sx.Eq(sx.ZERO, sx.ZERO), sx.Eq(sx.Succ(sx.ZERO), sx.Succ(sx.ZERO)))) + "\n")
        enum = tmp_path / "enum.txt"
        enum.write_text("(= (+ c2 c3) c5)\n(not (= c4 c6))\n(ex 0 (= (+ v0 c2) c7))\n")
        return [
            ["check", "--in", str(proof), "--json"],
            ["check", "--in", str(proof), "--logic", "template"],
            ["henkin", "--enumeration", str(enum), "--json"],
            ["witness", "sc-tower", "--height", "w[h]", "--a", "w[a]", "--depth", "4"],
            ["skolem", "--q", "[A0,E1]", "--formula", "(= (+ v0 c2) v1)", "--grid", "3",
             "--search", "6", "--json"],
            ["eval-tr", "--formula", "(= (+ c1 c1) c2)"],
        ]

    def test_the_parser_is_built_once(self, fresh, requests, capsys):
        for argv in requests + [["no-such-command"], ["gbound", "--help"], ["gbound", "4"]]:
            main(argv)
        assert fresh == [1]

    def test_identical_requests_give_identical_reports(self, fresh, requests, capsys):
        between = [["no-such-command"], ["check", "--help"], ["gbound", "4"],
                   ["witness", "delta"], ["eval-tr", "--formula", "(= v0 0)"]]
        for argv in requests:
            first = main(argv), capsys.readouterr().out
            for other in between:
                main(other)
            capsys.readouterr()
            assert (main(argv), capsys.readouterr().out) == first, argv
        assert fresh == [1]

    def test_a_name_rebound_after_the_first_call_is_used(self, monkeypatch, capsys):
        assert main(["gbound", "2"]) == 0
        seen = []
        g_bound = cli.g_bound
        monkeypatch.setattr(cli, "g_bound", lambda n, force: seen.append(n) or g_bound(n, force))
        assert main(["gbound", "2"]) == 0 and seen == [2]
        monkeypatch.setattr(cli, "cmd_gbound", lambda args: 1)
        assert main(["gbound", "2"]) == 1 and seen == [2]

    def test_no_parser_default_is_mutable(self):
        parsers, defaults = [build_parser()], []
        while parsers:
            p = parsers.pop()
            defaults += [a.default for a in p._actions] + list(p._defaults.values())
            parsers += [sp for a in p._actions if a.choices and isinstance(a.choices, dict)
                        for sp in a.choices.values()]
        assert len(defaults) > 50
        assert all(d is None or type(d) in (bool, int, str) for d in defaults)
