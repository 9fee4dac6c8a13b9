import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewgt import cli, gln, gtmodules, relations, toy
from skewgt.polys import quote
from skewgt.skew import commutator

from conftest import dense


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n", "3"])
    assert code == 0
    assert "suite gl2" in out and "suite gl3" in out
    assert "fail" not in out.replace("identities passed", "")


def test_verify_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["verify", "--suite", "gl3"])
    code2, out2, _ = run(capsys, ["verify", "--suite", "gl3"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_json_schema(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, ["verify", "--suite", "localized", "--json", str(path)])
    assert code == 0
    body = json.loads(path.read_text())
    assert body["suite"] == "localized"
    assert all(r["status"] == "pass" for r in body["results"])
    assert all({"id", "status", "anchor"} <= set(r) for r in body["results"])


def test_verify_usage_error(capsys):
    code, _, _ = run(capsys, ["verify", "--suite", "nonsense"])
    assert code == 2
    code, _, err = run(capsys, ["verify", "--suite", "gl3", "--n", "4"])
    assert code == 2 and "n=3" in err
    code, out, err = run(capsys, ["verify", "--suite", "gl2", "--n", "1"])
    assert code == 2 and out == ""
    assert "suite gl2 needs n >= 2 (got n=1)" in err
    for suite, n in (("invariants", "7"), ("localized", "2"), ("all", "4")):
        code, out, err = run(capsys, ["verify", "--suite", suite, "--n", n])
        assert code == 2 and out == ""
        assert f"runs at n=3 only (got --n {n})" in err
    code, _, _ = run(capsys, ["verify", "--suite", "invariants", "--n", "3"])
    assert code == 0


def test_compute_commutator(capsys):
    code, out, _ = run(capsys, ["compute", "--expr", "[V2, A21+]"])
    assert code == 0
    expected = gln.element(gln.triangle(3), "A21+")
    assert out.strip() == str(expected)


def test_compute_expression_grammar():
    ctx = gln.triangle(3)
    value = cli.compute_expression("X1+*X1- - X1-*X1+", 3)
    assert value == commutator(gln.element(ctx, "X1+"), gln.element(ctx, "X1-"))
    assert cli.compute_expression("2*X11 - X11 - X11", 3).is_zero
    assert cli.compute_expression("V2^2", 3) == gln.element(ctx, "V2") ** 2
    assert cli.compute_expression("-(X11)", 3) == -gln.element(ctx, "X11")
    assert cli.compute_expression("[V2,[V2,A21+]]", 3) == gln.element(ctx, "A21+")


def test_compute_bad_expression(capsys):
    code, _, err = run(capsys, ["compute", "--expr", "X9+"])
    assert code == 2 and "error" in err
    assert "X9+ out of range for n=3" in err
    code, _, err = run(capsys, ["compute", "--expr", "A91-", "--n", "4"])
    assert code == 2 and "A91- out of range for n=4" in err
    # a KeyError's message is printed as it is, not as its repr
    code, out, err = run(capsys, ["compute", "--expr", "Foo"])
    assert code == 2 and out == ""
    assert err == "error: unknown element name 'Foo'\n"
    # an exponent is a nonnegative integer; '-' used to reach int()
    code, out, err = run(capsys, ["compute", "--expr", "X11^-1", "--n", "2"])
    assert code == 2 and out == ""
    assert err == "error: bad exponent '-': expected a nonnegative integer after '^'\n"
    # numbers past the digit budget, in an exponent or a coefficient
    for expr in ("X11^{}", "{}*X11", "(X11^2)^{}"):
        for digits in (cli.MAX_DIGITS + 1, 5000):
            code, out, err = run(capsys, ["compute", "--expr", expr.format("2" * digits),
                                          "--n", "2"])
            assert code == 2 and out == ""
            assert err == f"error: --expr number 222222222222... has {digits} " \
                f"digits, over the digit budget of {cli.MAX_DIGITS}\n"
    # a binary sum, with and without the spaces that split a trailing sign
    for expr in ("X11+X22", "X11 + X22"):
        code, out, _ = run(capsys, ["compute", "--expr", expr])
        assert code == 0 and out == "[x21 + x22 + 1] e\n"
    for expr, message in (("X11/2", "cannot tokenize '/2'"),
                          ("[X11 X22]", "expected ',', found 'X22'"),
                          ("X11 X22", "trailing input at 'X22'"),
                          ("X11 +", "unexpected end of expression"),
                          # an operator where an operand belongs is not
                          # looked up as a name
                          ("X1+**3", "expected an operand, found '*'"),
                          ("()", "expected an operand, found ')'"),
                          ("[,X1+]", "expected an operand, found ','")):
        code, out, err = run(capsys, ["compute", "--expr", expr])
        assert code == 2 and out == "" and err == f"error: {message}\n"
    code, out, _ = run(capsys, ["compute", "--expr", "2" * cli.MAX_DIGITS + "*X11", "--n", "2"])
    assert code == 0 and out.startswith("[" + "2" * cli.MAX_DIGITS + "*(x11)]")
    # an int flag past the digit budget is refused before int(), in a
    # message that quotes only its first digits
    for cmd in ("compute", "verify"):
        extra = [] if cmd == "verify" else ["--expr", "X11"]
        for digits in (cli.MAX_DIGITS + 1, 5000):
            code, out, err = run(capsys, [cmd, *extra, "--n", "1" * digits])
            assert code == 2 and out == "" and len(err.encode()) < 300
            assert f"argument --n: the number 111111111111... has {digits} digits, " \
                f"over the digit budget of {cli.MAX_DIGITS}\n" in err
        code, out, err = run(capsys, [cmd, *extra, "--n", "1" * cli.MAX_DIGITS])
        assert code == 2 and out == ""
        assert err.endswith(f"exceeds the rank budget of {cli.MAX_RANK}\n")
    code, _, err = run(capsys, ["compute", "--expr", "X11", "--n", "two"])
    assert code == 2 and "argument --n: invalid integer value: 'two'" in err


def test_gt_finite(capsys, tmp_path):
    path = tmp_path / "mod.json"
    code, out, _ = run(capsys, ["gt", "--top", "2,1,0", "--signs", "all-plus",
                                "--check", "--json", str(path)])
    assert code == 0
    assert "dimension: 8" in out
    assert "r[2] = 4" in out
    body = json.loads(path.read_text())
    assert body["dim"] == 8
    assert all(r["status"] == "pass" for r in body["report"]["results"])


def test_gt_signs_variants(capsys):
    code, out, _ = run(capsys, ["gt", "--top", "2,1,0", "--signs", "+,+,+,+",
                                "--check"])
    assert code == 0 and "dimension: 8" in out and "r[2] = 4" in out
    code, out, _ = run(capsys, ["gt", "--top", "2,1,0",
                                "--signs", "+,-,+,-,+"])
    assert code == 0
    code, _, err = run(capsys, ["gt", "--top", "2,1,0", "--signs", "+,+"])
    assert code == 2
    assert "need 5 signs (rows 2..3) or 4 (top row defaulted), got 2" in err


def test_flat_signs_match_per_row_vectors():
    """A flat --signs list is the rows 2..n in order, each over its
    sorted fillings; without its last sign the top row takes +1."""
    top = (3, 2, 1, 0)
    fillings = gtmodules.row_fillings(top)
    counts = [len(fillings[k]) for k in (2, 3, 4)]
    assert counts == [8, 8, 1]
    vec2 = [(-1) ** i for i in range(8)]
    vec3 = [1 if i % 3 else -1 for i in range(8)]
    flat = ",".join("+" if s == 1 else "-" for s in vec2 + vec3)
    for text, top_sign in ((flat + ",-", -1), (flat + ",+1", 1), (flat, 1)):
        assert cli._parse_signs(text, top) == gtmodules.SignData.from_vectors(
            fillings, {2: vec2, 3: vec3, 4: [top_sign]}), text
    for text, sign in (("all-minus", -1), ("-", -1), ("all-plus", 1), (None, 1)):
        assert cli._parse_signs(text, top) == gtmodules.SignData.from_vectors(
            fillings, {k: [sign] * c for k, c in zip((2, 3, 4), counts)}), text


def test_gt_walks_the_rows_once(capsys, monkeypatch):
    calls, expanded = [], []
    row_fillings, rows_below = gtmodules.row_fillings, gtmodules._rows_below

    def counted(top):
        calls.append(top)
        return row_fillings(top)

    def counted_below(row):
        expanded.append(row)
        return rows_below(row)

    monkeypatch.setattr(gtmodules, "row_fillings", counted)
    monkeypatch.setattr(gtmodules, "_rows_below", counted_below)
    code, out, _ = run(capsys, ["gt", "--top", "2,1,0", "--signs", "all-minus", "--check"])
    assert code == 0 and "row fillings: r[2] = 4, r[3] = 1" in out
    assert calls == [(2, 1, 0)]
    # the basis comes from the same walk: each distinct row above the
    # bottom is expanded once (the top row and the 4 row-2 fillings)
    assert len(expanded) == len(set(expanded)) == 5
    for top, count in (("3,2,1,0", 17), ("4,2,1,0", 24)):
        expanded.clear()
        code, _, _ = run(capsys, ["gt", "--top", top])
        assert code == 0 and len(expanded) == len(set(expanded)) == count, top


def test_gt_bad_inputs(capsys):
    code, _, err = run(capsys, ["gt", "--top", "0,1"])
    assert code == 2 and "decreasing" in err
    code, _, err = run(capsys, ["gt", "--generic", "1/2; 1,0; 2,1,0",
                                "--window", "1"])
    assert code == 2 and "regular" in err
    code, _, err = run(capsys, ["gt"])
    assert code == 2
    # a conversion error names the entry: int() and Fraction() used to
    # print "invalid literal ..." and "Fraction(1, 0)"
    for top, entry in (("2.5,1", "2.5"), ("2,,0", ""), ("1_000,0", "1_000")):
        code, out, err = run(capsys, ["gt", "--top", top])
        assert code == 2 and out == ""
        assert err == f"error: bad top row entry {entry!r}: expected an integer\n"
    code, out, err = run(capsys, ["gt", "--generic", "1/0; 1,0"])
    assert code == 2 and out == ""
    assert err == "error: bad point entry '1/0': expected a nonzero denominator\n"
    code, out, err = run(capsys, ["gt", "--top", "0", "--check"])
    assert code == 2 and out == ""
    assert "top row of length n >= 2 (got n=1)" in err
    code, out, _ = run(capsys, ["gt", "--top", "0"])
    assert code == 0 and "dimension: 1" in out
    # a rank-1 top row has no row to sign: "+,-" used to print the bare
    # KeyError "error: 1", and "+" and "all-minus" were accepted
    for signs in ("+,-", "+", "all-minus", "all-plus", "-1"):
        code, out, err = run(capsys, ["gt", "--top", "0", "--signs", signs])
        assert code == 2 and out == ""
        assert err == "error: --signs does not apply to a top row of length 1: " \
            "signs are chosen on rows 2..n\n"
    # only integers, a/b and plain decimals: exponent notation is refused
    # before Fraction expands it
    for entry in ("1e9999999", "1e400", "1E3", "2.5e-3", "0x10", "1_000", "inf"):
        code, out, err = run(capsys, ["gt", f"--generic=1/3; 1/5, 2/7; {entry}, 1, 1",
                                      "--window", "0"])
        assert code == 2 and out == ""
        assert f"bad point entry {entry!r}: expected an integer, a/b or a plain decimal" in err
    for entry in ("-3", "+1", "0.3", ".25", "-1.5"):
        code, out, _ = run(capsys, ["gt", f"--generic=1/3; 1/5, {entry}; 1, 1, 1",
                                    "--window", "0"])
        assert code == 0 and "dimension: 1" in out
    # a number longer than the digit budget is named before int() or
    # Fraction() sees it (past 4 300 digits they printed Python's own limit)
    for flag, text in (("--top", "{},0"), ("--generic", "1/3; {},0"),
                       ("--generic", "1/{}; 1,0"), ("--generic", "1/3; 0.{}, 0")):
        for digits in (cli.MAX_DIGITS + 1, 5000):
            code, out, err = run(capsys, ["gt", flag, text.format("1" * digits)])
            assert code == 2 and out == ""
            assert err == f"error: {flag} number 111111111111... has {digits} digits, " \
                f"over the digit budget of {cli.MAX_DIGITS}\n"
    code, out, _ = run(capsys, ["gt", "--top", "0" * (cli.MAX_DIGITS - 1) + "1,0"])
    assert code == 0 and "top row: 1,0" in out
    for digits in (cli.MAX_DIGITS + 1, 5000):
        code, out, err = run(capsys, ["gt", "--generic", "1/3; 1,0", "--window", "1" * digits])
        assert code == 2 and out == "" and len(err.encode()) < 300
        assert f"argument --window: the number 111111111111... has {digits} digits, " \
            f"over the digit budget of {cli.MAX_DIGITS}\n" in err
    code, out, err = run(capsys, ["gt", "--generic", "1/3; 1,0",
                                  "--window", "1" * cli.MAX_DIGITS])
    assert code == 2 and out == "" and "exceeds the budget" in err


def test_gt_generic_rank_one_check(capsys):
    for window in ("2", "0"):
        code, out, err = run(capsys, ["gt", "--generic", "1/3", "--window", window,
                                      "--check"])
        assert code == 2 and out == ""
        assert "needs a point with n >= 2 rows (got n=1)" in err
    code, out, _ = run(capsys, ["gt", "--generic", "1/3"])
    assert code == 0 and "dimension: 1" in out
    # a radius-0 window has no interior vector, so the report has no data
    code, out, err = run(capsys, ["gt", "--generic", "1/3; 1,0", "--window", "0",
                                  "--check"])
    assert code == 2 and out == ""
    assert "needs a window with interior vectors" in err


def test_size_budgets(capsys, monkeypatch):
    # refused from the dimension, exponent or rank alone, before any work
    code, out, err = run(capsys, ["gt", "--generic", "1/3; 1,0", "--window", "5000"])
    assert code == 2 and out == ""
    assert f"module dimension 10001 exceeds the budget of {gtmodules.MAX_CHECK_DIM}" in err
    code, out, err = run(capsys, ["gt", "--top", "1000,0,0", "--signs", "all-minus"])
    assert code == 2 and out == ""
    assert f"module dimension {gtmodules.weyl_dim((1000, 0, 0))} exceeds" in err
    # --json writes dense rows, so its budget is checked before the build
    with monkeypatch.context() as m:
        def no_build(*args):
            raise AssertionError("built a module over the --json budget")
        m.setattr(gtmodules, "build_module", no_build)
        m.setattr(gtmodules, "build_generic_module", no_build)
        for argv, dim in ((["--top", "6,4,2,0"], 729),
                          (["--generic", "1/3; 1,0", "--window", "250"], 501)):
            code, out, err = run(capsys, ["gt", *argv, "--check", "--json", "-"])
            assert code == 2 and out == ""
            assert f"module dimension {dim} exceeds the --json budget of " \
                f"{gtmodules.MAX_MODULE_DIM}" in err
    # the budget itself is accepted, and a larger module without --json
    cli._check_export_dim("-", gtmodules.MAX_MODULE_DIM)
    cli._check_export_dim(None, gtmodules.MAX_CHECK_DIM)
    code, out, err = run(capsys, ["compute", "--expr", "X1+^100000", "--n", "2"])
    assert code == 2 and out == ""
    assert f"power ^100000 exceeds the exponent budget of {cli.MAX_POWER}" in err
    code, out, _ = run(capsys, ["compute", "--expr", f"X11^{cli.MAX_POWER}", "--n", "2"])
    assert code == 0
    # an exponent on a group multiplies every exponent inside it
    for expr, power in (("(X11^8)^8", 64), ("((X11^2)^2)^4", 16)):
        code, out, err = run(capsys, ["compute", "--expr", expr, "--n", "2"])
        assert code == 2 and out == ""
        assert f"(^{power} with its enclosing powers) exceeds the exponent budget" in err
    for expr in ("(X11^2)^4", "X11^8*X11^8"):
        code, out, _ = run(capsys, ["compute", "--expr", expr, "--n", "2"])
        assert code == 0 and out
    # toy degrees and translates over the budget never reach a witness
    assert toy.parse_univariate(toy.line_context(), f"x^{toy.MAX_DEGREE} + 1").degree() \
        == toy.MAX_DEGREE
    assert toy.parse_inverse_target(f"1/(x-{toy.MAX_TRANSLATE})") == -toy.MAX_TRANSLATE
    with monkeypatch.context() as m:
        def no_witness(spec, c):
            raise AssertionError(f"witness for c={c} started")
        m.setattr(toy, "witness_inverse", no_witness)
        for f in (f"x^{toy.MAX_DEGREE + 1}+1", "x^99999999+1", "2x^3 - x^100000 + 5"):
            code, out, err = run(capsys, ["toy", f"--f={f}", "--target=1/x"])
            assert code == 2 and out == ""
            assert f"exceeds the degree budget of {toy.MAX_DEGREE}" in err
        for c in (toy.MAX_TRANSLATE + 1, -toy.MAX_TRANSLATE - 1, 99999999999999999999):
            code, out, err = run(capsys, ["toy", "--f=x+1", f"--target=1/(x{c:+d})"])
            assert code == 2 and out == ""
            assert f"target translate {c:+d} exceeds the budget of " \
                f"|c| <= {toy.MAX_TRANSLATE}" in err
    # a gt rank over the budget never reaches the Weyl formula or a build;
    # the budget itself lets rank MAX_RANK through to them
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached(args)

    with monkeypatch.context() as m:
        for attr in ("weyl_dim", "build_module", "build_generic_module"):
            m.setattr(gtmodules, attr, reached)
        for n in (cli.MAX_RANK + 1, cli.MAX_RANK):
            top = ["--top", ",".join(["0"] * n)]
            generic = ["--generic", "; ".join(", ".join(["1/3"] * k)
                                              for k in range(1, n + 1)), "--window", "0"]
            for argv in (top, generic, top + ["--check"], generic + ["--check"]):
                if n > cli.MAX_RANK:
                    code, out, err = run(capsys, ["gt", *argv])
                    assert code == 2 and out == ""
                    assert f"rank {n} exceeds the rank budget of {cli.MAX_RANK}" in err
                else:
                    with pytest.raises(Reached):
                        cli.main(["gt", *argv])
    # a rank over the budget never reaches a context
    def no_context(n):
        raise AssertionError(f"context of rank {n} built")
    monkeypatch.setattr(gln, "triangle", no_context)
    for n in ("10", "100000"):
        for argv in (["compute", "--expr", "X11"], ["verify", "--suite", "gl2"]):
            code, out, err = run(capsys, argv + ["--n", n])
            assert code == 2 and out == ""
            assert f"--n {n} exceeds the rank budget of {cli.MAX_RANK}" in err


def test_gelfand_budget(capsys, monkeypatch):
    # an image over the tuple budget is refused before any matrix-unit
    # image is built; c43, at the budget, reaches the builders
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached(args)

    monkeypatch.setattr(gln, "matrix_unit_image", reached)
    for expr, n, rank, k in (("c99", "9", 9, 9), ("c44", "4", 4, 4)):
        code, out, err = run(capsys, ["compute", "--expr", expr, "--n", n])
        assert code == 2 and out == ""
        assert f"c{rank}{k} sums {rank}^{k} = {rank ** k} index tuples, over the " \
            f"budget of {gln.MAX_GELFAND_TUPLES}" in err
    assert 4 ** 3 == gln.MAX_GELFAND_TUPLES
    with pytest.raises(Reached):
        cli.main(["compute", "--expr", "c43", "--n", "4"])


def test_gt_refuses_unused_flags(capsys):
    # --top and --generic exclude each other, and one of them is required;
    # --signs belongs to --top and --window to --generic
    for argv in (["--top", "2,1,0", "--generic", "1/3; 1,0"], []):
        code, out, err = run(capsys, ["gt", *argv, "--check"])
        assert code == 2 and out == ""
        assert "--top" in err and "--generic" in err
    for argv, flag in ((["--generic", "1/3; 1,0", "--signs", "all-minus"], "--signs"),
                       (["--generic", "1/3; 1,0", "--signs", "all-plus"], "--signs"),
                       (["--top", "2,1,0", "--window", "1"], "--window"),
                       (["--top", "2,1,0", "--window", "2"], "--window")):
        code, out, err = run(capsys, ["gt", *argv, "--check"])
        assert code == 2 and out == ""
        assert f"{flag} does not apply to --{argv[0][2:]}" in err


def test_nesting_budget(capsys):
    # groups nested to the budget parse; one past it, and the deep or
    # unbalanced nesting that used to exhaust the parser's recursion, are
    # refused before parsing
    depth = cli.MAX_DEPTH
    for open_, close, inner in (("(", ")", "X11"), ("[X11, ", "]", "X11")):
        expr = open_ * depth + inner + close * depth
        code, out, _ = run(capsys, ["compute", "--expr", expr, "--n", "2"])
        assert code == 0 and out
        for expr in (open_ * (depth + 1) + inner + close * (depth + 1),
                     open_ * 250 + inner + close * 250, open_ * 300 + inner):
            code, out, err = run(capsys, ["compute", "--expr", expr, "--n", "2"])
            assert code == 2 and out == ""
            assert f"groups nested {depth + 1} deep exceed the nesting budget " \
                f"of {depth}" in err


def test_toy_refuses_malformed_f(capsys):
    for f in ("x^2x^3", "x^2*3", "2x3", "x^2 + + 1"):
        code, out, err = run(capsys, ["toy", f"--f={f}", "--target=1/x"])
        assert code == 2 and out == ""
        assert f"cannot parse polynomial {f!r}" in err


def test_verify_suite_registry(capsys, monkeypatch):
    # every name in the registry is a choice, and `all` runs them in order
    code, out, _ = run(capsys, ["verify", "--suite", "all"])
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("suite ")] == [f"suite {name}" for name in
                                              relations.SUITES]
    # a conflicting --n is refused for every requested suite before any runs
    def never(*args):
        raise AssertionError("a suite ran")
    for name in relations.SUITES:
        monkeypatch.setattr(relations, f"suite_{name}", never)
    with pytest.raises(ValueError, match="suite gl3 runs at n=3 only"):
        relations.run_suites(["gl2", "gl3"], 4)
    # suite functions are looked up when they run
    monkeypatch.setattr(relations, "suite_localized", lambda: "stub")
    assert relations.run_suites(["localized"], 3) == ["stub"]


def test_gt_generic(capsys):
    code, out, _ = run(capsys, ["gt", "--generic", "1/3; 1,0",
                                "--window", "2", "--check"])
    assert code == 0
    assert "dimension: 5 (3 interior)" in out
    assert "generic-module" in out


def test_toy_cli(capsys):
    code, out, _ = run(capsys, ["toy", "--f", "x^2+1", "--target", "1/(x-2)"])
    assert code == 0
    assert "verified: exact equality holds" in out
    code, _, err = run(capsys, ["toy", "--f", "x^2+x", "--target", "1/x"])
    assert code == 2 and "f(0)" in err
    # a zero denominator names the entry, not a Fraction repr
    for f, coeff in (("1/0", "1/0"), ("2/0x+1", "2/0")):
        code, out, err = run(capsys, ["toy", "--f", f, "--target", "1/x"])
        assert code == 2 and out == ""
        assert err == f"error: cannot parse polynomial {f!r}: bad coefficient " \
            f"{coeff!r}: expected a nonzero denominator\n"
    for target in ("1/(x+)", "1/(x-2.5)", "1/(x+-1)", "1/y"):
        code, out, err = run(capsys, ["toy", "--f", "x+1", "--target", target])
        assert code == 2 and out == ""
        assert err == f"error: cannot parse inverse target {target!r}: " \
            "expected 1/x or 1/(x+c) with an integer c\n"
    # numbers past the digit budget: a translate, a coefficient, a
    # denominator and an exponent of f
    many = "3" * 5000
    for flag, f, target in (("--target", "x+1", f"1/(x+{many})"),
                            ("--target", "x+1", f"1/(x-{many})"),
                            ("--f", f"{many}x+1", "1/x"),
                            ("--f", f"x+1/{many}", "1/x"),
                            ("--f", f"x^{many}+1", "1/x")):
        code, out, err = run(capsys, ["toy", "--f", f, "--target", target])
        assert code == 2 and out == ""
        assert err == f"error: {flag} number 333333333333... has 5000 digits, " \
            f"over the digit budget of {cli.MAX_DIGITS}\n"


def test_export_roundtrip(capsys, tmp_path):
    """The "element" body `compute --json` writes reads back as the same
    skew element."""
    path = tmp_path / "el.json"
    code, _, _ = run(capsys, ["compute", "--expr", "X2+", "--n", "3",
                              "--json", str(path)])
    assert code == 0
    body = json.loads(path.read_text())
    ctx = gln.triangle(3)
    from skewgt.skew import SkewElement
    assert SkewElement.from_json(ctx, body["element"]) == gln.element(ctx, "X2+")


def test_rank_must_be_positive(capsys):
    code, out, err = run(capsys, ["compute", "--expr", "X11", "--n", "0"])
    assert code == 2 and out == ""
    assert "needs n >= 1 (got n=0)" in err


def run_into_closed_pipe(argv):
    """Run the console entry point with stdout a pipe whose read end is
    already closed."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "skewgt.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, cwd=root, env=env, timeout=120)
    finally:
        os.close(write_end)


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe early (`skewgt gt ... | head -1`)
    gets no traceback: the console entry point exits with 141, the
    status of a process ended by SIGPIPE, so 1 keeps meaning a failed
    check."""
    proc = run_into_closed_pipe(["gt", "--top", "3,2,1,0", "--check"])
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_closed_stdout_while_streaming_json_exits_quietly():
    """The same holds when the pipe breaks inside the streamed JSON."""
    proc = run_into_closed_pipe(["gt", "--top", "4,2,1,0", "--check", "--json", "-"])
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_unwritable_json_path(capsys, tmp_path):
    """The --json target is opened before the first print, so a bad path
    exits 2 with nothing on stdout, and the path is quoted like any
    refused entry."""
    path = str(tmp_path / "missing" / "out.json")
    for argv in (["verify", "--suite", "gl2"], ["compute", "--expr", "X11"],
                 ["gt", "--top", "2,1,0"], ["toy", "--f", "x+2", "--target", "1/(x-3)"]):
        code, out, err = run(capsys, argv + ["--json", path])
        assert code == 2 and out == ""
        assert f"cannot write --json file {quote(path)}" in err
    code, out, err = run(capsys, ["compute", "--expr", "X11", "--json", "x" * 5000])
    assert code == 2 and out == ""
    assert f"cannot write --json file {quote('x' * 5000)}" in err and len(err) < 300


HANDLER_JOBS = {
    "verify": ["verify", "--suite", "gl2", "--n", "2"],
    "compute": ["compute", "--expr", "X11", "--n", "2"],
    "gt": ["gt", "--top", "1,0", "--check"],
    "toy": ["toy", "--f", "x+2", "--target", "1/(x-3)"],
}


def test_handlers_print_nothing(capsys):
    """Every handler only computes: it writes nothing itself and returns
    (text, payload, code), leaving `cli.main` the one output path."""
    assert set(HANDLER_JOBS) == set(cli.COMMANDS)
    for argv in HANDLER_JOBS.values():
        args = cli.parse_args(argv + ["--json", "-"])
        text, payload, code = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert isinstance(text, str) and text
        assert callable(payload) and isinstance(payload(), dict)
        assert isinstance(code, int) and code == 0


# sha256 of stdout, recorded while every polynomial coefficient was still
# stored as a Fraction: the int/Fraction storage rule must not change a
# printed form or a JSON body by one byte.  The `gt` digests were recorded
# while the finite and generic module reports were still written apart.
PRINTED_FORM_DIGESTS = [
    (["verify", "--suite", "gl3", "--json", "-"],
     "d259f6ef4f94b7e7981deeffd4a72c28a97e44cd892b7da055430b0abc8ab8a8"),
    (["compute", "--expr", "c32", "--json", "-"],
     "06baf516ed1e2d048aa70795c27459056c497acfdac7ab54644503dfa77522d8"),
    (["toy", "--f", "3x^3+x+5", "--target", "1/(x-2)"],
     "ad1315232c7a4bc138702a34f542033f67c069b5f36963c1e5fdd0b048e05912"),
    (["gt", "--top", "2,1,0", "--signs", "all-minus", "--check"],
     "65e8ab828be382e0be0b2312fcd53fe67518791c7b3734e3180d5b40e023d354"),
    (["gt", "--top", "2,1,0,0", "--check"],
     "c2cac5920a3b68f95a52949fa244346cb3b9bcd7bf01e9ee07e05db972f6d38a"),
    (["gt", "--generic=1/3; 2/5, 3/7; 1,0,0", "--window", "1", "--check",
      "--json", "-"],
     "b380052ac7eb685c4055193af64530d7cdad634f62bb7a97a8e578ff82e920f9"),
]


@pytest.mark.parametrize("argv,digest", PRINTED_FORM_DIGESTS,
                         ids=[argv[0] for argv, _ in PRINTED_FORM_DIGESTS])
def test_printed_forms_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


JSON_PAYLOAD_JOBS = {
    "gt": ["gt", "--top", "2,1,0", "--check", "--json", "-"],
    "verify": ["verify", "--suite", "gl3", "--json", "-"],
    "compute": ["compute", "--expr", "c32", "--json", "-"],
    "toy": ["toy", "--f", "3x^3+x+5", "--target", "1/(x-2)", "--json", "-"],
    # Fraction entries and "interior"
    "gt-generic": ["gt", "--generic=-1/3; 4/5, -3/7; 1, 1, -3", "--window", "1",
                   "--check", "--json", "-"],
}


def json_payload(capsys, monkeypatch, argv):
    """The payload a job hands to `cli._write_json`."""
    payloads = []
    monkeypatch.setattr(cli, "_write_json", lambda target, payload: payloads.append(payload))
    code, _, _ = run(capsys, argv)
    assert code == 0 and len(payloads) == 1
    return payloads[0]


@pytest.mark.parametrize("argv", list(JSON_PAYLOAD_JOBS.values()), ids=list(JSON_PAYLOAD_JOBS))
def test_json_renderer_matches_json_dumps(capsys, monkeypatch, argv):
    payload = json_payload(capsys, monkeypatch, argv)
    assert "".join(cli._render_json(payload)) == \
        json.dumps(dense(payload), indent=2, sort_keys=True)


def test_json_chunks_stay_small(capsys, monkeypatch):
    """The dim-140 module (6.5 MB of JSON) is written in chunks of at
    most one dense matrix row, never as one string."""
    payload = json_payload(capsys, monkeypatch,
                           ["gt", "--top", "4,2,1,0", "--check", "--json", "-"])
    sizes = [len(chunk) for chunk in cli._render_json(payload)]
    assert len(sizes) > 25 * 140
    assert max(sizes) <= 4096


def test_json_renderer_edge_cases():
    cases = [
        {}, [], "", 0, -7, True, False, None, 2.5, "naïve ∑ \"q\"\n",
        {"b": [], "a": {}, "c": [[], {}], "d": [1, "x", None, [True]]},
        {"z": {"y": {"x": ["p", "q"]}}, "e": ["é", "\t", " "]},
        [["a", "b"], ["c"], [1, 2], [{"k": "v"}], ("t", "u")],
        # string lists with and without a character that needs escaping
        ["", ""], ["0", "1/3", "-2"], ["a", "b\x7f"], ["a", "b\\c"], ["x", "\x00"],
        ["a", 'q"'], ["é"], ["a", 1], ["a", None],
    ]
    for value in cases:
        assert "".join(cli._render_json(value)) == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def matrices(draw):
    """Sparse matrices of dim 1-12 over a random denominator, mixing zero
    rows, fully dense rows, rows with the first and last column set and
    random sparse rows; or the zero matrix."""
    dim = draw(st.integers(1, 12))
    if draw(st.integers(0, 9)) == 0:
        return gtmodules.zeros(dim)
    den = draw(st.integers(1, 30))
    rows = []
    for _ in range(dim):
        cols = draw(st.sampled_from([[], range(dim), {0, dim - 1}, None]))
        if cols is None:
            cols = draw(st.sets(st.integers(0, dim - 1)))
        rows.append({j: Fraction(draw(st.integers(-99, 99).filter(bool)), den)
                     for j in cols})
    return gtmodules.from_values(rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(matrices(), min_size=1, max_size=3))
def test_matrix_rows_match_json_dumps(ms):
    """A matrix is written as the dense rows of its value strings, at any
    depth, between sibling keys that sort before and after it."""
    value = {"a": 1, "m": ms[0], "n": {"0": "x", "m": ms[-1], "~": [ms[0], None]},
             "~": ms}
    for v in (value, ms[0], ms):
        assert "".join(cli._render_json(v)) == json.dumps(dense(v), indent=2, sort_keys=True)


@st.composite
def numerators_over_den(draw):
    """An int numerator over a positive den, den == 1 included; half of
    the numerators are multiples of den, so the value reduces to an int."""
    den = draw(st.one_of(st.just(1), st.integers(2, 10 ** 4)))
    x = draw(st.integers(-10 ** 6, 10 ** 6).filter(bool))
    if draw(st.booleans()):
        x = draw(st.integers(-999, 999).filter(bool)) * den
    return x, den


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(numerators_over_den())
def test_matrix_value_text_is_the_fraction_str(case):
    """A stored numerator x over den is written as `str(Fraction(x, den))`,
    negative, reducing to an int or over den == 1 alike."""
    x, den = case
    m = gtmodules.Matrix([gtmodules.Row({1: x}), gtmodules.Row()], den)
    assert json.loads("".join(cli._matrix_rows(m, ""))) == [["0", str(Fraction(x, den))],
                                                           ["0", "0"]]


COLD_IMPORT = """
import json, sys
before = set(sys.modules)
from skewgt import cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_introspection():
    """`from skewgt import cli`, which every command pays for before its
    work, loads the engine modules the commands use and none of the
    introspection modules `dataclasses` pulls in (nor `lattice`, which
    no command calls).  Engine modules imported late, inside a handler,
    would fail the second assertion."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env, cwd=root,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize",
                         "skewgt.lattice"}
    assert {"skewgt.gln", "skewgt.gtmodules", "skewgt.relations",
            "skewgt.toy"} <= loaded
