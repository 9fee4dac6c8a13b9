import json

from skewgt import cli, gln
from skewgt.skew import commutator


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


def test_gt_bad_inputs(capsys):
    code, _, err = run(capsys, ["gt", "--top", "0,1"])
    assert code == 2 and "decreasing" in err
    code, _, err = run(capsys, ["gt", "--generic", "1/2; 1,0; 2,1,0",
                                "--window", "1"])
    assert code == 2 and "regular" in err
    code, _, err = run(capsys, ["gt"])
    assert code == 2
    code, _, err = run(capsys, ["gt", "--top", "0", "--check"])
    assert code == 2 and "top row of length n >= 2 (got n=1)" in err
    code, out, _ = run(capsys, ["gt", "--top", "0"])
    assert code == 0 and "dimension: 1" in out


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


def test_export_roundtrip(capsys, tmp_path):
    path = tmp_path / "el.json"
    code, _, _ = run(capsys, ["export", "--expr", "X2+", "--n", "3",
                              "--json", str(path)])
    assert code == 0
    body = json.loads(path.read_text())
    ctx = gln.triangle(3)
    from skewgt.skew import SkewElement
    assert SkewElement.from_json(ctx, body["element"]) == gln.element(ctx, "X2+")


def test_export_stdout_deterministic(capsys):
    code1, out1, _ = run(capsys, ["export", "--expr", "c22", "--n", "2"])
    code2, out2, _ = run(capsys, ["export", "--expr", "c22", "--n", "2"])
    assert code1 == code2 == 0 and out1 == out2


def test_rank_must_be_positive(capsys):
    for cmd in ("compute", "export"):
        code, out, err = run(capsys, [cmd, "--expr", "X11", "--n", "0"])
        assert code == 2 and out == ""
        assert "needs n >= 1 (got n=0)" in err


def test_unwritable_json_path(capsys, tmp_path):
    path = str(tmp_path / "missing" / "out.json")
    for argv in (["verify", "--suite", "gl2"], ["compute", "--expr", "X11"],
                 ["export", "--expr", "X11"]):
        code, _, err = run(capsys, argv + ["--json", path])
        assert code == 2
        assert f"cannot write --json file {path!r}" in err
