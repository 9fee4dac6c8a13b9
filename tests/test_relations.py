import json

import pytest

from skewgt import gln, gtmodules, relations
from skewgt.skew import SkewElement


def test_verify_identity_pass_and_fail(ctx3):
    X11 = gln.gen_Xkk(ctx3, 1)
    X22 = gln.gen_Xkk(ctx3, 2)
    ok = relations.verify_identity("same", "an element equals itself", X11, X11)
    assert ok.ok and ok.witness is None
    bad = relations.verify_identity("diff", "distinct diagonals differ", X11, X22)
    assert not bad.ok
    assert bad.witness == X11 - X22


def test_suite_gl2_passes():
    rep = relations.suite_gl2()
    assert rep.ok
    assert len(rep.results) >= 20


def test_suite_gl2_at_larger_context():
    rep = relations.suite_gl2(3)
    assert rep.ok


def test_suite_gl3_passes():
    rep = relations.suite_gl3()
    assert rep.ok
    keys = {r.key for r in rep.results}
    # every family is represented, both signs where applicable
    for probe in ("i:central:V3:A21+", "iii:weight:V2:A22-",
                  "iv:opposite:A21+:A22-", "v:opposite:A11-:A22+",
                  "vi:ladder:A11", "vii:ladder:row2",
                  "viii:serre:A11-:A21-", "ix:braid:V2:-",
                  "ladder-defect:X2+", "cross:e13-e31"):
        assert probe in keys


@pytest.mark.parametrize("n, count", [
    (2, 12), (3, 35), pytest.param(4, 70, marks=pytest.mark.slow)])
def test_gln_catalogue_holds_on_skew_elements(n, count):
    """The rank-n catalogue the module report runs on matrices holds on
    the skew elements of the same names, entry for entry."""
    ctx = gln.triangle(n)
    mod = gtmodules.build_module((1,) + (0,) * (n - 1))
    E = {name: gln.element(ctx, name) for name in mod.matrices}
    entries = list(relations.gln_catalogue(n, E, SkewElement.zero(ctx)))
    assert len(entries) == count
    assert [key for _, key, _, lhs, rhs in entries if not (lhs - rhs).is_zero] == []
    report = gtmodules.module_relation_report(mod)
    assert [r.key for r in report.results[:count]] == [key for _, key, *_ in entries]
    assert report.ok


def test_suite_invariants_passes():
    rep = relations.suite_invariants()
    assert rep.ok


def test_suite_localized_passes():
    rep = relations.suite_localized()
    assert rep.ok


def test_suites_are_deterministic():
    a = relations.suite_localized().to_json()
    b = relations.suite_localized().to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_json_schema():
    rep = relations.suite_localized()
    body = rep.to_json()
    assert body["suite"] == "localized"
    for entry in body["results"]:
        assert set(entry) >= {"id", "status", "anchor"}
        assert entry["status"] == "pass"
    X11 = gln.gen_Xkk(gln.triangle(3), 1)
    failing = relations.VerificationReport("demo")
    failing.add(relations.verify_identity("k", "a", X11, SkewElement.zero(X11.ctx)))
    entry = failing.to_json()["results"][0]
    assert entry["status"] == "fail" and "witness" in entry


def test_run_suites_dispatch():
    reports = relations.run_suites(["gl2", "localized"], None)
    assert [r.suite for r in reports] == ["gl2", "localized"]
    assert all(r.ok for r in reports)
