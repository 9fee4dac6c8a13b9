"""Acceptance gate: one test per criterion, exact checks, stated budgets.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.
"""

import itertools
import time
from fractions import Fraction

from hypothesis import given, settings

from skewgt import gln, gtmodules as gt, relations, toy
from skewgt.polys import Context, Poly, elementary_symmetric, vandermonde
from skewgt.ratfunc import RatFunc
from skewgt.skew import SkewElement, commutator, is_invariant

from conftest import (edge_cases, edge_polys, edge_ratfuncs, edge_skews, eq_cross, failures,
                      polys, ratfuncs, row_permutations, skew_elements)


def _report(name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s"
    print(f"PASS {name} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_rank2_center():
    start = time.monotonic()
    ctx = Context.triangle(2)
    x = lambda k, i: Poly.var(ctx, (k, i))
    c21 = gln.gelfand_invariant_image(ctx, 2, 1)
    c22 = gln.gelfand_invariant_image(ctx, 2, 2)
    assert c21 == SkewElement.from_coeff(x(2, 1) + x(2, 2) + 1)
    assert c22 == SkewElement.from_coeff(
        x(2, 1) ** 2 + x(2, 2) ** 2 + x(2, 1) + x(2, 2))
    V2 = gln.gen_V(ctx, 2)
    assert V2 * V2 == -(c21 * c21) + 2 * c22 + 1
    _report("criterion 1: rank-2 Gelfand images and V2 squared", start, 1.0)


def test_criterion_2_gwa_presentation():
    start = time.monotonic()
    ctx = Context.triangle(2)
    X1p, X1m = gln.gen_X(ctx, 1, +1), gln.gen_X(ctx, 1, -1)
    e11 = elementary_symmetric(ctx, 1, 1)
    e21 = elementary_symmetric(ctx, 2, 1)
    e22 = elementary_symmetric(ctx, 2, 2)
    t = -e22 + e11 * e21 - e11 ** 2
    assert X1m * X1p == SkewElement.from_coeff(t)
    assert X1p * X1m == SkewElement.from_coeff(t.subs_shift({(1, 1): 1}))
    for gamma in (e11, e21, e22, vandermonde(ctx, 2)):
        for sign, gen in ((1, X1p), (-1, X1m)):
            twisted = gamma.subs_shift({(1, 1): sign})
            assert gen * SkewElement.from_coeff(gamma) == \
                SkewElement.from_coeff(twisted) * gen
    _report("criterion 2: generalized Weyl presentation at rank 2", start, 1.0)


def test_criterion_3_rank3_suite():
    start = time.monotonic()
    rep = relations.suite_gl3()
    assert rep.ok, failures(rep)
    assert len(rep.results) >= 70
    _report("criterion 3: full rank-3 relation suite", start, 30.0)


def test_criterion_4_rational_invariants():
    start = time.monotonic()
    rep = relations.suite_invariants()
    assert rep.ok, failures(rep)
    _report("criterion 4: rational product and fourfold invariant", start, 30.0)


def test_criterion_5_localized_rewrites():
    start = time.monotonic()
    rep = relations.suite_localized()
    assert rep.ok, failures(rep)
    _report("criterion 5: localized rewrites, both signs", start, 30.0)


def test_criterion_6_pattern_modules():
    start = time.monotonic()
    top = (2, 1, 0)
    # independent brute-force enumeration oracle
    lo, hi = 0, 2
    count = 0
    row2 = set()
    for r1 in range(lo, hi + 1):
        for r2 in itertools.product(range(lo, hi + 1), repeat=2):
            rows = ((r1,), r2, top)
            good = all(rows[k + 1][i] >= rows[k][i] >= rows[k + 1][i + 1]
                       for k in range(2) for i in range(len(rows[k])))
            if good:
                count += 1
                row2.add(r2)
    assert count == 8 and len(row2) == 4
    mod = gt.build_module(top)
    assert mod.dim == 8
    assert len(gt.row_fillings(top)[2]) == 4
    rep = gt.module_relation_report(mod)
    assert rep.ok, failures(rep)
    ctx = Context.triangle(3)
    for k in (2, 3):
        vk = vandermonde(ctx, k)
        for j, p in enumerate(mod.basis):
            assert mod.spectrum(f"V{k}")[j] ** 2 == \
                vk.evaluate(gt.pattern_point(p)) ** 2
    _report("criterion 6: V(2,1,0) module with exact matrix relations", start, 10.0)


def test_criterion_7_generic_window():
    start = time.monotonic()
    mod = gt.build_generic_module([(Fraction(1, 3),), (1, 0)], radius=2)
    M = mod.matrices
    assert mod.interior and gt.columns_equal(commutator(M["X1+"], M["X1-"]),
                                             M["X11"] - M["X22"], mod.interior)
    _report("criterion 7: generic rank-2 window commutator", start, 10.0)


def test_criterion_8_rank_one_witnesses():
    start = time.monotonic()
    ctx = Context.line()
    x = Poly.var(ctx, toy.X_VAR)
    for f in (x + 2, x ** 2 + 1, 3 * x ** 3 + x + 5):
        spec = toy.ToySpec(f)
        for c in (0, -1, 1, 2, -2, -3):
            trace = toy.witness_inverse(spec, c)
            assert trace.witness == SkewElement.from_coeff(
                toy.target_ratfunc(ctx, c))
        X, Y = toy.build_toy(spec)
        assert X.support() | Y.support() == {(1,), (-1,)}
    _report("criterion 8: rank-one inverse witnesses", start, 10.0)


def test_criterion_9_randomized_property_suites():
    start = time.monotonic()
    ctx = Context.triangle(2)
    checked = []

    @settings(max_examples=250)
    @given(a=polys(ctx), b=polys(ctx), c=polys(ctx))
    @edge_cases(edge_polys(ctx), ["a", "b", "c"])
    def poly_ring_axioms(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        checked.append(a)

    @settings(max_examples=250)
    @given(a=ratfuncs(ctx), b=ratfuncs(ctx), c=ratfuncs(ctx))
    @edge_cases(edge_ratfuncs(ctx), ["a", "b", "c"])
    def ratfunc_field_axioms(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        checked.append(a)

    @settings(max_examples=250)
    @given(a=ratfuncs(ctx), b=ratfuncs(ctx), mapping=row_permutations(ctx))
    @edge_cases(edge_ratfuncs(ctx), ["a", "b"], mapping={(2, 1): (2, 2), (2, 2): (2, 1)})
    def shift_and_permutation_homomorphisms(a, b, mapping):
        shift = {(1, 1): 1, (2, 1): -1}
        assert (a * b).shifted(shift) == a.shifted(shift) * b.shifted(shift)
        assert (a + b).shifted(shift) == a.shifted(shift) + b.shifted(shift)
        assert (a * b).permuted(mapping) == a.permuted(mapping) * b.permuted(mapping)
        checked.append(a)

    @settings(max_examples=250)
    @given(r=ratfuncs(ctx), s=ratfuncs(ctx), u=skew_elements(ctx), v=skew_elements(ctx),
           w=skew_elements(ctx))
    @edge_cases(edge_skews(ctx), ["u", "v", "w"], r=RatFunc.zero(ctx), s=RatFunc.zero(ctx))
    def normal_forms_and_skew_associativity(r, s, u, v, w):
        assert RatFunc(r.num, r.den, r.scale) == r
        assert (r == s) == eq_cross(r, s)
        assert (u * v) * w == u * (v * w)
        checked.append(u)

    for suite in (poly_ring_axioms, ratfunc_field_axioms, shift_and_permutation_homomorphisms,
                  normal_forms_and_skew_associativity):
        suite()
    assert len(checked) >= 1000
    _report(f"criterion 9: property suites over {len(checked)} randomized inputs",
            start, 60.0)


def test_criterion_10_invariance_census():
    start = time.monotonic()
    for n in range(1, 5):
        ctx = Context.triangle(n)
        for name in gln.generator_names(n):
            u = gln.element(ctx, name)
            assert is_invariant(u, "A"), (n, name)
            if name.startswith("X") and name[-1] in "+-":
                assert is_invariant(u, "S"), (n, name)
            if name.startswith("V"):
                assert not is_invariant(u, "S"), (n, name)
                k = int(name[1])
                swap = {(k, 1): (k, 2), (k, 2): (k, 1)}
                assert u.act(swap) == -u
    _report("criterion 10: invariance census through rank 4", start, 60.0)
