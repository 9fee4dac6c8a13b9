import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skewgt import cli, gln, gtmodules as gt
from skewgt.polys import Context, vandermonde
from skewgt.ratfunc import RatFunc
from skewgt.relations import single_shift_catalogue, suite_gl3
from skewgt.skew import commutator

from conftest import chance, dense, failures


def brute_force_patterns(top):
    """Independent oracle: filter every bounded integer triangle."""
    n = len(top)
    lo, hi = min(top), max(top)
    rows_choices = [list(itertools.product(range(lo, hi + 1), repeat=k))
                    for k in range(1, n)]
    found = []
    for combo in itertools.product(*rows_choices):
        rows = list(combo) + [tuple(top)]
        good = True
        for k in range(n - 1):
            lower, upper = rows[k], rows[k + 1]
            for i in range(len(lower)):
                if not (upper[i] >= lower[i] >= upper[i + 1]):
                    good = False
        if good:
            found.append(tuple(rows))
    return found


def weyl_dim_oracle(top):
    n = len(top)
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= top[i] - top[j] + j - i
            den *= j - i
    return num // den


def test_enumeration_examples():
    assert len(gt.enumerate_patterns((1, 0))) == 2
    assert len(gt.enumerate_patterns((0, 0, 0))) == 1
    assert len(gt.enumerate_patterns((2, 1, 0))) == 8


def test_enumeration_against_brute_force():
    for top in [(1, 0), (2, 0), (2, 1, 0), (1, 1, 0), (2, 2, 0)]:
        brute = brute_force_patterns(top)
        pats = gt.enumerate_patterns(top)
        assert len(pats) == len(brute)
        as_ints = {tuple(tuple(int(v) for v in row) for row in p) for p in pats}
        assert as_ints == set(brute)


def test_dimension_matches_weyl_formula():
    tops2 = [t for t in itertools.product(range(4), repeat=2) if t[0] >= t[1]]
    tops3 = [t for t in itertools.product(range(4), repeat=3)
             if t[0] >= t[1] >= t[2]]
    tops4 = [t for t in itertools.product(range(4), repeat=4)
             if all(t[i] >= t[i + 1] for i in range(3))]
    for top in tops2 + tops3 + tops4:
        dim = len(gt.enumerate_patterns(top))
        assert dim == gt.weyl_dim(top) == weyl_dim_oracle(top), top


def test_row_fillings():
    assert len(gt.row_fillings((2, 1, 0))[2]) == 4
    assert gt.row_fillings((2, 1, 0))[2] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert len(gt.row_fillings((0, 0))[2]) == 1
    assert len(gt.row_fillings((1, 0))[1]) == 2
    assert gt.row_fillings((4,)) == {1: [(4,)]}
    # oracle: distinct row-k vectors among brute-force patterns, every row
    for top in [(2, 1, 0), (3, 2, 1, 0), (2, 1, 0, 0)]:
        brute = brute_force_patterns(top)
        fillings = gt.row_fillings(top)
        assert sorted(fillings) == list(range(1, len(top) + 1)), top
        for k in fillings:
            assert fillings[k] == sorted({p[k - 1] for p in brute}), (top, k)


def test_row_fillings_refuses_over_budget_before_walking(monkeypatch):
    top = (1000, 0, 0)
    assert gt.weyl_dim(top) > gt.MAX_CHECK_DIM

    def no_walk(row):
        raise AssertionError(f"walked below {row}")

    monkeypatch.setattr(gt, "_rows_below", no_walk)
    with pytest.raises(ValueError, match="exceeds the budget"):
        gt.row_fillings(top)
    with pytest.raises(ValueError, match="weakly decreasing"):
        gt.row_fillings((0, 1))


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        gt.enumerate_patterns((0, 1))
    with pytest.raises(ValueError):
        gt.build_module((1, 2, 0))
    with pytest.raises(ValueError, match="integral"):
        gt.build_module((Fraction(3, 2), 1, 0))


def column(m, j):
    """Column j of a sparse matrix as {row: value}, read through the
    accessor."""
    return {i: m.entry(i, j) for i, row in enumerate(m) if j in row}


def test_highest_weight_eigenvalues():
    m = gt.build_module((1, 0))
    hi = m.basis.index(gt.normalize_pattern([(1,), (1, 0)]))
    assert column(m.matrices["X11"], hi) == {hi: Fraction(1)}
    assert column(m.matrices["X22"], hi) == {}


def test_ladder_round_trip_on_standard_module():
    m = gt.build_module((1, 0))
    hi = m.basis.index(gt.normalize_pattern([(1,), (1, 0)]))
    lo = m.basis.index(gt.normalize_pattern([(0,), (1, 0)]))
    assert column(m.matrices["X1-"], hi) == {lo: Fraction(1)}
    assert column(m.matrices["X1+"], lo) == {hi: Fraction(1)}
    assert column(m.matrices["X1+"], hi) == {}


def test_trivial_module_acts_by_zero():
    m = gt.build_module((0, 0))
    assert m.dim == 1
    assert m.matrices["X1+"] == m.matrices["X1-"] == gt.zeros(1)
    assert m.spectrum("X11") == [Fraction(0)]


def vandermonde_at(top, signs, p):
    """The V_2 diagonal entry of the module built under top at the basis
    pattern p."""
    mod = gt.build_module(top, signs)
    return mod.spectrum("V2")[mod.basis.index(p)]


def test_vandermonde_action():
    fillings = gt.row_fillings((1, 0))
    hi = gt.normalize_pattern([(1,), (1, 0)])
    assert vandermonde_at((1, 0), gt.SignData.from_vectors(fillings), hi) == 2
    assert vandermonde_at((1, 0), None, hi) == 2
    flipped = gt.SignData.from_vectors(fillings, {2: [-1]})
    assert vandermonde_at((1, 0), flipped, hi) == -2
    same = gt.normalize_pattern([(3,), (3, 3)])
    s33 = gt.SignData.from_vectors(gt.row_fillings((3, 3)))
    assert vandermonde_at((3, 3), s33, same) == 1


def test_vandermonde_squares_match_evaluation():
    for top in [(1, 0), (2, 1, 0), (2, 2, 0)]:
        mod = gt.build_module(top, gt.SignData.from_vectors(gt.row_fillings(top)))
        assert mod.basis == gt.enumerate_patterns(top)
        ctx = Context.triangle(len(top))
        for k in range(2, len(top) + 1):
            vk = vandermonde(ctx, k)
            for p, ev in zip(mod.basis, mod.spectrum(f"V{k}")):
                assert ev ** 2 == vk.evaluate(gt.pattern_point(p)) ** 2


def test_squared_vandermonde_product_matches_the_expanded_polynomial():
    # the report's V_k^2 entry multiplies the factors; the expanded
    # Vandermonde polynomial is the oracle on every filling of each row
    for top in [(2, 1, 0), (3, 1, 1), (2, 1, 0, 0), (2, 2, 1, 0), (1, 1, 0, 0, 0),
                (2, 1, 0, 0, 0)]:
        ctx = Context.triangle(len(top))
        for k in range(2, len(top) + 1):
            vk = vandermonde(ctx, k)
            for p in gt.enumerate_patterns(top):
                point = gt.pattern_point(p)
                assert gt.squared_vandermonde(k, p) == vk.evaluate(point) ** 2


def test_rank_nine_module_check_runs(capsys):
    code = cli.main(["gt", "--top", "1,0,0,0,0,0,0,0,0", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dimension: 9" in out
    assert "[pass] module:V9sq-consistency" in out
    assert "suite module:1-0-0-0-0-0-0-0-0: 433/433 identities passed" in out


def test_standard_module_matches_defining_representation():
    m = gt.build_module((1, 0))
    assert m.dim == 2
    e = m.matrices["X1+"]
    f = m.matrices["X1-"]
    h1 = m.matrices["X11"]
    # traces and eigenvalues of the defining 2-dimensional representation
    assert sorted(m.spectrum("X11")) == [0, 1]
    assert sorted(m.spectrum("X22")) == [0, 1]
    assert gt.mat_mul(e, e) == gt.mat_mul(f, f) == gt.zeros(m.dim)
    ef = commutator(e, f)
    assert ef == gt.mat_sub(h1, m.matrices["X22"])


def test_module_relation_reports_across_tops():
    for top in [(0, 0), (2, 1), (1, 1, 0), (2, 1, 0), (2, 2, 0)]:
        rep = gt.module_relation_report(gt.build_module(top))
        assert rep.ok, (top, failures(rep))


def test_rank3_module_report_runs_the_gl3_catalogue():
    """The all-plus (2,1,0) report adds exactly the catalogue entries, in
    catalogue order, to the checks every sign choice gets; the gl3 suite
    checks the same entries under their family prefixes."""
    mod = gt.build_module((2, 1, 0))
    entries = [(family, key) for family, key, *_ in
               single_shift_catalogue(3, mod.matrices)]
    assert len(entries) == 44
    mixed = gt.SignData.from_vectors(gt.row_fillings((2, 1, 0)), {2: [1, -1, -1, 1]})
    common = {r.key for r in gt.module_relation_report(
        gt.build_module((2, 1, 0), mixed)).results}
    report = gt.module_relation_report(mod)
    assert report.ok
    assert [r.key for r in report.results if r.key not in common] == \
        [key for _, key in entries]
    suite = {r.key: r.ok for r in suite_gl3().results}
    assert all(suite[f"{family}:{key}"] for family, key in entries)


def test_module_report_mixed_signs():
    signs = gt.SignData.from_vectors(gt.row_fillings((2, 1, 0)), {2: [1, -1, -1, 1]})
    rep = gt.module_relation_report(gt.build_module((2, 1, 0), signs))
    assert rep.ok


def plant(m, i, j, delta):
    """A copy of m with delta added at (i, j), rebuilt in lowest terms."""
    rows = [{c: m.entry(r, c) for c in row} for r, row in enumerate(m)]
    rows[i][j] = rows[i].get(j, 0) + delta
    return gt.from_values(rows)


def test_module_reports_fail_on_planted_faults():
    """One wrong stored value of X1+, or one stray entry of X1+ on the
    diagonal, fails the named entries of the finite (2,1,0) report and
    of a generic window's report on interior columns: `==`, the
    diagonal commutator and the product fallback each see the fault."""
    finite = gt.build_module((2, 1, 0))
    x = finite.matrices["X1+"]
    i = next(r for r, row in enumerate(x) if row)
    j = next(iter(x[i]))
    chevalley = {"chevalley:[X1+,X1-]", "chevalley:[X1+,X2-]"}
    weights = {"chevalley:[X11,X1+]", "chevalley:[X22,X1+]"}
    serre = {"serre:X1+:X2+", "serre:X2+:X1+"}
    for target, expected in (((i, j), chevalley | serre),
                             ((i, i), chevalley | weights | serre)):
        mod = gt.build_module((2, 1, 0))
        mod.matrices["X1+"] = plant(x, *target, 1)
        assert set(failures(gt.module_relation_report(mod))) == expected, target

    point = [(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)), (2, 1, 0)]
    generic = gt.build_generic_module(point, 1)
    assert gt.generic_module_report(generic).ok
    x = generic.matrices["X1+"]
    c = generic.interior[0]
    r = next(r for r, row in enumerate(x) if c in row)
    for target, expected in (((r, c), {"generic:[X1+,X1-]"}),
                             ((c, c), {"generic:[X1+,X1-]", "generic:[X11,X1+]",
                                       "generic:[X22,X1+]"})):
        mod = gt.build_generic_module(point, 1)
        mod.matrices["X1+"] = plant(x, *target, 1)
        assert set(failures(gt.generic_module_report(mod))) == expected, target


def test_restriction_spectrum():
    top = (2, 1, 0)
    m = gt.build_module(top)
    expected = {Fraction(b1 - b2 + 1) for (b1, b2) in gt.row_fillings(top)[2]}
    assert set(m.spectrum("V2")) == expected


def test_sign_data_validation():
    with pytest.raises(ValueError):
        gt.SignData.from_vectors(gt.row_fillings((1, 0)), {2: [1, 1]})
    with pytest.raises(ValueError):
        gt.SignData.from_vectors(gt.row_fillings((1, 0)), {2: [2]})
    # no V_k reads a sign outside rows 2..n
    fillings = gt.row_fillings((2, 1, 0))
    for row in (1, 0, 4, -2):
        with pytest.raises(ValueError, match=r"signs are chosen on rows 2\.\.3"):
            gt.SignData.from_vectors(fillings, {row: [1] * 3, 2: [1] * 4})
    with pytest.raises(ValueError, match=r"rows 2\.\.1"):
        gt.SignData.from_vectors(gt.row_fillings((0,)), {2: [1]})
    # a row without a vector gets all plus
    signs = gt.SignData.from_vectors(fillings, {3: [-1]})
    assert signs.rows == {2: dict.fromkeys(fillings[2], 1), 3: {(2, 1, 0): -1}}
    assert not signs.is_all_plus
    assert gt.SignData.from_vectors(fillings).is_all_plus
    # the basis comes from the walk the signs were chosen on, so signs
    # chosen under another top row are refused
    for top in ((1, 1, 0), (2, 1), (2, 1, 0, 0)):
        with pytest.raises(ValueError, match="another top row"):
            gt.build_module(top, signs)


def test_module_and_sign_types():
    """`ModuleRealization` takes its fields by keyword; `SignData`
    compares field by field and, being mutable, is unhashable."""
    built = gt.build_module((1, 0))
    m = gt.ModuleRealization(n=built.n, basis=built.basis, matrices=built.matrices,
                             top=built.top, signs=built.signs, interior=None)
    assert (m.n, m.dim, m.top, m.signs, m.interior) == (2, 2, (1, 0), built.signs, None)
    assert m.to_json() == built.to_json()
    bare = gt.ModuleRealization(2, built.basis, built.matrices)
    assert (bare.top, bare.signs, bare.interior) == (None, None, None)
    fillings = gt.row_fillings((2, 1, 0))
    signs = gt.SignData.from_vectors(fillings)
    assert signs == gt.SignData.from_vectors(fillings, {2: [1] * 4})
    assert signs != gt.SignData.from_vectors(fillings, {3: [-1]})
    with pytest.raises(TypeError):
        hash(signs)


def test_generic_module_gl2():
    m = gt.build_generic_module([(Fraction(1, 3),), (1, 0)], radius=2)
    assert m.dim == 5 and len(m.interior) == 3
    rep = gt.generic_module_report(m)
    assert rep.ok
    # diagonal spectra move with the window
    assert len(set(m.spectrum("X11"))) == 5


def test_generic_module_gl3_v2_moves():
    point = [(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)), (2, 1, 0)]
    m = gt.build_generic_module(point, radius=1)
    assert gt.generic_module_report(m).ok
    assert len(set(m.spectrum("V2"))) > 1


def test_generic_diagonals_match_polynomial_evaluation():
    """The generic builder reads its diagonals off the moved patterns;
    they must equal the diagonal generators and Vandermondes evaluated
    as polynomials at each staircase point."""
    point = [(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)), (2, 1, 0)]
    m = gt.build_generic_module(point, radius=1)
    ctx = Context.triangle(3)
    for k in range(1, 4):
        poly = gln.gen_Xkk(ctx, k).identity_coefficient()
        assert m.spectrum(f"X{k}{k}") == [poly.evaluate(gt.pattern_point(p))
                                          for p in m.basis]
    for k in (2, 3):
        vk = vandermonde(ctx, k)
        assert m.spectrum(f"V{k}") == [vk.evaluate(gt.pattern_point(p))
                                       for p in m.basis]


def test_module_layer_types():
    """Integral pattern entries are ints and non-integral ones Fractions;
    every matrix holds int numerators over one denominator in lowest
    terms, every value read is a Fraction, and the diagonals equal the
    per-pattern actions and the Vandermonde polynomials evaluated at each
    staircase point."""
    assert gt.normalize_pattern([(Fraction(2),), (3, Fraction(-4, 2))]) == ((2,), (3, -2))
    assert [type(v) for v in gt.normalize_pattern([(Fraction(1, 2),), (3, 0)])[0]] \
        == [Fraction]
    finite = gt.build_module((2, 1, 0))
    assert all(type(v) is int for p in finite.basis for row in p for v in row)
    point = [(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)), (2, 1, 0)]
    generic = gt.build_generic_module(point, radius=1)
    for p in generic.basis:
        assert all(type(v) is Fraction for row in p[:-1] for v in row)
        assert all(type(v) is int for v in p[-1])
    ctx = Context.triangle(3)
    for mod in (finite, generic):
        for name, m in mod.matrices.items():
            assert_lowest_terms(m)
            assert all(type(m.entry(i, j)) is Fraction
                       for i, row in enumerate(m) for j in row), name
        for k in range(1, 4):
            assert mod.spectrum(f"X{k}{k}") == [diagonal_oracle(k, p) for p in mod.basis]
        for k in (2, 3):
            assert mod.spectrum(f"V{k}") == [vandermonde(ctx, k).evaluate(gt.pattern_point(p))
                                             for p in mod.basis]


def test_generic_module_radius_zero():
    m = gt.build_generic_module([(Fraction(1, 3),), (1, 0)], radius=0)
    assert m.dim == 1 and m.interior == []
    assert m.matrices["X1+"] == m.matrices["X1-"] == gt.zeros(1)
    assert m.matrices["X11"] != gt.zeros(1)


def test_generic_module_rejects_nonregular():
    with pytest.raises(ValueError):
        gt.build_generic_module(
            [(Fraction(1, 2),), (Fraction(1, 3), Fraction(1, 3)), (2, 1, 0)],
            radius=1)
    assert not gt.is_regular_point([(0,), (1, 0), (2, 1, 0)], 3)
    assert gt.is_regular_point([(Fraction(1, 3),), (1, 0)], 2)


def test_module_layer_refuses_floats():
    """A float would enter through its binary expansion (0.3 reads as
    5404319552844595/18014398509481984), so the module layer refuses
    it wherever it takes a rational, as `Poly` does."""
    one = gt.diagonal([1, 1])
    for bad in (0.3, 0.5, 1.0, 0.0, -0.0):
        with pytest.raises(TypeError):
            gt.normalize_pattern([(bad,), (1, 0)])
        with pytest.raises(TypeError):
            gt.normalize_pattern([(0,), (1, bad)])
        with pytest.raises(TypeError):
            gt.is_regular_point([(bad,), (1, 0)], 2)
        with pytest.raises(TypeError):
            gt.build_generic_module([(bad,), (1, 0)], radius=1)
        with pytest.raises(TypeError):
            gt.mat_scale(bad, one)
        with pytest.raises(TypeError):
            bad * one
        with pytest.raises(TypeError):
            one * bad
        with pytest.raises(TypeError):
            gt.build_module((2, 1, bad))
        with pytest.raises(TypeError):
            gt.diagonal([1, bad])
        with pytest.raises(TypeError):
            gt.from_values([{0: Fraction(1, 3)}, {0: bad}])
    half = gt.mat_scale(Fraction(1, 2), one)
    assert half == gt.diagonal([Fraction(1, 2)] * 2)
    assert gt.mat_scale(3, one) == gt.diagonal([Fraction(3)] * 2)
    assert half.den == 2 and [dict(row) for row in half] == [{0: 1}, {1: 1}]
    assert half.entry(1, 1) == Fraction(1, 2) and half.entry(0, 1) == 0
    assert gt.build_module((Fraction(2), 1, 0)).dim == 8


def test_matrix_scalar_on_either_side_and_sizes():
    """`m * c` scales as `c * m` does, and operands of different sizes
    are refused instead of cut to the shorter one."""
    one2, one3 = gt.diagonal([1] * 2), gt.diagonal([1] * 3)
    assert one2 * 2 == gt.diagonal([Fraction(2)] * 2) == 2 * one2
    assert one2 * Fraction(1, 2) == gt.diagonal([Fraction(1, 2)] * 2)
    # same numerators, other denominator
    assert one2 * Fraction(1, 2) != one2
    for a, b in ((one2, one3), (one3, one2)):
        for op in (gt.mat_mul, gt.mat_add, gt.mat_sub):
            with pytest.raises(ValueError, match="sizes differ"):
                op(a, b)
        m = a
        with pytest.raises(ValueError, match="sizes differ"):
            m += b


def test_iadd_adds_matrices():
    """`+=` is `+`: it adds entrywise and leaves the left operand as it
    was, instead of extending the row list."""
    mod = gt.build_module((2, 1, 0))
    a, b = mod.matrices["X1+"], mod.matrices["X2-"]
    before = ([dict(row) for row in a], a.den)
    m = a
    m += b
    assert m == a + b and len(m) == mod.dim
    assert ([dict(row) for row in a], a.den) == before
    z = gt.zeros(2)
    one = gt.diagonal([1, 1])
    z += one
    assert z == one and len(z) == 2


def test_module_json():
    m = gt.build_module((1, 0))
    body = m.to_json()
    assert body["dim"] == 2
    assert dense(body["matrices"]["V2"]) == [["2", "0"], ["0", "2"]]
    assert "".join(cli._render_json(body)) == json.dumps(dense(body), indent=2, sort_keys=True)


# -- sparse matrix ops against a plain list-of-lists reference ----------

def dense_mul(a, b):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                out[i][j] += a[i][k] * b[k][j]
    return out


def dense_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def to_sparse(dense):
    return gt.from_values(dict(enumerate(row)) for row in dense)


def assert_lowest_terms(m):
    """m holds int numerators over a positive int denominator with no
    common factor, stores no zero and no column outside the matrix, and
    the zero matrix has denominator 1."""
    n = len(m)
    assert type(m.den) is int and m.den > 0
    for row in m:
        assert type(row) is dict
        assert all(type(v) is int and v for v in row.values()), row
        assert all(0 <= j < n for j in row), row
    assert math.gcd(m.den, *(v for row in m for v in row.values())) == 1, m.den


def to_dense(m):
    """Dense copy of a sparse matrix, read through the accessor, after
    checking that it is in lowest terms."""
    assert_lowest_terms(m)
    return [[m.entry(i, j) for j in range(len(m))] for i in range(len(m))]


# small values, so that sums and products cancel often
ENTRIES = [Fraction(v) for v in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]


# the cells a matrix of each density draws from: one of the six ENTRIES
# about `density` of the time, else zero
CELLS = {0.0: [Fraction(0)], 0.1: [Fraction(0)] * 54 + ENTRIES,
         0.3: [Fraction(0)] * 14 + ENTRIES, 1.0: ENTRIES}


@st.composite
def dense_squares(draw, n):
    cells = st.sampled_from(CELLS[draw(st.sampled_from(sorted(CELLS)))])
    flat = draw(st.lists(cells, min_size=n * n, max_size=n * n))
    return [flat[i * n:(i + 1) * n] for i in range(n)]


@st.composite
def dense_reference_cases(draw):
    """Two n x n matrices, n in [1, 12], each of density 0, 0.1, 0.3 or
    1; about one in five times the second is the negated first, so that
    a + b cancels exactly.  With them a scalar and a set of columns."""
    n = draw(st.integers(1, 12))
    da = draw(dense_squares(n))
    db = [[-v for v in row] for row in da] if draw(chance(2)) else draw(dense_squares(n))
    cols = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return da, db, draw(st.sampled_from(ENTRIES)), cols


def _scalar_matrix(n, v):
    return [[Fraction(v) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


@settings(max_examples=120)
@given(case=dense_reference_cases())
@example(case=(_scalar_matrix(3, 0), _scalar_matrix(3, 2), Fraction(1, 2), [0, 2]))
@example(case=(_scalar_matrix(2, -1), [[0, 0], [Fraction(1, 2), 0]], Fraction(-2), [1]))
@example(case=([[0, 2], [0, 0]], [[0, 0], [1, 0]], Fraction(2), []))
def test_sparse_ops_match_dense_reference(case):
    da, db, c, cols = case
    n = len(da)
    a, b = to_sparse(da), to_sparse(db)
    assert to_dense(a) == da and to_dense(b) == db
    assert to_dense(gt.mat_mul(a, b)) == dense_mul(da, db)
    assert to_dense(gt.mat_add(a, b)) == [[x + y for x, y in zip(ra, rb)]
                                          for ra, rb in zip(da, db)]
    assert to_dense(gt.mat_sub(a, b)) == dense_sub(da, db)
    assert to_dense(gt.mat_sub(a, a)) == [[0] * n for _ in range(n)]
    assert to_dense(gt.mat_scale(c, a)) == [[c * x for x in row] for row in da]
    # the operators are the same ops
    assert to_dense(a * b) == dense_mul(da, db)
    assert to_dense(a + b) == [[x + y for x, y in zip(ra, rb)]
                               for ra, rb in zip(da, db)]
    assert to_dense(a - b) == dense_sub(da, db)
    assert to_dense(c * a) == [[c * x for x in row] for row in da]
    assert to_dense(gt.mat_scale(0, a)) == [[0] * n for _ in range(n)]
    comm = dense_sub(dense_mul(da, db), dense_mul(db, da))
    assert to_dense(commutator(a, b)) == comm
    for m, dm in ((a, da), (commutator(a, b), comm)):
        assert (m == gt.zeros(n)) == all(not x for row in dm for x in row)
    # the generic report's comparison; `mixed` is a on cols and b
    # elsewhere, so it agrees with a on cols, often over another den
    dmixed = [[x if c in cols else y for c, (x, y) in enumerate(zip(ra, rb))]
              for ra, rb in zip(da, db)]
    pairs = [(a, da), (b, db), (to_sparse(dmixed), dmixed), (gt.zeros(n), [[0] * n] * n)]
    for (x, dx), (y, dy) in itertools.product(pairs, repeat=2):
        assert gt.columns_equal(x, y, cols) == all(dx[r][c] == dy[r][c]
                                                   for c in cols for r in range(n))
    # inputs are left untouched
    assert to_dense(a) == da and to_dense(b) == db


# denominators of the generic points (3, 5, 7 and their products), so
# that operands over coprime denominators meet
PROPERTY_DENS = (1, 2, 3, 5, 7, 15, 21, 35, 105)
rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(PROPERTY_DENS))


@st.composite
def sparse_dense_pairs(draw):
    """Two n x n Fraction matrices, about half their cells zero; the
    second is sometimes the first, or its negative."""
    n = draw(st.integers(1, 6))
    cell = st.one_of(st.just(Fraction(0)), rationals)
    square = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    da = draw(square)
    db = draw(st.one_of(square, st.just(da), st.just([[-v for v in row] for row in da])))
    return da, db


@settings(max_examples=150)
@given(sparse_dense_pairs(), rationals)
def test_matrix_ops_property(pair, c):
    """`*`, `+`, `-` and `c * a` agree with a dense Fraction reference,
    every result is in lowest terms (checked by to_dense), and `==`
    agrees with dense equality."""
    da, db = pair
    a, b = to_sparse(da), to_sparse(db)
    assert to_dense(a) == da and to_dense(b) == db
    add = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]
    scaled = [[c * x for x in row] for row in da]
    for got, want in ((a * b, dense_mul(da, db)), (a + b, add),
                      (a - b, dense_sub(da, db)), (c * a, scaled), (a * c, scaled)):
        assert to_dense(got) == want
        # one normal form per value: a result equals the matrix built
        # directly from its dense values
        assert got == to_sparse(want) and not got != to_sparse(want)
    assert (a == b) == (da == db) and (a != b) == (da != db)
    # c * a has the numerators of a over another denominator when c = 1/k
    assert (c * a == a) == (scaled == da)
    assert (a - b == gt.zeros(len(da))) == (da == db)
    assert (a + b) - b == a


@st.composite
def commutator_operands(draw):
    """Two n x n matrices with their dense Fraction values, each built
    by `gt.diagonal` (zero diagonal entries included) or general as the
    drawn shape says, or a general a with b = a, a*a or c*a + d*I, which
    commute, so that the bracket cancels exactly to the zero matrix."""
    n = draw(st.integers(1, 6))
    cell = st.one_of(st.just(Fraction(0)), rationals)

    def square(diagonal):
        if diagonal:
            d = draw(st.lists(cell, min_size=n, max_size=n))
            return [[d[i] if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)], gt.diagonal(d)
        return general(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                     min_size=n, max_size=n)))

    def general(dense):
        return dense, to_sparse(dense)

    shape = draw(st.sampled_from(["left", "right", "both", "neither",
                                  "equal", "square", "affine"]))
    if shape == "equal":
        da = square(False)
        return da, da
    if shape == "square":
        da = square(False)
        return da, general(dense_mul(da[0], da[0]))
    if shape == "affine":
        da, c, d = square(False), draw(rationals), draw(rationals)
        return da, general([[c * x + (d if i == j else 0) for j, x in enumerate(row)]
                            for i, row in enumerate(da[0])])
    return square(shape in ("left", "both")), square(shape in ("right", "both"))


@settings(max_examples=200)
@given(commutator_operands())
def test_commutator_kernel_property(pair):
    """`Matrix.commutator`, and `commutator` on matrices, equal the two
    products and their difference, in lowest terms and canonical form,
    whether an operand built by `gt.diagonal` stands left, right, on both
    sides or on neither (the product fallback).  The same values from
    `from_values`, which keep no `diag`, take the product fallback and
    give the same bracket."""
    (da, a), (db, b) = pair
    want = gt.mat_sub(gt.mat_mul(a, b), gt.mat_mul(b, a))
    assert to_dense(a.commutator(b)) == to_dense(want)
    assert a.commutator(b) == want == commutator(a, b)
    assert to_sparse(da).commutator(to_sparse(db)) == want
    assert to_dense(a) == da and to_dense(b) == db


def test_commutator_kernel_dispatch(monkeypatch):
    """A diagonal operand takes the one-pass kernel (no product); two
    non-diagonal matrices add both products into one set of rows, the
    second negated, with no `mat_*` call; skew elements take one fused
    sum of the two products, with no skew `*` and no coefficient
    multiplied by a scalar, equal to `a*b - b*a`; operands of different
    sizes are refused."""
    calls, fused = [], []
    for name in ("mat_mul", "mat_add", "mat_sub"):
        op = getattr(gt, name)
        monkeypatch.setattr(gt, name, lambda a, b, op=op, name=name: (calls.append(name),
                                                                      op(a, b))[1])
    mul_into = gt._mul_into
    monkeypatch.setattr(gt, "_mul_into", lambda rows, a, b, sign: (fused.append(sign),
                                                                   mul_into(rows, a, b, sign))[1])
    mod = gt.build_module((2, 1, 0))
    M = mod.matrices
    for a, b in ((M["X11"], M["X1+"]), (M["X2-"], M["V2"]), (M["V3"], M["X22"])):
        commutator(a, b)
    assert calls == [] and fused == []
    # diagonal but for one entry
    near = plant(M["X11"], 0, 1, 1)
    bracket = commutator(near, M["X1+"])
    assert calls == [] and fused == [1, -1]
    assert bracket == near * M["X1+"] - M["X1+"] * near
    one2, one3 = gt.diagonal([1] * 2), gt.diagonal([1] * 3)
    for a, b in ((one2, one3), (one3, gt.zeros(2))):
        with pytest.raises(ValueError, match="sizes differ"):
            commutator(a, b)

    ctx = Context.triangle(2)
    x, y = gln.gen_X(ctx, 1, 1), gln.gen_Xkk(ctx, 1)
    products, operands = [], []
    mul = type(x).__mul__
    monkeypatch.setattr(type(x), "__mul__", lambda a, b: (products.append(1), mul(a, b))[1])
    rmul = RatFunc.__mul__
    monkeypatch.setattr(RatFunc, "__mul__", lambda a, b: (operands.append(b), rmul(a, b))[1])
    bracket = commutator(x, y)
    assert products == []
    assert operands and all(type(b) is RatFunc for b in operands)
    assert bracket == x * y - y * x


def test_built_diagonals_carry_their_numerators():
    """Every X_kk and V_k of a finite and of a generic module keeps its
    diagonal numerators in `diag`, equal to its rows after the module's
    report has bracketed it on either side, so a bracket with it takes
    the one-pass kernel with no scan; a matrix from `from_values`,
    `plant` or an operator keeps none, diagonal or not."""
    finite = gt.build_module((3, 2, 1, 0))
    generic = gt.build_generic_module([(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)),
                                       (2, 1, 0)], 1)
    for mod, report in ((finite, gt.module_relation_report),
                        (generic, gt.generic_module_report)):
        assert report(mod).ok
        M = mod.matrices
        built = {f"X{k}{k}" for k in range(1, mod.n + 1)} | {f"V{k}" for k in range(2, mod.n + 1)}
        for name, m in M.items():
            if name in built:
                assert m.diag == [row.get(i, 0) for i, row in enumerate(m)], name
                assert all(set(row) <= {i} for i, row in enumerate(m)), name
            else:
                assert m.diag is None, name
        X11 = M["X11"]
        for m in (gt.from_values({i: X11.entry(i, i)} for i in range(mod.dim)),
                  plant(X11, 0, 0, 1), X11 * X11, X11 + X11, X11 - M["X22"], 2 * X11):
            assert m.diag is None
    assert gt.diagonal([1, Fraction(1, 2), 0]).diag == [2, 1, 0]


def test_reports_scale_no_matrix(monkeypatch):
    """The weight relations [H, X] = w X have w in {-1, 0, 1}, so the
    module reports write them as [H, X] = X, [X, H] = X or [H, X] = 0:
    `mat_scale` runs only for the zero matrix, never on a copy of X."""
    scalars = []
    scale = gt.mat_scale
    monkeypatch.setattr(gt, "mat_scale", lambda c, a: (scalars.append(c), scale(c, a))[1])
    for top in ((2, 1, 0), (3, 2, 1, 0)):
        assert gt.module_relation_report(gt.build_module(top)).ok
    point = [(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)), (2, 1, 0)]
    assert gt.generic_module_report(gt.build_generic_module(point, 1)).ok
    assert scalars and not any(scalars)


def test_identity_and_zero_matrices():
    for n in range(1, 5):
        one = gt.diagonal([1] * n)
        assert to_dense(one) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert to_dense(gt.zeros(n)) == [[0] * n for _ in range(n)]
        assert one != gt.zeros(n) and not any(gt.zeros(n))


def test_from_values_storage():
    """`from_values` stores Fraction values as int numerators over the
    lcm of their denominators, and `entry` reads them back as Fractions."""
    m = gt.from_values([{0: 1, 1: Fraction(1, 2)}, {1: -1}])
    assert m.entry(0, 1) == Fraction(1, 2) and type(m.entry(0, 1)) is Fraction
    assert [m.entry(i, j) for i in (0, 1) for j in (0, 1)] == \
        [1, Fraction(1, 2), 0, -1]
    assert m.den == 2 and [dict(row) for row in m] == [{0: 2, 1: 1}, {1: -2}]


def ladder_oracle(p, k, i, s):
    """Closed-form a(k, i, s) at the pattern p, from its entries alone:
    -s * prod_{j <= k+s} (l_{k+s,j} - l_ki) / prod_{j != i} (l_kj - l_ki)
    with l_ki = lambda_ki - i + 1."""
    l = lambda r, j: Fraction(p[r - 1][j - 1]) - j + 1
    num = Fraction(-s)
    for j in range(1, k + s + 1):
        num *= l(k + s, j) - l(k, i)
    den = Fraction(1)
    for j in range(1, k + 1):
        if j != i:
            den *= l(k, j) - l(k, i)
    return num / den


def vandermonde_oracle(k, p, signs):
    """V_k on a pattern: the sign chosen for its row-k filling (+1
    without sign data) times prod_{i<j} (l_ki - l_kj)."""
    l = [Fraction(v) - i for i, v in enumerate(p[k - 1])]
    value = Fraction(1 if signs is None else signs.rows[k][p[k - 1]])
    for i, j in itertools.combinations(range(k), 2):
        value *= l[i] - l[j]
    return value


def diagonal_oracle(k, p):
    """X_kk on a pattern: row sum k minus row sum k-1."""
    return Fraction(sum(p[k - 1]) - (sum(p[k - 2]) if k >= 2 else 0))


def assert_matches_per_pattern_action(mod):
    """Every built ladder summand, ladder, diagonal and Vandermonde
    matrix of mod, column by column, against the closed-form values
    evaluated with Fractions on the pattern entries: A_ki(+-) sends p to
    p with entry (k, i) moved by +-1 when that target is a basis pattern,
    and V_k acts by the sign of p's row-k filling times the Vandermonde."""
    top = mod.basis[0][-1]
    n = mod.n
    index = {p: j for j, p in enumerate(mod.basis)}
    for m in mod.matrices.values():
        to_dense(m)
    for j, p in enumerate(mod.basis):
        for k in range(1, n + 1):
            d = diagonal_oracle(k, p)
            assert column(mod.matrices[f"X{k}{k}"], j) == ({j: d} if d else {})
            if k >= 2:
                v = vandermonde_oracle(k, p, mod.signs)
                assert column(mod.matrices[f"V{k}"], j) == ({j: v} if v else {}), \
                    (top, k, p)
        for k in range(1, n):
            for s, tag in ((1, "+"), (-1, "-")):
                total = {}
                for i in range(1, k + 1):
                    row = list(p[k - 1])
                    row[i - 1] += s
                    target = index.get(p[:k - 1] + (tuple(row),) + p[k:])
                    c = ladder_oracle(p, k, i, s) if target is not None else 0
                    expected = {target: c} if c else {}
                    assert column(mod.matrices[f"A{k}{i}{tag}"], j) == expected, \
                        (top, f"A{k}{i}{tag}", p)
                    total.update(expected)
                assert column(mod.matrices[f"X{k}{tag}"], j) == total, \
                    (top, f"X{k}{tag}", p)


def test_ladder_matrices_match_per_pattern_action():
    """`assert_matches_per_pattern_action` on the (1,0), (2,1,0) and
    (2,1,0,0) modules, on (2,1,0,0) with mixed signs on rows 2 and 3, and
    on a radius-1 generic window (dim 27)."""
    generic = gt.build_generic_module(
        [(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)), (2, 1, 0)], 1)
    assert generic.dim == 27
    fillings = gt.row_fillings((2, 1, 0, 0))
    signed = gt.build_module((2, 1, 0, 0), gt.SignData.from_vectors(
        fillings, {k: [(-1) ** (i // k) for i in range(len(fillings[k]))] for k in (2, 3)}))
    assert {-1, 1} <= set(signed.signs.rows[3].values())
    for mod in [gt.build_module(top) for top in [(1, 0), (2, 1, 0), (2, 1, 0, 0)]] + \
            [signed, generic]:
        assert_matches_per_pattern_action(mod)


# A large prime denominator, so that the lattice scale L is far beyond
# any product of small denominators
LARGE_PRIME = 2 ** 61 - 1


@st.composite
def regular_points(draw):
    """A point of rank 2 or 3 whose rows 1..n-1 have no integral
    same-row difference (checked on Fractions), with denominators up to
    10^4 or LARGE_PRIME and entries of either sign; the top row is
    integral or, about half the time, has a non-integral entry, and small
    integral top rows make some V_n vanish."""
    def entry():
        den = draw(st.one_of(st.integers(1, 10 ** 4), st.just(LARGE_PRIME)))
        return Fraction(draw(st.integers(-5 * den, 5 * den)), den)

    n = draw(st.integers(2, 3))
    rows = [[entry() for _ in range(k)] for k in range(1, n)]
    assume(all((a - b).denominator != 1 for row in rows
               for a, b in itertools.combinations(row, 2)))
    top = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        v = entry()
        assume(v.denominator != 1)
        top[draw(st.integers(0, n - 1))] = v
    return rows + [top]


@settings(max_examples=40, deadline=None)
@given(regular_points())
def test_generic_lattice_matches_per_pattern_action(rows):
    """The generic builder works on the point scaled to an integer
    lattice; every matrix column of its radius-1 window equals the
    closed-form values evaluated with Fractions on the true patterns."""
    mod = gt.build_generic_module(rows, 1)
    assert mod.dim == 3 ** (mod.n * (mod.n - 1) // 2)
    assert mod.basis[(mod.dim - 1) // 2] == gt.normalize_pattern(rows)
    assert_matches_per_pattern_action(mod)


def generic_oracle_failures(mod):
    """The keys of the generic report's relations whose two sides differ
    on some interior column, from dense Fraction matrices read through
    `Matrix.entry`: [X_k+, X_k-] against X_kk - X_{k+1,k+1}, and
    [X_kk, X_l+-] against +-w X_l+-, w = 1 for k = l, -1 for k = l + 1
    and 0 otherwise.  Only the interior columns of each side are formed."""
    D = {name: to_dense(m) for name, m in mod.matrices.items()}

    def col(a, c):
        return [row[c] for row in a]

    def bracket(a, b, c):
        ac, bc = col(a, c), col(b, c)
        return [sum(x * y for x, y in zip(ra, bc)) - sum(x * y for x, y in zip(rb, ac))
                for ra, rb in zip(a, b)]

    relations = []
    for k in range(1, mod.n):
        relations.append((f"generic:[X{k}+,X{k}-]", D[f"X{k}+"], D[f"X{k}-"],
                          lambda c, k=k: [x - y for x, y in zip(col(D[f"X{k}{k}"], c),
                                                                col(D[f"X{k + 1}{k + 1}"], c))]))
    for k in range(1, mod.n + 1):
        for l in range(1, mod.n):
            for sign, tag in ((1, "+"), (-1, "-")):
                w = sign * ((k == l) - (k == l + 1))
                x = D[f"X{l}{tag}"]
                relations.append((f"generic:[X{k}{k},X{l}{tag}]", D[f"X{k}{k}"], x,
                                  lambda c, x=x, w=w: [w * v for v in col(x, c)]))
    return {key for key, a, b, rhs in relations
            if any(bracket(a, b, c) != rhs(c) for c in mod.interior)}


@settings(max_examples=40, deadline=None)
@given(regular_points(), st.data())
def test_generic_report_matches_a_dense_oracle_on_a_planted_entry(rows, data):
    """One entry planted in a random X matrix, at a random row and at an
    interior or any column, fails exactly the relations whose two sides
    differ on an interior column by the dense oracle, at radius 1 or 2
    (radius 2 at rank 2 only, to keep the dense oracle small)."""
    n = len(rows)
    mod = gt.build_generic_module(rows, data.draw(st.integers(1, 2 if n == 2 else 1)))
    assert gt.generic_module_report(mod).ok and not generic_oracle_failures(mod)
    name = data.draw(st.sampled_from(sorted(k for k in mod.matrices if k[0] == "X")))
    row = data.draw(st.integers(0, mod.dim - 1))
    column = data.draw(st.one_of(st.sampled_from(mod.interior), st.integers(0, mod.dim - 1)))
    delta = data.draw(st.fractions(-3, 3, max_denominator=5).filter(bool))
    mod.matrices[name] = plant(mod.matrices[name], row, column, delta)
    assert set(failures(gt.generic_module_report(mod))) == generic_oracle_failures(mod)


def test_generic_report_subtracts_only_the_cartan_differences(monkeypatch, capsys):
    """The rank-3 radius-2 `gt --generic --check` job compares the two
    sides of each relation: the only matrix sums are the two Cartan
    differences X_kk - X_{k+1,k+1}, and no product is formed outside
    `Matrix.commutator`."""
    calls = []
    for name in ("mat_add", "mat_sub", "mat_mul"):
        def spy(a, b, name=name, real=getattr(gt, name)):
            calls.append(name)
            return real(a, b)
        monkeypatch.setattr(gt, name, spy)
    assert cli.main(["gt", "--generic", "-1/3; 4/5, -3/7; 1, 1, -3", "--window", "2",
                     "--check"]) == 0
    assert "14/14 identities passed" in capsys.readouterr().out
    assert calls == ["mat_sub", "mat_sub"]


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def assert_closed_form_matches_a_coeff(n, patterns):
    """`gln.a_value` on the two staircase rows each summand reads, scaled
    by L, the lcm of the pattern's denominators, to ints as `_realize`
    scales them, gives num / den equal to `gln.a_coeff` evaluated at the
    whole staircase point, times L^2 for a raising summand."""
    ctx = Context.triangle(n)
    for k in range(1, n):
        for s in (1, -1):
            for i in range(1, k + 1):
                a = gln.a_coeff(ctx, k, i, s)
                for p in patterns:
                    scale = math.lcm(*(Fraction(v).denominator for row in p for v in row))
                    rows = [[int(scale * x) for x in gt.staircase(p, r)] for r in (k, k + s)]
                    assert all(scale * x == v for r, row in zip((k, k + s), rows)
                               for x, v in zip(gt.staircase(p, r), row))
                    num, den = gln.a_value(*rows, i, s)
                    assert type(num) is int and type(den) is int
                    expected = a.evaluate(gt.pattern_point(p)) * (scale ** 2 if s > 0 else 1)
                    assert Fraction(num, den) == expected, (p, k, i, s)


def test_closed_form_ladder_values_on_finite_patterns():
    for top in [(3, 1, 0, 0), (2, 1, 1, 0, 0), (2, 1, 0, 0, 0, 0)]:
        assert_closed_form_matches_a_coeff(len(top), gt.enumerate_patterns(top))


def test_closed_form_ladder_values_at_the_benchmark_generic_points():
    """At each recorded generic point and its radius-1 window."""
    points = json.loads(REFERENCE.read_text())["generic_points"]
    assert len(points) == 16
    for text in points:
        mod = gt.build_generic_module(cli._parse_point(text), 1)
        assert_closed_form_matches_a_coeff(mod.n, mod.basis)


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(*(
    st.lists(st.fractions(-20, 5, max_denominator=12), min_size=k, max_size=k)
    for k in range(1, n + 1)))))
def test_closed_form_ladder_values_at_negative_rational_points(rows):
    p = gt.normalize_pattern(rows)
    n = len(p)
    assume(all(len(set(gt.staircase(p, k))) == k for k in range(1, n)))
    assert_closed_form_matches_a_coeff(n, [p])


def test_closed_form_ladder_value_refuses_equal_entries_in_its_row():
    """A vanishing denominator factor, x_kj = x_ki for some j != i,
    raises ZeroDivisionError for either sign; at an entry that equals no
    other entry of its row, the value is defined."""
    for row in ((2, 2), (5, -1, 5), (0, 7, 7, 3)):
        for s in (1, -1):
            src = tuple(range(3, 3 + len(row) + s))
            for i, x in enumerate(row, start=1):
                if row.count(x) > 1:
                    with pytest.raises(ZeroDivisionError):
                        gln.a_value(row, src, i, s)
                else:
                    num, den = gln.a_value(row, src, i, s)
                    assert den


def own_entries(m):
    """m rebuilt by `from_values` from its own stored entries, each read
    through `Matrix.entry`."""
    return gt.from_values({j: m.entry(i, j) for j in row} for i, row in enumerate(m))


def test_ladder_matrices_are_built_as_from_values_builds_them():
    """Every A_ki+- and X_k+- equals `from_values` of its own entries, so
    it is over the lcm of its values' denominators, in lowest terms, on
    finite top rows and on a recorded generic point's radius-1 window."""
    point = json.loads(REFERENCE.read_text())["generic_points"][0]
    mods = [gt.build_module(top) for top in [(3, 2, 1, 0), (2, 1, 0, 0, 0), (4, 2, 1, 0),
                                             (2, 1, 1, 0, 0)]]
    mods.append(gt.build_generic_module(cli._parse_point(point), 1))
    for mod in mods:
        ladders = {name: m for name, m in mod.matrices.items() if name[-1] in "+-"}
        assert len(ladders) == mod.n * (mod.n - 1) + 2 * (mod.n - 1)
        assert any(m.den > 1 for m in ladders.values())
        for name, m in ladders.items():
            assert_lowest_terms(m)
            assert m == own_entries(m), (mod.top, name)


def test_a_ladder_value_that_vanishes_inside_the_window_is_not_stored():
    """At a regular point with x_11 = x_21, a(1,1,+) and a(2,1,-) vanish
    at sources whose target lies inside the window: no entry is stored
    there, and the denominator is the lcm of the values stored, as
    `from_values` gives it, in A_ki and in X_k."""
    mod = gt.build_generic_module([(Fraction(1, 3),), (Fraction(1, 3), Fraction(1, 5)),
                                   (2, 1, 0)], 1)
    index = {p: j for j, p in enumerate(mod.basis)}
    for k, i, s, tag in ((1, 1, 1, "+"), (2, 1, -1, "-")):
        vanishing = 0
        for j, p in enumerate(mod.basis):
            row = list(p[k - 1])
            row[i - 1] += s
            target = index.get(p[:k - 1] + (tuple(row),) + p[k:])
            if target is not None and ladder_oracle(p, k, i, s) == 0:
                vanishing += 1
                assert j not in mod.matrices[f"A{k}{i}{tag}"][target]
                assert j not in mod.matrices[f"X{k}{tag}"][target]
        assert vanishing
        for name in (f"A{k}{i}{tag}", f"X{k}{tag}"):
            m = mod.matrices[name]
            assert m.den > 1 and m == own_entries(m), name


def test_builders_refuse_a_closed_form_that_disagrees_with_a_coeff(monkeypatch, capsys):
    """`_realize` checks each summand's closed form against `gln.a_coeff`
    at the first basis vector: a symbolic coefficient off by one in any
    single summand makes both builders raise, and return no module, and
    `gt` exit 2 with the message."""
    true_a_coeff = gln.a_coeff
    point = [(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)), (2, 1, 0)]
    for summand in [(k, i, s) for k in (1, 2) for i in range(1, k + 1) for s in (1, -1)]:
        monkeypatch.setattr(gln, "a_coeff", lambda ctx, k, i, s: true_a_coeff(ctx, k, i, s)
                            + ((k, i, s) == summand))
        with pytest.raises(ArithmeticError, match="closed form"):
            gt.build_module((2, 1, 0))
        with pytest.raises(ArithmeticError, match="closed form"):
            gt.build_generic_module(point, 1)
    assert cli.main(["gt", "--top", "2,1,0", "--check"]) == 2
    assert "error: a(2,2,-1) at" in capsys.readouterr().err
    monkeypatch.setattr(gln, "a_coeff", true_a_coeff)
    assert gt.module_relation_report(gt.build_module((2, 1, 0))).ok


def test_builders_check_each_summand_where_it_is_nonzero(monkeypatch):
    """A symbolic coefficient scaled by 2 keeps every zero of the true
    one, so a check where the summand vanishes cannot see it.  On
    (2,1,0,0,0), a(1,1,+), a(2,1,+), a(2,1,-) and a(3,2,+) vanish at the
    first basis vector; the check is made at the first source with a
    nonzero value, so doubling any summand whose matrix is nonzero makes
    the build raise.  A summand that vanishes at every source, as
    a(4,4,+) does, is the zero matrix, whose den is 1."""
    top = (2, 1, 0, 0, 0)
    true_a_coeff = gln.a_coeff
    matrices = gt.build_module(top).matrices
    summands = [(k, i, s) for k in range(1, 5) for i in range(1, k + 1) for s in (1, -1)]
    nonzero = [(k, i, s) for k, i, s in summands
               if any(matrices[f"A{k}{i}{'+' if s > 0 else '-'}"])]
    assert {(1, 1, 1), (2, 1, 1), (2, 1, -1), (3, 2, 1)} <= set(nonzero)
    zero = [f"A{k}{i}{'+' if s > 0 else '-'}" for k, i, s in summands
            if (k, i, s) not in nonzero]
    assert "A44+" in zero
    assert all(ladder_oracle(p, 4, 4, 1) == 0 for p in gt.enumerate_patterns(top))
    for name in zero:
        assert matrices[name] == gt.zeros(len(matrices[name]))
    for summand in nonzero:
        monkeypatch.setattr(gln, "a_coeff", lambda ctx, k, i, s: true_a_coeff(ctx, k, i, s)
                            * (2 if (k, i, s) == summand else 1))
        with pytest.raises(ArithmeticError, match=re.escape("a(%d,%d,%+d) at" % summand)):
            gt.build_module(top)


def test_module_size_budget():
    # dimension arithmetic only: nothing this large is ever built
    assert gt.weyl_dim((4, 2, 1, 0)) <= gt.MAX_MODULE_DIM
    assert gt.generic_dim(3, 2) <= gt.MAX_MODULE_DIM
    assert gt.weyl_dim((4, 3, 2, 1, 0, 0)) <= gt.MAX_CHECK_DIM
    with pytest.raises(ValueError, match="exceeds the budget"):
        gt.build_module((100, 0, 0, 0))
    with pytest.raises(ValueError, match="module dimension 10001 exceeds"):
        gt.build_generic_module([(Fraction(1, 3),), (1, 0)], radius=5000)


def test_generic_report_needs_rank_two():
    m = gt.build_generic_module([(Fraction(1, 3),)], radius=2)
    with pytest.raises(ValueError, match="n >= 2"):
        gt.generic_module_report(m)
    # rank two at radius 0: one basis vector and no interior, so no data
    m = gt.build_generic_module([(Fraction(1, 3),), (1, 0)], radius=0)
    assert m.dim == 1 and m.interior == []
    with pytest.raises(ValueError, match="interior vectors"):
        gt.generic_module_report(m)
