import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewgt import cli, gln, gtmodules as gt
from skewgt.polys import vandermonde
from skewgt.relations import single_shift_catalogue, suite_gl3
from skewgt.skew import commutator

from conftest import dense, failures


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
    assert gt.weyl_dim(top) > gt.MAX_MODULE_DIM

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
    assert gt.mat_is_zero(m.matrices["X1+"])
    assert gt.mat_is_zero(m.matrices["X1-"])
    assert m.spectrum("X11") == [Fraction(0)]


def test_vandermonde_action():
    signs = gt.SignData.from_vectors(gt.row_fillings((1, 0)))
    hi = gt.normalize_pattern([(1,), (1, 0)])
    assert gt.act_vandermonde(2, hi, signs) == 2
    assert gt.act_vandermonde(2, hi, None) == 2
    flipped = gt.SignData.from_vectors(gt.row_fillings((1, 0)), {2: [-1]})
    assert gt.act_vandermonde(2, hi, flipped) == -2
    same = gt.normalize_pattern([(3,), (3, 3)])
    s33 = gt.SignData.from_vectors(gt.row_fillings((3, 3)))
    assert gt.act_vandermonde(2, same, s33) == 1


def test_vandermonde_squares_match_evaluation():
    for top in [(1, 0), (2, 1, 0), (2, 2, 0)]:
        signs = gt.SignData.from_vectors(gt.row_fillings(top))
        ctx = gln.triangle(len(top))
        for k in range(2, len(top) + 1):
            vk = vandermonde(ctx, k)
            for p in gt.enumerate_patterns(top):
                ev = gt.act_vandermonde(k, p, signs)
                assert ev ** 2 == vk.evaluate(gt.pattern_point(p)) ** 2


def test_standard_module_matches_defining_representation():
    m = gt.build_module((1, 0))
    assert m.dim == 2
    e = m.matrices["X1+"]
    f = m.matrices["X1-"]
    h1 = m.matrices["X11"]
    # traces and eigenvalues of the defining 2-dimensional representation
    assert sorted(m.spectrum("X11")) == [0, 1]
    assert sorted(m.spectrum("X22")) == [0, 1]
    assert gt.mat_is_zero(gt.mat_mul(e, e))
    assert gt.mat_is_zero(gt.mat_mul(f, f))
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
               single_shift_catalogue(3, mod.matrices, gt.zeros(mod.dim))]
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
    ctx = gln.triangle(3)
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
    ctx = gln.triangle(3)
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
    assert gt.mat_is_zero(m.matrices["X1+"])
    assert gt.mat_is_zero(m.matrices["X1-"])
    assert not gt.mat_is_zero(m.matrices["X11"])


def test_generic_module_rejects_nonregular():
    with pytest.raises(ValueError):
        gt.build_generic_module(
            [(Fraction(1, 2),), (Fraction(1, 3), Fraction(1, 3)), (2, 1, 0)],
            radius=1)
    assert not gt.is_regular_point([(0,), (1, 0), (2, 1, 0)], 3)
    assert gt.is_regular_point([(Fraction(1, 3),), (1, 0)], 2)


def test_nonsemisimple_example():
    m = gt.example_nonsemisimple(1)
    rep = gt.nonsemisimple_report(m)
    assert rep.ok
    v2 = m.matrices["V2"].entry
    assert v2(0, 0) + v2(1, 1) == 0          # trace
    assert v2(0, 0) * v2(1, 1) - v2(0, 1) * v2(1, 0) == -1   # determinant
    with pytest.raises(ValueError):
        gt.example_nonsemisimple(0)
    v2 = gt.example_nonsemisimple(Fraction(1, 2)).matrices["V2"]
    assert v2.entry(0, 1) == Fraction(1, 2) and type(v2.entry(0, 1)) is Fraction
    assert [v2.entry(i, j) for i in (0, 1) for j in (0, 1)] == \
        [1, Fraction(1, 2), 0, -1]
    assert v2.den == 2 and [dict(row) for row in v2] == [{0: 2, 1: 1}, {1: -2}]


def test_module_layer_refuses_floats():
    """A float would enter through its binary expansion (0.3 reads as
    5404319552844595/18014398509481984), so the module layer refuses
    it wherever it takes a rational, as `Poly` does."""
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
            gt.mat_scale(bad, gt.eye(2))
        with pytest.raises(TypeError):
            bad * gt.eye(2)
        with pytest.raises(TypeError):
            gt.eye(2) * bad
        with pytest.raises(TypeError):
            gt.build_module((2, 1, bad))
        with pytest.raises(TypeError):
            gt.example_nonsemisimple(bad)
        with pytest.raises(TypeError):
            gt.diagonal([1, bad])
        with pytest.raises(TypeError):
            gt.from_values([{0: Fraction(1, 3)}, {0: bad}])
    half = gt.mat_scale(Fraction(1, 2), gt.eye(2))
    assert half == gt.diagonal([Fraction(1, 2)] * 2)
    assert gt.mat_scale(3, gt.eye(2)) == gt.diagonal([Fraction(3)] * 2)
    assert half.den == 2 and [dict(row) for row in half] == [{0: 1}, {1: 1}]
    assert half.entry(1, 1) == Fraction(1, 2) and half.entry(0, 1) == 0
    assert gt.build_module((Fraction(2), 1, 0)).dim == 8


def test_matrix_scalar_on_either_side_and_sizes():
    """`m * c` scales as `c * m` does, and operands of different sizes
    are refused instead of cut to the shorter one."""
    assert gt.eye(2) * 2 == gt.diagonal([Fraction(2)] * 2) == 2 * gt.eye(2)
    assert gt.eye(2) * Fraction(1, 2) == gt.diagonal([Fraction(1, 2)] * 2)
    # same numerators, other denominator
    assert gt.eye(2) * Fraction(1, 2) != gt.eye(2)
    for a, b in ((gt.eye(2), gt.eye(3)), (gt.eye(3), gt.eye(2))):
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
    z += gt.eye(2)
    assert z == gt.eye(2) and len(z) == 2


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
        assert type(row) is gt.Row
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


def random_dense(rng, n, density):
    return [[rng.choice(ENTRIES) if rng.random() < density else Fraction(0)
             for _ in range(n)] for _ in range(n)]


def test_sparse_ops_match_dense_reference():
    rng = random.Random(20261018)
    for case in range(120):
        n = rng.randint(1, 12)
        da, db = (random_dense(rng, n, rng.choice([0.0, 0.1, 0.3, 1.0]))
                  for _ in range(2))
        if case % 5 == 0:
            db = [[-v for v in row] for row in da]   # a + b cancels exactly
        a, b = to_sparse(da), to_sparse(db)
        assert to_dense(a) == da and to_dense(b) == db
        assert to_dense(gt.mat_mul(a, b)) == dense_mul(da, db)
        assert to_dense(gt.mat_add(a, b)) == [[x + y for x, y in zip(ra, rb)]
                                              for ra, rb in zip(da, db)]
        assert to_dense(gt.mat_sub(a, b)) == dense_sub(da, db)
        assert to_dense(gt.mat_sub(a, a)) == [[0] * n for _ in range(n)]
        c = rng.choice(ENTRIES)
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
            assert gt.mat_is_zero(m) == all(not x for row in dm for x in row)
            cols = rng.sample(range(n), rng.randint(0, n))
            assert gt.columns_zero(m, cols) == all(not dm[r][c]
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
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


def test_identity_and_zero_matrices():
    for n in range(1, 5):
        assert to_dense(gt.eye(n)) == [[Fraction(int(i == j)) for j in range(n)]
                                       for i in range(n)]
        assert gt.mat_is_zero(gt.zeros(n)) and not gt.mat_is_zero(gt.eye(n))


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


def diagonal_oracle(k, p):
    """X_kk on a pattern: row sum k minus row sum k-1."""
    return Fraction(sum(p[k - 1]) - (sum(p[k - 2]) if k >= 2 else 0))


def test_ladder_matrices_match_per_pattern_action():
    """Every built ladder summand, ladder and diagonal matrix of the
    (1,0), (2,1,0) and (2,1,0,0) modules and of a radius-1 generic
    window (dim 27), column by column, against the closed-form
    coefficients evaluated with Fractions on the pattern entries: A_ki(+-)
    sends p to p with entry (k, i) moved by +-1 when that target is a
    basis pattern."""
    generic = gt.build_generic_module(
        [(Fraction(1, 2),), (Fraction(1, 3), Fraction(-1, 7)), (2, 1, 0)], 1)
    assert generic.dim == 27
    for mod in [gt.build_module(top) for top in [(1, 0), (2, 1, 0), (2, 1, 0, 0)]] + [generic]:
        top = mod.basis[0][-1]
        n = mod.n
        index = {p: j for j, p in enumerate(mod.basis)}
        for m in mod.matrices.values():
            to_dense(m)
        for j, p in enumerate(mod.basis):
            for k in range(1, n + 1):
                d = diagonal_oracle(k, p)
                assert column(mod.matrices[f"X{k}{k}"], j) == ({j: d} if d else {})
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


def test_module_size_budget():
    # dimension arithmetic only: nothing this large is ever built
    assert gt.weyl_dim((4, 2, 1, 0)) <= gt.MAX_MODULE_DIM
    assert gt.generic_dim(3, 2) <= gt.MAX_MODULE_DIM
    with pytest.raises(ValueError, match="exceeds the budget"):
        gt.build_module((100, 0, 0, 0))
    with pytest.raises(ValueError, match="module dimension 2001 exceeds"):
        gt.build_generic_module([(Fraction(1, 3),), (1, 0)], radius=1000)


def test_generic_report_needs_rank_two():
    m = gt.build_generic_module([(Fraction(1, 3),)], radius=2)
    with pytest.raises(ValueError, match="n >= 2"):
        gt.generic_module_report(m)
    # rank two at radius 0: one basis vector and no interior, so no data
    m = gt.build_generic_module([(Fraction(1, 3),), (1, 0)], radius=0)
    assert m.dim == 1 and m.interior == []
    with pytest.raises(ValueError, match="interior vectors"):
        gt.generic_module_report(m)
