import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skewgt import cli, toy
from skewgt.polys import (DEGREE_BOUND, Context, Poly, _mul_terms, elementary_symmetric,
                          shifted_vandermonde, vandermonde)
from skewgt.ratfunc import RatFunc, linear_factor

from conftest import (chance, edge_cases, edge_polys, is_normal_rational, points, polys,
                      row_permutations, spy_on_poly)

CTX2, CTX3 = Context.triangle(2), Context.triangle(3)


def x(ctx, k, i):
    return Poly.var(ctx, (k, i))


def test_difference_of_squares(ctx2):
    p = (x(ctx2, 2, 1) + x(ctx2, 2, 2)) * (x(ctx2, 2, 1) - x(ctx2, 2, 2))
    assert p == x(ctx2, 2, 1) ** 2 - x(ctx2, 2, 2) ** 2


def test_add_zero_is_identity(ctx2):
    p = x(ctx2, 2, 1) * 3 - 2
    assert p + Poly.zero(ctx2) == p
    assert Poly.zero(ctx2).is_zero


def test_direct_expansion(ctx2):
    p = x(ctx2, 1, 1) * (x(ctx2, 1, 1) - 1)
    assert p == x(ctx2, 1, 1) ** 2 - x(ctx2, 1, 1)


def test_exact_division(ctx2):
    num = x(ctx2, 2, 1) ** 2 - x(ctx2, 2, 2) ** 2
    q = num.exact_div_linear((2, 1), (2, 2), Fraction(0))
    assert q == x(ctx2, 2, 1) + x(ctx2, 2, 2)
    assert (x(ctx2, 2, 1) + 1).exact_div_linear((2, 1), (2, 2), Fraction(0)) is None


def test_exact_division_product_factor(ctx2):
    num = (x(ctx2, 1, 1) - x(ctx2, 2, 1)) * (x(ctx2, 2, 2) - x(ctx2, 2, 1))
    q = num.exact_div_linear((1, 1), (2, 1), Fraction(0))
    assert q == x(ctx2, 2, 2) - x(ctx2, 2, 1)


@settings(max_examples=50)
@given(p=polys(CTX2, max_terms=4, max_deg=3))
@edge_cases(edge_polys(CTX2), ["p"])
def test_divmod_random_roundtrip(p):
    fac = (1, 1), (2, 2), Fraction(-2)
    fac_poly = x(CTX2, 1, 1) - x(CTX2, 2, 2) - 2
    q, r = p.divmod_linear(*fac)
    assert q * fac_poly + r == p
    assert (p * fac_poly).exact_div_linear(*fac) == p


# -- division oracles ------------------------------------------------
#
# A factor (x_a - x_b + c) or (x_a + c) is monic of degree one in x_a, so
# p = q*f + r with r free of x_a has exactly one solution.  The checks
# below hold for any correct division, whatever its algorithm.

CONTEXTS = {2: Context.triangle(2), 3: Context.triangle(3)}
FACTOR_SHAPES = [(with_b, integral_c) for with_b in (True, False)
                 for integral_c in (True, False)]


def factor_poly(ctx, a, b, c):
    f = Poly.var(ctx, a) + c
    return f - Poly.var(ctx, b) if b is not None else f


def check_division(p, a, b, c):
    f = factor_poly(p.ctx, a, b, c)
    q, r = p.divmod_linear(a, b, c)
    assert q * f + r == p
    pa = p.ctx.var_pos(a)
    assert all(exps[pa] == 0 for exps, _ in r.sorted_terms())
    assert (p * f).exact_div_linear(a, b, c) == p
    return q, r


@st.composite
def factors(draw, ctx, with_b, integral_c):
    nv = len(ctx.vars)
    ia = draw(st.integers(0, nv - 2 if with_b else nv - 1))
    b = ctx.vars[draw(st.integers(ia + 1, nv - 1))] if with_b else None
    num = draw(st.integers(-4, 4))
    den = 1 if integral_c else draw(st.sampled_from([2, 3, 5]))
    if not integral_c and num % den == 0:
        num += 1
    return ctx.vars[ia], b, Fraction(num, den)


@st.composite
def sparse_polys(draw, ctx, strip=None):
    """Sparse polynomials of degree <= 4 per variable; `strip` names a
    variable whose exponent is forced to zero."""
    nv = len(ctx.vars)
    exps = st.tuples(*[st.integers(0, 4)] * nv)
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    if strip is not None:
        pos = ctx.var_pos(strip)
        terms = {e[:pos] + (0,) + e[pos + 1:]: v for e, v in terms.items()}
    return Poly(ctx, terms)


@pytest.mark.parametrize("n", sorted(CONTEXTS))
@pytest.mark.parametrize("with_b,integral_c", FACTOR_SHAPES)
@settings(max_examples=30)
@given(data=st.data())
def test_divmod_oracle(n, with_b, integral_c, data):
    ctx = CONTEXTS[n]
    a, b, c = data.draw(factors(ctx, with_b, integral_c))
    strip = a if data.draw(st.booleans()) else None
    check_division(data.draw(sparse_polys(ctx, strip)), a, b, c)


@pytest.mark.parametrize("n", sorted(CONTEXTS))
@pytest.mark.parametrize("with_b,integral_c", FACTOR_SHAPES)
def test_divmod_edge_polys(n, with_b, integral_c):
    ctx = CONTEXTS[n]
    a = ctx.vars[0]
    b = ctx.vars[-1] if with_b else None
    c = Fraction(-2) if integral_c else Fraction(3, 2)
    q, r = check_division(Poly.zero(ctx), a, b, c)
    assert q.is_zero and r.is_zero
    # a polynomial free of x_a is its own remainder
    p = Poly.var(ctx, ctx.vars[-1]) ** 2 * 3 - Fraction(1, 2)
    q, r = check_division(p, a, b, c)
    assert q.is_zero and r == p
    # the remainder is p evaluated on the hyperplane x_a = x_b - c
    p = Poly.var(ctx, a) ** 3 - Poly.var(ctx, ctx.vars[1]) * Poly.var(ctx, a)
    s = -c if b is None else Poly.var(ctx, b) - c
    xv = Poly.var(ctx, ctx.vars[1])
    q, r = check_division(p, a, b, c)
    assert r == s ** 3 - xv * s


def test_divmod_orientation_check(ctx2):
    with pytest.raises(ValueError):
        Poly.one(ctx2).divmod_linear((2, 2), (2, 1), Fraction(0))
    with pytest.raises(ValueError):
        Poly.one(ctx2).divmod_linear((2, 1), (2, 1), Fraction(0))


def to_sympy(poly, syms):
    sympy = pytest.importorskip("sympy")
    return sum((sympy.Rational(v.numerator, v.denominator)
                * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                for e, v in poly.sorted_terms()), sympy.Integer(0))


@st.composite
def sympy_division_cases(draw):
    """A polynomial of up to six terms of degree <= 5 at n = 2 or 3, and
    a factor (x_a - x_b + c), b after a, about seven times in ten where
    some b exists, else (x_a + c); c = k/q, k in [-4, 4], q in {1, 2, 3}."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    ia = draw(st.integers(0, len(ctx.vars) - 1))
    b = None
    if ia + 1 < len(ctx.vars) and draw(chance(7)):
        b = ctx.vars[draw(st.integers(ia + 1, len(ctx.vars) - 1))]
    c = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
    return draw(polys(ctx, max_terms=6, max_deg=5)), ctx.vars[ia], b, c


def _check_division_against_sympy(p, a, b, c):
    sympy = pytest.importorskip("sympy")
    ctx = p.ctx
    syms = [sympy.Symbol(ctx.var_name(v)) for v in ctx.vars]
    ia = ctx.var_pos(a)
    f = factor_poly(ctx, a, b, c)
    # lex order with x_a first: the leading term of f is x_a
    gens = [syms[ia]] + syms[:ia] + syms[ia + 1:]
    sq, sr = sympy.div(to_sympy(p, syms), to_sympy(f, syms), *gens)
    q, r = p.divmod_linear(a, b, c)
    assert sympy.expand(to_sympy(q, syms) - sq) == 0
    assert sympy.expand(to_sympy(r, syms) - sr) == 0


@settings(max_examples=40)
@given(case=sympy_division_cases())
@edge_cases([(p, (1, 1), (2, 2), Fraction(1, 2)) for p in edge_polys(CTX2)]
            + [(p, (2, 1), None, -3) for p in edge_polys(CTX3)], ["case"])
def test_divmod_matches_sympy(case):
    _check_division_against_sympy(*case)


@pytest.mark.slow
@settings(max_examples=3000)
@given(case=sympy_division_cases())
def test_divmod_matches_sympy_long(case):
    _check_division_against_sympy(*case)


@settings(max_examples=20)
@given(p=polys(CTX2))
@edge_cases(edge_polys(CTX2), ["p"])
def test_shift_substitution(p):
    v2 = x(CTX2, 2, 1) - x(CTX2, 2, 2)
    assert v2.subs_shift({(2, 1): 1}) == v2 - 1
    assert p.subs_shift({(1, 1): 0}) == p


def test_shift_product_oracle(ctx2):
    # oracle: shift each factor separately, multiply the shifted factors
    a = x(ctx2, 2, 1) - x(ctx2, 1, 1)
    b = x(ctx2, 2, 2) - x(ctx2, 1, 1)
    shifted = (-(a * b)).subs_shift({(1, 1): 1})
    oracle = -((a + 1) * (b + 1))
    assert shifted == oracle


@settings(max_examples=20)
@given(p=polys(CTX3))
@edge_cases(edge_polys(CTX3), ["p"])
def test_permutation_examples(p):
    swap = {(2, 1): (2, 2), (2, 2): (2, 1)}
    v2 = x(CTX3, 2, 1) - x(CTX3, 2, 2)
    assert v2.permute(swap) == -v2
    e31 = elementary_symmetric(CTX3, 3, 1)
    cyc = {(3, 1): (3, 2), (3, 2): (3, 3), (3, 3): (3, 1)}
    assert e31.permute(cyc) == e31
    assert p.permute({}) == p


def test_elementary_symmetric(ctx2):
    assert elementary_symmetric(ctx2, 2, 1) == x(ctx2, 2, 1) + x(ctx2, 2, 2)
    assert elementary_symmetric(ctx2, 2, 2) == x(ctx2, 2, 1) * x(ctx2, 2, 2)
    with pytest.raises(ValueError):
        elementary_symmetric(ctx2, 2, 3)


def test_vandermonde_and_shifted(ctx2):
    assert vandermonde(ctx2, 2) == x(ctx2, 2, 1) - x(ctx2, 2, 2)
    assert shifted_vandermonde(ctx2, 2, [1]) == x(ctx2, 2, 1) - x(ctx2, 2, 2) + 1


def test_vandermonde_rank3_expansion(ctx3):
    # oracle: alternating sum over permutations of the monomial staircase
    rows = [(3, 1), (3, 2), (3, 3)]
    oracle = Poly.zero(ctx3)
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly.const(ctx3, sign)
        for pos, p in enumerate(perm):
            term = term * Poly.var(ctx3, rows[pos]) ** (2 - p)
        oracle = oracle + term
    v3 = vandermonde(ctx3, 3)
    assert v3 == oracle
    assert len(v3.terms) == 6


def test_vandermonde_square_is_the_discriminant(ctx3):
    # the squared row-3 Vandermonde must equal the classical cubic
    # discriminant in the elementary symmetric functions
    e1 = elementary_symmetric(ctx3, 3, 1)
    e2 = elementary_symmetric(ctx3, 3, 2)
    e3 = elementary_symmetric(ctx3, 3, 3)
    disc = (e1 ** 2 * e2 ** 2 - 4 * e2 ** 3 - 4 * e1 ** 3 * e3
            + 18 * e1 * e2 * e3 - 27 * e3 ** 2)
    assert vandermonde(ctx3, 3) ** 2 == disc


def test_vandermonde_parity(ctx3):
    v3 = vandermonde(ctx3, 3)
    sq = v3 * v3
    for (i, j) in ((1, 2), (2, 3), (1, 3)):
        swap = {(3, i): (3, j), (3, j): (3, i)}
        assert v3.permute(swap) == -v3
        assert sq.permute(swap) == sq


@settings(max_examples=60)
@given(a=polys(CTX2), b=polys(CTX2), c=polys(CTX2))
@edge_cases(edge_polys(CTX2), ["a", "b", "c"])
def test_ring_axioms_random(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_content_primitive(ctx2):
    p = 6 * x(ctx2, 2, 1) - Fraction(9, 2)
    content, prim = p.content_primitive()
    assert content * prim == p
    assert prim.sorted_terms()[0][1] > 0
    nums = [c.numerator for c in prim.terms.values()]
    import math
    assert math.gcd(*nums) == 1
    assert all(c.denominator == 1 for c in prim.terms.values())


def test_evaluate(ctx2):
    p = x(ctx2, 2, 1) ** 2 + x(ctx2, 1, 1)
    val = p.evaluate({(2, 1): Fraction(3), (1, 1): Fraction(1, 2)})
    assert val == Fraction(19, 2)
    assert type(p.evaluate({(2, 1): 3, (1, 1): 1})) is Fraction
    with pytest.raises(TypeError):
        p.evaluate({(2, 1): 3, (1, 1): 0.5})
    # every coordinate is checked, also one the polynomial does not read
    with pytest.raises(TypeError):
        p.evaluate({(2, 1): 3, (1, 1): 1, (2, 2): 0.5})
    with pytest.raises(KeyError):
        p.evaluate({(2, 1): 3})


@st.composite
def sympy_evaluation_cases(draw):
    """A point (see conftest.points) and a polynomial of up to six terms
    of degree <= 5 at n = 2 or 3: one in ten the zero, one in ten a
    constant k/q, k in [-9, 9], q in {1, 4}, and four in ten of the rest
    its primitive part, with int coefficients only."""
    ctx = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    p = draw(polys(ctx, max_terms=6, max_deg=5))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        p = Poly.zero(ctx)
    elif kind == 1:
        p = Poly.const(ctx, Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 4]))))
    elif draw(chance(4)):
        p = p.content_primitive()[1]
    return p, draw(points(ctx))


def _check_evaluation_against_sympy(p, point):
    """Poly.evaluate against sympy's subs at a rational point."""
    sympy = pytest.importorskip("sympy")
    syms = [sympy.Symbol(p.ctx.var_name(v)) for v in p.ctx.vars]
    val = p.evaluate(point)
    assert type(val) is Fraction
    expected = to_sympy(p, syms).subs(
        {s: sympy.Rational(point[v].numerator, point[v].denominator)
         for s, v in zip(syms, p.ctx.vars)})
    assert sympy.Rational(val.numerator, val.denominator) == expected, (p, point)


@settings(max_examples=60)
@given(case=sympy_evaluation_cases())
@edge_cases([(p, {v: Fraction(-7, 6) for v in CTX3.vars}) for p in edge_polys(CTX3)]
            + [(p, {v: 3 for v in CTX2.vars}) for p in edge_polys(CTX2)], ["case"])
def test_evaluate_matches_sympy(case):
    _check_evaluation_against_sympy(*case)


@pytest.mark.slow
@settings(max_examples=3000)
@given(case=sympy_evaluation_cases())
def test_evaluate_matches_sympy_long(case):
    _check_evaluation_against_sympy(*case)


def test_str_deterministic(ctx2):
    p = x(ctx2, 2, 2) - 2 * x(ctx2, 1, 1) ** 2 + Fraction(1, 2)
    assert str(p) == "-2*x11^2 + x22 + 1/2"


# -- coefficient storage ----------------------------------------------
#
# A stored coefficient is an int when integral and a Fraction with
# denominator > 1 otherwise; never 0, never Fraction(k, 1), never a float.

def assert_normalized(p):
    for v in p.terms.values():
        assert v != 0
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)


scalars = st.one_of(st.integers(-5, 5),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@settings(max_examples=60)
@given(data=st.data())
def test_operations_store_normalized_coefficients(data):
    ctx = CONTEXTS[3]
    p = data.draw(sparse_polys(ctx))
    q = data.draw(sparse_polys(ctx))
    k = data.draw(scalars)
    a, b, c = data.draw(factors(ctx, data.draw(st.booleans()), data.draw(st.booleans())))
    shift = {v: data.draw(st.integers(-2, 2)) for v in ctx.shift_vars}
    exact = p * factor_poly(ctx, a, b, c)
    results = [p, p + q, p - q, p * q, p * k, k * p, p + k, p - k,
               p.subs_shift(shift), p.permute(data.draw(row_permutations(ctx))),
               *p.divmod_linear(a, b, c), *exact.divmod_linear(a, b, c),
               p.content_primitive()[1]]
    # sums that cancel: every zero is dropped by the constructor alone
    back = {v: -m for v, m in shift.items()}
    cancelling = [(p - p, 0), (p * q - q * p, 0), ((p + q) - q, p),
                  (p.subs_shift(shift).subs_shift(back), p)]
    for r, expected in cancelling:
        assert r == expected
    for r in results + [r for r, _ in cancelling]:
        assert_normalized(r)


@settings(max_examples=60)
@given(p=sparse_polys(CONTEXTS[3]))
def test_primitive_part_has_int_coefficients(p):
    content, prim = p.content_primitive()
    assert is_normal_rational(content)
    assert all(type(v) is int for v in prim.terms.values())
    assert content * prim == p


@settings(max_examples=40)
@given(k=st.integers(-9, 9), exps=st.tuples(*[st.integers(0, 3)] * 3))
def test_integral_fraction_and_int_build_the_same_poly(k, exps):
    ctx = CONTEXTS[2]
    p = Poly(ctx, {exps: Fraction(k), (0, 0, 0): Fraction(2 * k, 2)})
    q = Poly(ctx, {exps: k, (0, 0, 0): k})
    assert p == q and hash(p) == hash(q) and str(p) == str(q)
    assert p.terms == q.terms
    assert_normalized(p)
    p, q = Poly.const(ctx, Fraction(k)), Poly.const(ctx, k)
    assert p == q and hash(p) == hash(q) and str(p) == str(q)


def test_float_coefficients_are_refused(ctx2):
    with pytest.raises(TypeError):
        Poly.const(ctx2, 0.5)
    with pytest.raises(TypeError):
        Poly(ctx2, {(1, 0, 0): 0.5})
    with pytest.raises(TypeError):
        x(ctx2, 1, 1) * 0.5
    for zero in (0.0, -0.0):
        with pytest.raises(TypeError):
            Poly(ctx2, {(0, 0, 0): zero})
        with pytest.raises(TypeError):
            Poly(ctx2, {(1, 0, 0): 1, (0, 0, 0): zero})
        with pytest.raises(TypeError):
            Poly.const(ctx2, zero)
        with pytest.raises(TypeError):
            shifted_vandermonde(ctx2, 2, [zero])
    with pytest.raises(TypeError):
        shifted_vandermonde(ctx2, 2, [0.3])


def test_exponent_tuple_length_is_checked(ctx2):
    with pytest.raises(ValueError, match="has 2 slots; the context has 3 variables"):
        Poly(ctx2, {(1, 0): 1})
    with pytest.raises(ValueError):
        Poly(ctx2, {(0, 0, 0): 1, (0, 0, 0, 1): 2})
    assert Poly(ctx2, {(0, 1, 0): 1}) == x(ctx2, 2, 1)


def test_exponent_tuples_are_validated(ctx2):
    for exps, why in (((-1, 0, 0), "has a negative exponent"),
                      ((0, 1.5, 0), "has a non-integer exponent 1.5"),
                      ((0, 0, "1"), "has a non-integer exponent '1'"),
                      ((DEGREE_BOUND, 0, 0), f"has total degree {DEGREE_BOUND}"),
                      ((DEGREE_BOUND - 1, 0, 1), f"has total degree {DEGREE_BOUND}")):
        with pytest.raises(ValueError) as err:
            Poly(ctx2, {(0, 0, 0): 1, exps: 1})
        assert str(err.value).startswith(f"exponent tuple {exps!r} {why}")
    top = Poly(ctx2, {(0, DEGREE_BOUND - 1, 0): 3})
    assert top.degree() == DEGREE_BOUND - 1
    assert top.sorted_terms() == [((0, DEGREE_BOUND - 1, 0), 3)]


def test_product_degree_is_bounded(ctx2):
    half = Poly(ctx2, {(DEGREE_BOUND // 2 - 2, 1, 0): 1, (0, 0, 0): 2})
    # degree B - 2: every field sum stays in its field
    assert (half * half).sorted_terms() == [((DEGREE_BOUND - 4, 2, 0), 1),
                                            ((DEGREE_BOUND // 2 - 2, 1, 0), 4),
                                            ((0, 0, 0), 4)]
    top = Poly(ctx2, {(0, 0, DEGREE_BOUND - 1): 1})
    for a, b in ((top, x(ctx2, 1, 1)), (x(ctx2, 2, 2), top), (half, half * half)):
        with pytest.raises(ValueError, match=f"product of degree {a.degree() + b.degree()}: "
                                             f"degrees stay below {DEGREE_BOUND}"):
            a * b
    assert (top * 2).degree() == DEGREE_BOUND - 1
    assert (top * Poly.zero(ctx2)).is_zero


@settings(max_examples=60)
@given(data=st.data())
def test_mul_terms_accumulates_into_a_map(data):
    # `_mul_terms(a, b, out)` against a product written on exponent
    # tuples; (p + q)(p - q) makes cross terms that cancel to zero in the
    # map, and `out` may hold the negated product, which cancels it all
    ctx = CONTEXTS[3]
    p, q, r = (data.draw(sparse_polys(ctx)) for _ in range(3))
    a, b = (p + q, p - q) if data.draw(st.booleans()) else (p, q)
    expected = {e: c for e, c in r.sorted_terms()}
    for ea, ca in a.sorted_terms():
        for eb, cb in b.sorted_terms():
            e = tuple(i + j for i, j in zip(ea, eb))
            expected[e] = expected.get(e, 0) + ca * cb
    expected = Poly(ctx, expected)
    if data.draw(st.booleans()):
        r, expected = r - a * b, r
    out = dict(r.terms)
    before = dict(a.terms), dict(b.terms)
    assert _mul_terms(ctx, a.terms, b.terms, out) is out
    assert Poly._from_packed(ctx, out) == expected
    assert (dict(a.terms), dict(b.terms)) == before
    assert Poly._from_packed(ctx, _mul_terms(ctx, a.terms, b.terms)) == expected - r


def test_sum_cofactor_keeps_the_degree_bound(ctx2):
    # a sum multiplies each part by the factors its operand lacks on term
    # maps; that product is refused past the bound as `*` refuses it
    top = Poly(ctx2, {(DEGREE_BOUND - 1, 0, 0): 1})
    f, _ = linear_factor((2, 1), (2, 2), 0)
    g, _ = linear_factor((2, 1), (2, 2), 1)
    with pytest.raises(ValueError) as err:
        top * g.to_poly(ctx2)
    message = str(err.value)
    assert message == f"product of degree {DEGREE_BOUND}: degrees stay below {DEGREE_BOUND}"
    lone = RatFunc(Poly.one(ctx2), [g])
    # one operand over f, and a group of two over f whose sum is multiplied once
    for over_f in ([RatFunc(top, [f])], [RatFunc(top, [f]), RatFunc(x(ctx2, 1, 1), [f])]):
        with pytest.raises(ValueError) as err:
            RatFunc.sum(ctx2, over_f + [lone])
        assert str(err.value) == message


def test_exponent_bound_through_the_cli(capsys, monkeypatch):
    # toy's degree budget keeps outside input far below the bound; lifted,
    # the constructor's refusal reaches the user as a usage error
    monkeypatch.setattr(toy, "MAX_DEGREE", 10 * DEGREE_BOUND)
    code = cli.main(["toy", "--f", f"x^{DEGREE_BOUND}+1", "--target", "1/(x+1)"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"error: exponent tuple ({DEGREE_BOUND},) has total degree "
                   f"{DEGREE_BOUND}; degrees stay below {DEGREE_BOUND}\n")


# -- packed kernels against sympy --------------------------------------
#
# Every kernel on packed keys, on random polynomials over triangle(3) and
# triangle(4) with int and Fraction coefficients, against sympy's own
# arithmetic on the same polynomials read through sorted_terms().

def grlex_key(exps):
    """Graded lexicographic order with row-major variable precedence, the
    order of the printed form, written on exponent tuples."""
    return (sum(exps), exps)


ORACLE_CONTEXTS = {3: Context.triangle(3), 4: Context.triangle(4)}


@st.composite
def oracle_monomials(draw, ctx):
    """Exponent tuples with up to three nonzero exponents of at most 3."""
    exps = [0] * len(ctx.vars)
    for pos, e in draw(st.dictionaries(st.integers(0, len(ctx.vars) - 1),
                                       st.integers(1, 3), max_size=3)).items():
        exps[pos] = e
    return tuple(exps)


@st.composite
def oracle_polys(draw, ctx):
    return Poly(ctx, draw(st.dictionaries(oracle_monomials(ctx), scalars, max_size=5)))


@pytest.mark.parametrize("n", sorted(ORACLE_CONTEXTS))
@settings(max_examples=25)
@given(data=st.data())
def test_packed_kernels_match_sympy(n, data):
    sympy = pytest.importorskip("sympy")
    ctx = ORACLE_CONTEXTS[n]
    syms = [sympy.Symbol(ctx.var_name(v)) for v in ctx.vars]
    sym = dict(zip(ctx.vars, syms))

    def same(poly, expr):
        return sympy.expand(to_sympy(poly, syms) - expr) == 0

    p, q = data.draw(oracle_polys(ctx)), data.draw(oracle_polys(ctx))
    sp, sq = to_sympy(p, syms), to_sympy(q, syms)
    assert same(p * q, sp * sq) and same(p + q, sp + sq) and same(p - q, sp - sq)
    a, b, c = data.draw(factors(ctx, data.draw(st.booleans()), data.draw(st.booleans())))
    ia = ctx.var_pos(a)
    quot, rem = p.divmod_linear(a, b, c)
    squot, srem = sympy.div(sp, to_sympy(factor_poly(ctx, a, b, c), syms),
                            syms[ia], *syms[:ia], *syms[ia + 1:])
    assert same(quot, squot) and same(rem, srem)
    shift = {v: data.draw(st.integers(-2, 2)) for v in ctx.shift_vars}
    assert same(p.subs_shift(shift), sp.xreplace({sym[v]: sym[v] - s for v, s in shift.items()}))
    mapping = data.draw(row_permutations(ctx))
    assert same(p.permute(mapping), sp.xreplace({sym[u]: sym[v] for u, v in mapping.items()}))
    point = {v: data.draw(scalars) for v in ctx.vars}
    value = sp.xreplace({sym[v]: sympy.Rational(k.numerator, k.denominator)
                         for v, k in point.items()})
    assert p.evaluate(point) == Fraction(int(sympy.numer(value)), int(sympy.denom(value)))
    # int order on keys is grlex order on the unpacked tuples, so the
    # leading term and the printed order are those of the tuples
    for r in (p, p * q, quot, rem):
        tuples = [ctx.unpack(k) for k in sorted(r.terms)]
        assert tuples == sorted(tuples, key=grlex_key)
        assert [ctx.pack(e) for e in tuples] == sorted(r.terms)
        assert [e for e, _ in r.sorted_terms()] == tuples[::-1]
        if tuples:
            assert r.sorted_terms()[0][0] == max(tuples, key=grlex_key)
            assert r.degree() == max(map(sum, tuples))


# -- Taylor shifts by columns and the value screen of linear division -----
#
# `_shift_one` runs Horner's scheme on the coefficient list of each
# monomial free of the shifted variable and returns a polynomial free of
# that variable as it is; `exact_div_linear` screens (x_a + c) with an
# integral c by the values of p at 0, (1, ..., 1) and (-1, ..., -1).
# sympy and `divmod_linear` are the oracles.

LINE = Context.line()


@st.composite
def line_polys(draw, max_degree=60):
    """Univariate polynomials up to degree `max_degree`, dense or sparse,
    with int and Fraction coefficients."""
    degree = draw(st.integers(0, max_degree))
    exps = draw(st.lists(st.integers(0, degree), max_size=degree + 1)) + [degree]
    return Poly(LINE, {(e,): draw(scalars) for e in exps})


@st.composite
def deep_monomials(draw, ctx):
    exps = [0] * len(ctx.vars)
    for pos, e in draw(st.dictionaries(st.integers(0, len(ctx.vars) - 1),
                                       st.integers(1, 6), max_size=3)).items():
        exps[pos] = e
    return tuple(exps)


@st.composite
def deep_polys(draw, ctx):
    """Sparse polynomials with exponents up to 6 in every variable and
    up to three variables per term."""
    return Poly(ctx, draw(st.dictionaries(deep_monomials(ctx), scalars, max_size=6)))


@settings(max_examples=40)
@given(data=st.data())
def test_multivariate_subs_shift_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    ctx = ORACLE_CONTEXTS[3]
    syms = [sympy.Symbol(ctx.var_name(v)) for v in ctx.vars]
    sym = dict(zip(ctx.vars, syms))
    p = data.draw(deep_polys(ctx))
    shift = {v: data.draw(st.integers(-6, 6)) for v in ctx.shift_vars}
    expected = to_sympy(p, syms).xreplace({sym[v]: sym[v] - s for v, s in shift.items()})
    assert sympy.expand(to_sympy(p.subs_shift(shift), syms) - expected) == 0
    assert p.subs_shift(shift).subs_shift({v: -s for v, s in shift.items()}) == p


@settings(max_examples=40)
@given(p=line_polys(), s=st.integers(-30, 30))
def test_line_subs_shift_matches_sympy_at_high_degree(p, s):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    shifted = p.subs_shift({(1, 1): s})
    assert sympy.expand(to_sympy(shifted, [x]) - to_sympy(p, [x]).xreplace({x: x - s})) == 0
    assert shifted.degree() == p.degree()
    assert shifted.subs_shift({(1, 1): -s}) == p


def test_shift_free_of_the_variable_returns_the_polynomial(ctx2):
    p = x(ctx2, 2, 1) * x(ctx2, 2, 2) + 3
    assert p.subs_shift({(1, 1): 4}) is p
    assert Poly.zero(ctx2).subs_shift({(1, 1): 4}).is_zero


def divisions(p, a, c):
    q, r = p.divmod_linear(a, None, c)
    return q if r.is_zero else None


@st.composite
def linear_roots(draw):
    """A translate c of (x_a + c): an int, an integral Fraction or a
    proper Fraction."""
    num = draw(st.integers(-9, 9))
    return draw(st.sampled_from([num, Fraction(num), Fraction(num, draw(st.sampled_from([2, 3, 7])))]))


@settings(max_examples=60)
@given(data=st.data())
def test_exact_div_linear_agrees_with_divmod(data):
    ctx = data.draw(st.sampled_from([LINE, ORACLE_CONTEXTS[3]]))
    p = data.draw(line_polys(max_degree=12) if ctx is LINE else deep_polys(ctx))
    a = data.draw(st.sampled_from(ctx.vars))
    c = data.draw(linear_roots())
    assert p.exact_div_linear(a, None, c) == divisions(p, a, c)
    # a multiple of (x_a + c) always divides, back to the cofactor
    product = p * (Poly.var(ctx, a) + c)
    assert product.exact_div_linear(a, None, c) == p
    # and a multiple of a root's neighbour only when it has the root
    near = p * (Poly.var(ctx, a) + c + 1)
    assert near.exact_div_linear(a, None, c) == divisions(near, a, c)


@pytest.mark.parametrize("n", sorted(ORACLE_CONTEXTS))
@settings(max_examples=40)
@given(data=st.data())
def test_shift_one_matches_sympy_on_each_variable(n, data):
    """One variable at a time, any variable of the context, exponents
    up to 6: the column shift against sympy's substitution, and the
    shift by -s undoing the shift by s."""
    sympy = pytest.importorskip("sympy")
    ctx = ORACLE_CONTEXTS[n]
    syms = [sympy.Symbol(ctx.var_name(v)) for v in ctx.vars]
    p = data.draw(deep_polys(ctx))
    v = data.draw(st.sampled_from(ctx.vars))
    s = data.draw(st.integers(-9, 9).filter(bool))
    xv = syms[ctx.var_pos(v)]
    shifted = p.subs_shift({v: s})
    assert sympy.expand(to_sympy(shifted, syms) - to_sympy(p, syms).subs(xv, xv - s)) == 0
    assert shifted.subs_shift({v: -s}) == p


# -- the value screen of (x_a + c) ----------------------------------------
#
# With int coefficients, (x_a + c) | p forces c | p(0), (1 + c) | p(1, ..., 1)
# and (c - 1) | p(-1, ..., -1), a zero divisor meaning a zero value.  The
# oracles: a multiple always gives its cofactor back, for every c in
# [-15, 15], 0 and +-1 included, and the screen's answer is always the
# division's.  Near misses add a constant or a monomial to a multiple,
# so they pass some of the three tests and fail others.

SCREEN_CONTEXTS = [LINE, ORACLE_CONTEXTS[3], ORACLE_CONTEXTS[4]]


@st.composite
def screen_cases(draw):
    ctx = draw(st.sampled_from(SCREEN_CONTEXTS))
    q = draw(line_polys(max_degree=8) if ctx is LINE else deep_polys(ctx))
    a = draw(st.sampled_from(ctx.vars))
    c = draw(st.integers(-15, 15))
    return ctx, q, a, c


@settings(max_examples=150)
@given(case=screen_cases())
def test_value_screen_keeps_every_divisor(case):
    ctx, q, a, c = case
    product = q * (Poly.var(ctx, a) + c)
    assert product.exact_div_linear(a, None, c) == q
    assert product.exact_div_linear(a, None, Fraction(c)) == q


@settings(max_examples=150)
@given(case=screen_cases(), data=st.data())
def test_value_screen_agrees_with_the_division(case, data):
    ctx, q, a, c = case
    p = q * (Poly.var(ctx, a) + c)
    if data.draw(st.booleans()):
        p = p + Poly(ctx, {data.draw(deep_monomials(ctx)): data.draw(scalars)})
    # the quotient exactly when the remainder is zero, else None
    assert p.exact_div_linear(a, None, c) == divisions(p, a, c)
    values = p._screen_values()
    if all(type(v) is int for v in p.terms.values()):
        assert values == tuple(p.evaluate({v: k for v in ctx.vars}) for k in (0, 1, -1))
    else:
        assert values == ()


@pytest.mark.parametrize("c", [0, 1, -1])
def test_value_screen_is_exact_on_the_line_at_zero_and_one(c, monkeypatch):
    """On one variable x + c divides p exactly when p(-c) = 0, which is
    the screen's zero-divisor test for c = 0 (p(0)), c = -1 (p(1)) and
    c = 1 (p(-1)): no failing trial there reaches the division."""
    divisions_run = spy_on_poly(monkeypatch, "divmod_linear")
    xv = Poly.var(LINE, (1, 1))

    @settings(max_examples=60)
    @given(coeffs=st.lists(st.integers(-9, 9), max_size=6), multiple=chance(3))
    @example(coeffs=[], multiple=False)
    @example(coeffs=[5], multiple=False)
    @example(coeffs=[0, 0, 4], multiple=True)
    def check(coeffs, multiple):
        p = Poly(LINE, {(e,): k for e, k in enumerate(coeffs)})
        if multiple:
            p = p * (xv + c)
        divisions_run.clear()
        q = p.exact_div_linear((1, 1), None, c)
        assert (q is not None) == (p.evaluate({(1, 1): -c}) == 0)
        assert len(divisions_run) == (q is not None)

    check()


# -- the top-degree screen of a difference ------------------------------
#
# If (x_a - x_b + c) divides p, the top-degree form of p is (x_a - x_b)
# times that of the quotient, so it vanishes under x_a := x_b, and
# `exact_div_linear` turns a difference away on that form alone.  The
# oracles: a multiple always gives its cofactor back, and whenever the
# screen rejects, sympy finds a nonzero remainder.  Near misses carry the
# same difference with another translate c': their top form passes the
# screen and only the division can refuse them.

@pytest.mark.parametrize("n", sorted(ORACLE_CONTEXTS))
@settings(max_examples=40)
@given(data=st.data())
def test_top_form_screen_matches_sympy(n, data):
    sympy = pytest.importorskip("sympy")
    ctx = ORACLE_CONTEXTS[n]
    syms = [sympy.Symbol(ctx.var_name(v)) for v in ctx.vars]
    a, b, c = data.draw(factors(ctx, True, data.draw(st.booleans())))
    ia = ctx.var_pos(a)
    f = factor_poly(ctx, a, b, c)
    q = data.draw(oracle_polys(ctx))
    if data.draw(st.booleans()):
        q = q * factor_poly(ctx, a, b, c + data.draw(st.sampled_from([-2, -1, 1, Fraction(1, 2)])))
    assert (q * f).exact_div_linear(a, b, c) == q
    near = q * f + data.draw(oracle_polys(ctx))
    for p in (q, near):
        quot, rem = p.divmod_linear(a, b, c)
        assert p.exact_div_linear(a, b, c) == (quot if rem.is_zero else None)
        if not p._top_form_vanishes(a, b):
            srem = sympy.rem(to_sympy(p, syms), to_sympy(f, syms),
                             syms[ia], *syms[:ia], *syms[ia + 1:])
            assert sympy.expand(srem) != 0
