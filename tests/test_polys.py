import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewgt.polys import (Context, Poly, elementary_symmetric,
                          shifted_vandermonde, vandermonde)

from conftest import rand_poly


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


def test_divmod_random_roundtrip(ctx2):
    rng = random.Random(7)
    fac = (1, 1), (2, 2), Fraction(-2)
    fac_poly = x(ctx2, 1, 1) - x(ctx2, 2, 2) - 2
    for _ in range(50):
        p = rand_poly(rng, ctx2, max_terms=4, max_deg=3)
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
    assert all(exps[pa] == 0 for exps in r.terms)
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
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
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


def _sympy_division_cases(seed, count):
    sympy = pytest.importorskip("sympy")

    def to_sympy(poly, syms):
        return sum((sympy.Rational(v.numerator, v.denominator)
                    * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                    for e, v in poly.terms.items()), sympy.Integer(0))

    rng = random.Random(seed)
    for _ in range(count):
        ctx = CONTEXTS[rng.choice(sorted(CONTEXTS))]
        syms = [sympy.Symbol(ctx.var_name(v)) for v in ctx.vars]
        ia = rng.randrange(len(ctx.vars))
        b = None
        if ia + 1 < len(ctx.vars) and rng.random() < 0.7:
            b = ctx.vars[rng.randrange(ia + 1, len(ctx.vars))]
        c = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        p = rand_poly(rng, ctx, max_terms=6, max_deg=5)
        f = factor_poly(ctx, ctx.vars[ia], b, c)
        # lex order with x_a first: the leading term of f is x_a
        gens = [syms[ia]] + syms[:ia] + syms[ia + 1:]
        sq, sr = sympy.div(to_sympy(p, syms), to_sympy(f, syms), *gens)
        q, r = p.divmod_linear(ctx.vars[ia], b, c)
        assert sympy.expand(to_sympy(q, syms) - sq) == 0
        assert sympy.expand(to_sympy(r, syms) - sr) == 0


def test_divmod_matches_sympy():
    _sympy_division_cases(seed=17, count=40)


@pytest.mark.slow
def test_divmod_matches_sympy_long():
    _sympy_division_cases(seed=29, count=3000)


def test_shift_substitution(ctx2):
    v2 = x(ctx2, 2, 1) - x(ctx2, 2, 2)
    assert v2.subs_shift({(2, 1): 1}) == v2 - 1
    p = rand_poly(random.Random(3), ctx2)
    assert p.subs_shift({(1, 1): 0}) == p


def test_shift_product_oracle(ctx2):
    # oracle: shift each factor separately, multiply the shifted factors
    a = x(ctx2, 2, 1) - x(ctx2, 1, 1)
    b = x(ctx2, 2, 2) - x(ctx2, 1, 1)
    shifted = (-(a * b)).subs_shift({(1, 1): 1})
    oracle = -((a + 1) * (b + 1))
    assert shifted == oracle


def test_permutation_examples(ctx3):
    swap = {(2, 1): (2, 2), (2, 2): (2, 1)}
    v2 = x(ctx3, 2, 1) - x(ctx3, 2, 2)
    assert v2.permute(swap) == -v2
    e31 = elementary_symmetric(ctx3, 3, 1)
    cyc = {(3, 1): (3, 2), (3, 2): (3, 3), (3, 3): (3, 1)}
    assert e31.permute(cyc) == e31
    p = rand_poly(random.Random(5), ctx3)
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


def test_ring_axioms_random(ctx2):
    rng = random.Random(11)
    for _ in range(60):
        a = rand_poly(rng, ctx2)
        b = rand_poly(rng, ctx2)
        c = rand_poly(rng, ctx2)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_content_primitive(ctx2):
    p = 6 * x(ctx2, 2, 1) - Fraction(9, 2)
    content, prim = p.content_primitive()
    assert content * prim == p
    assert prim.leading()[1] > 0
    nums = [c.numerator for c in prim.terms.values()]
    import math
    assert math.gcd(*nums) == 1
    assert all(c.denominator == 1 for c in prim.terms.values())


def test_evaluate(ctx2):
    p = x(ctx2, 2, 1) ** 2 + x(ctx2, 1, 1)
    val = p.evaluate({(2, 1): Fraction(3), (1, 1): Fraction(1, 2)})
    assert val == Fraction(19, 2)


def test_str_deterministic(ctx2):
    p = x(ctx2, 2, 2) - 2 * x(ctx2, 1, 1) ** 2 + Fraction(1, 2)
    assert str(p) == "-2*x11^2 + x22 + 1/2"
