"""The operators `Ring` writes for every exact ring type: `+`, `*`,
`-`, their reflections and `**`, checked against each other and against
the types' own `_add`, `_mul` and unary `-` on drawn `Poly`, `RatFunc`
and `SkewElement` values."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewgt.polys import Context, Poly, Ring
from skewgt.ratfunc import RatFunc
from skewgt.skew import SkewElement

from conftest import (edge_cases, edge_polys, edge_ratfuncs, edge_skews, polys, ratfuncs,
                      row_permutations, skew_elements)

CONTEXTS = [Context.triangle(2), Context.triangle(3)]
KINDS = [polys, ratfuncs, skew_elements]


@st.composite
def same_kind_pairs(draw):
    """Two values of one ring type over one of CONTEXTS."""
    values = draw(st.sampled_from(KINDS))(draw(st.sampled_from(CONTEXTS)))
    return draw(values), draw(values)


EDGE_PAIRS = [pair for ctx in CONTEXTS for edges in (edge_polys(ctx), edge_ratfuncs(ctx),
                                                        edge_skews(ctx))
              for pair in zip(edges, edges[1:] + edges[:1])]
FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([2, 5]))


def test_types_share_one_protocol():
    for cls in (Poly, RatFunc, SkewElement):
        assert issubclass(cls, Ring)
        for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__",
                   "__pow__"):
            assert op not in vars(cls) and getattr(cls, op) is vars(Ring)[op]


@settings(max_examples=45)
@given(pair=same_kind_pairs(), scalars=st.tuples(st.integers(-3, 3), FRACTIONS))
@edge_cases(EDGE_PAIRS, ["pair"], scalars=(0, Fraction(-3, 2)))
def test_derived_operators_agree_with_the_primitive_ones(pair, scalars):
    a, b = pair
    one = type(a).one(a.ctx)
    assert a - b == a + (-b)
    assert (a - a).is_zero
    for c in scalars:
        assert c - a == -(a - c)
        assert a - c == a + (-c)
        assert c + a == a + c
        if isinstance(a, SkewElement):
            assert c * a == a * c
    assert a ** 3 == a * a * a
    assert a ** 1 == one * a
    assert a ** 0 == one
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ValueError):
        a ** Fraction(1, 2)
    assert a.__sub__("x") is NotImplemented
    with pytest.raises(TypeError):
        a - "x"
    with pytest.raises(TypeError):
        "x" - a
    for op in (lambda: a + "x", lambda: "x" + a,
               lambda: a * "x", lambda: "x" * a):
        with pytest.raises(TypeError):
            op()


@st.composite
def promotion_cases(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    return draw(skew_elements(ctx)), draw(polys(ctx)), draw(ratfuncs(ctx))


@settings(max_examples=30)
@given(case=promotion_cases())
@edge_cases([case for ctx in CONTEXTS
             for case in zip(edge_skews(ctx), edge_polys(ctx) * 2, edge_ratfuncs(ctx)[::-1] * 2)],
            ["case"])
def test_skew_products_promote_coefficients(case):
    """A coefficient times a skew element is the product with the
    coefficient embedded at the identity shift, on either side; the
    left and right products differ in general."""
    u, p, r = case
    e = SkewElement.from_coeff(p)
    assert p * u == e * u
    assert u * p == u * e
    assert r * u == SkewElement.from_coeff(r) * u
    assert u + p == p + u == u + e


@st.composite
def act_cases(draw):
    """An element with up to four terms at n = 3 or 4, a row permutation,
    a 3-cycle of consecutive variables of a row with at least three, and
    a transposition of two variables of a row with at least two."""
    ctx = draw(st.sampled_from([Context.triangle(3), Context.triangle(4)]))
    row = draw(st.sampled_from([k for k in ctx.rows if k >= 3]))
    i = draw(st.integers(1, len(ctx.rows[row]) - 2))
    c3 = {(row, i): (row, i + 1), (row, i + 1): (row, i + 2), (row, i + 2): (row, i)}
    row = draw(st.sampled_from([k for k in ctx.rows if k >= 2]))
    i, j = sorted(draw(st.lists(st.integers(1, len(ctx.rows[row])), min_size=2, max_size=2,
                                unique=True)))
    t = {(row, i): (row, j), (row, j): (row, i)}
    return draw(skew_elements(ctx, max_terms=4)), draw(row_permutations(ctx)), c3, t


ACT_EDGES = [(u, {}, {(3, 1): (3, 2), (3, 2): (3, 3), (3, 3): (3, 1)},
              {(2, 1): (2, 2), (2, 2): (2, 1)}) for u in edge_skews(Context.triangle(3))]


@settings(max_examples=30)
@given(case=act_cases())
@edge_cases(ACT_EDGES, ["case"])
def test_act_keeps_terms_and_cycles_have_their_order(case):
    """Conjugation by a row permutation is a bijection on shift keys, so
    `act` keeps the number of terms; a 3-cycle applied three times and
    a transposition applied twice give the element back."""
    u, g, c3, t = case
    assert len(u.act(g).terms) == len(u.terms)
    assert u.act(c3).act(c3).act(c3) == u
    assert u.act(t).act(t) == u


class CountingRing(Ring):
    """Integers mod 2^61 - 1 under a `*` that records its operands, to
    see the products `**` makes."""

    __slots__ = ("v", "ctx", "log")
    MOD = (1 << 61) - 1

    def __init__(self, v, log):
        self.v, self.ctx, self.log = v % self.MOD, log, log

    @staticmethod
    def one(log):
        return CountingRing(1, log)

    def _promote(self, other):
        return other if isinstance(other, CountingRing) else None

    def _mul(self, other):
        self.log.append((self.v, other.v))
        return CountingRing(self.v * other.v, self.log)


def test_powers_square_through_the_product_operator():
    for k, products in [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (9, 4), (15, 6), (64, 6)]:
        log = []
        a = CountingRing(3, log)
        assert (a ** k).v == pow(3, k, CountingRing.MOD)
        assert len(log) == products, k
    assert (a ** 1) is a


CTX2 = Context.triangle(2)
X11 = SkewElement.from_coeff(Poly.var(CTX2, (1, 1)))


@settings(max_examples=60)
@given(a=st.one_of(polys(CTX2), ratfuncs(CTX2),
                   skew_elements(CTX2).filter(lambda a: a * X11 != X11 * a)),
       k=st.integers(0, 9))
@edge_cases(edge_polys(CTX2) + edge_ratfuncs(CTX2) + edge_skews(CTX2)[-1:], ["a"], k=5)
def test_power_is_the_left_to_right_product(a, k):
    """`a ** k` by squaring equals one * a * ... * a (k factors) on
    every ring type, the skew elements drawn so that they do not
    commute with a coordinate."""
    ctx = CTX2
    expected = type(a).one(ctx)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected
