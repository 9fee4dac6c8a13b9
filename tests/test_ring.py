"""The operators `Ring` writes for every exact ring type: `+`, `*`,
`-`, their reflections and `**`, checked against each other and against
the types' own `_add`, `_mul` and unary `-` on seeded `Poly`, `RatFunc`
and `SkewElement` values."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewgt.polys import Context, Poly, Ring
from skewgt.ratfunc import RatFunc
from skewgt.skew import SkewElement

from conftest import rand_poly, rand_ratfunc, rand_rowperm, rand_skew


def _cases(seed, count):
    rng = random.Random(seed)
    for case in range(count):
        ctx = Context.triangle(rng.choice([2, 3]))
        make = (rand_poly, rand_ratfunc, rand_skew)[case % 3]
        yield make(rng, ctx), make(rng, ctx), rng


def test_types_share_one_protocol():
    for cls in (Poly, RatFunc, SkewElement):
        assert issubclass(cls, Ring)
        for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__",
                   "__pow__"):
            assert op not in vars(cls) and getattr(cls, op) is vars(Ring)[op]


def test_derived_operators_agree_with_the_primitive_ones():
    for a, b, rng in _cases(seed=71, count=45):
        one = type(a).one(a.ctx)
        assert a - b == a + (-b)
        assert (a - a).is_zero
        for c in (rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.choice([2, 5]))):
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


def test_skew_products_promote_coefficients():
    """A coefficient times a skew element is the product with the
    coefficient embedded at the identity shift, on either side; the
    left and right products differ in general."""
    rng = random.Random(72)
    for _ in range(30):
        ctx = Context.triangle(rng.choice([2, 3]))
        u, p = rand_skew(rng, ctx), rand_poly(rng, ctx)
        e = SkewElement.from_coeff(p)
        assert p * u == e * u
        assert u * p == u * e
        r = rand_ratfunc(rng, ctx)
        assert r * u == SkewElement.from_coeff(r) * u
        assert u + p == p + u == u + e


def test_act_keeps_terms_and_cycles_have_their_order():
    """Conjugation by a row permutation is a bijection on shift keys, so
    `act` keeps the number of terms; a 3-cycle applied three times and
    a transposition applied twice give the element back."""
    rng = random.Random(73)
    for _ in range(30):
        ctx = Context.triangle(rng.choice([3, 4]))
        u = rand_skew(rng, ctx, max_terms=4)
        g = rand_rowperm(rng, ctx)
        assert len(u.act(g).terms) == len(u.terms)
        row = rng.choice([k for k in ctx.rows if k >= 3])
        i = rng.randint(1, len(ctx.rows[row]) - 2)
        c3 = {(row, i): (row, i + 1), (row, i + 1): (row, i + 2), (row, i + 2): (row, i)}
        assert u.act(c3).act(c3).act(c3) == u
        row = rng.choice([k for k in ctx.rows if k >= 2])
        i, j = sorted(rng.sample(range(1, len(ctx.rows[row]) + 1), 2))
        t = {(row, i): (row, j), (row, j): (row, i)}
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


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32), kind=st.sampled_from(["poly", "ratfunc", "skew"]),
       k=st.integers(0, 9))
def test_power_is_the_left_to_right_product(seed, kind, k):
    """`a ** k` by squaring equals one * a * ... * a (k factors) on
    every ring type, the skew elements drawn so that they do not
    commute with a coordinate."""
    rng = random.Random(seed)
    ctx = Context.triangle(2)
    if kind == "poly":
        a = rand_poly(rng, ctx, max_terms=3, max_deg=2)
    elif kind == "ratfunc":
        a = rand_ratfunc(rng, ctx)
    else:
        a = rand_skew(rng, ctx, max_terms=2)
        x11 = SkewElement.from_coeff(Poly.var(ctx, (1, 1)))
        assume(a * x11 != x11 * a)
    expected = type(a).one(ctx)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected
