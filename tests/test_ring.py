"""The operators `Ring` derives for every exact ring type: `-`,
reflected `-` and `**`, checked against `+`, unary `-` and `*` on
seeded `Poly`, `RatFunc` and `SkewElement` values."""

import random
from fractions import Fraction

import pytest

from skewgt.polys import Context, Poly, Ring
from skewgt.ratfunc import RatFunc
from skewgt.skew import SkewElement

from conftest import rand_poly, rand_ratfunc, rand_skew


def _cases(seed, count):
    rng = random.Random(seed)
    for case in range(count):
        ctx = Context.triangle(rng.choice([2, 3]))
        make = (rand_poly, rand_ratfunc, rand_skew)[case % 3]
        yield make(rng, ctx), make(rng, ctx), rng


def test_types_share_one_protocol():
    for cls in (Poly, RatFunc, SkewElement):
        assert issubclass(cls, Ring)
        for op in ("__sub__", "__rsub__", "__pow__"):
            assert op not in vars(cls) and getattr(cls, op) is vars(Ring)[op]


def test_derived_operators_agree_with_the_primitive_ones():
    for a, b, rng in _cases(seed=71, count=45):
        one = type(a).one(a.ctx)
        assert a - b == a + (-b)
        assert (a - a).is_zero
        for c in (rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.choice([2, 5]))):
            assert c - a == -(a - c)
            assert a - c == a + (-c)
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
