import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from skewgt.gtmodules import Matrix
from skewgt.polys import Context, Poly
from skewgt.ratfunc import LinearFactor, RatFunc, linear_factor
from skewgt.skew import SkewElement


@pytest.fixture
def ctx2():
    return Context.triangle(2)


@pytest.fixture
def ctx3():
    return Context.triangle(3)


def failures(rep) -> list:
    """The keys of a verification report's failed results."""
    return [r.key for r in rep.results if not r.ok]


def dense(value):
    """A JSON payload with every `Matrix` expanded, through
    `Matrix.entry`, into the dense rows of value strings that
    `cli._render_json` writes for it."""
    if isinstance(value, Matrix):
        return [[str(value.entry(i, j)) for j in range(len(value))]
                for i in range(len(value))]
    if isinstance(value, dict):
        return {k: dense(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [dense(v) for v in value]
    return value


def is_normal_rational(x) -> bool:
    """Whether x is stored by the coefficient layer's rule: an int, or a
    Fraction with denominator > 1; never a float, a bool or
    Fraction(k, 1)."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def den_poly(r: RatFunc) -> Poly:
    """The product of the denominator factors of r, expanded."""
    out = Poly.one(r.ctx)
    for f in r.den:
        out = out * f.to_poly(r.ctx)
    return out


def eq_cross(a: RatFunc, b: RatFunc) -> bool:
    """Equality by cross multiplication of num * scale against the
    expanded denominators, independent of normalization."""
    return a.num * a.scale * den_poly(b) == b.num * b.scale * den_poly(a)


def rand_poly(rng: random.Random, ctx: Context, max_terms=3, max_deg=2) -> Poly:
    terms = {}
    nv = len(ctx.vars)
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nv
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nv)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Poly(ctx, terms)


def rand_point(rng: random.Random, ctx: Context) -> dict:
    """A point with coordinates in [-4, 4] over mixed denominators, zero
    and negative ones included; integral coordinates are ints or
    Fractions at random, and about a third of the points are all
    integral."""
    dens = [1] if rng.random() < 0.3 else [1, 1, 2, 3, 4, 6, 7]
    point = {}
    for v in ctx.vars:
        q = Fraction(rng.randint(-4, 4), rng.choice(dens))
        point[v] = q.numerator if q.denominator == 1 and rng.random() < 0.5 else q
    return point


def rand_factor(rng: random.Random, ctx: Context) -> LinearFactor:
    c = Fraction(rng.randint(-2, 2))
    if len(ctx.vars) == 1 or rng.random() < 0.3:
        return LinearFactor(ctx.vars[0], None, c)
    a, b = rng.sample(range(len(ctx.vars)), 2)
    f, _ = linear_factor(ctx.vars[a], ctx.vars[b], c)
    return f


def rand_ratfunc(rng: random.Random, ctx: Context) -> RatFunc:
    num = rand_poly(rng, ctx)
    if num.is_zero and rng.random() < 0.7:
        num = Poly.one(ctx)
    den = [rand_factor(rng, ctx) for _ in range(rng.randint(0, 2))]
    scale = Fraction(rng.choice([-2, -1, 1, 1, 2]), rng.choice([1, 2]))
    return RatFunc(num, den, scale)


def rand_shift(rng: random.Random, ctx: Context):
    return tuple(rng.randint(-1, 1) for _ in range(ctx.shift_rank))


def rand_skew(rng: random.Random, ctx: Context, max_terms=2) -> SkewElement:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rand_shift(rng, ctx)] = rand_ratfunc(rng, ctx)
    return SkewElement(ctx, terms)


# A row permutation is the variable mapping that `Poly.permute`,
# `RatFunc.permuted` and `SkewElement.act` take: {x_ki: x_kj}, a
# bijection within each row, fixed variables optional.

def rand_rowperm(rng: random.Random, ctx: Context) -> dict:
    """Every row shuffled at random."""
    mapping = {}
    for row in ctx.rows.values():
        images = list(row)
        rng.shuffle(images)
        mapping.update(zip(row, images))
    return mapping


@st.composite
def row_permutations(draw, ctx):
    """Every row permuted, drawn by hypothesis."""
    mapping = {}
    for row in ctx.rows.values():
        mapping.update(zip(row, draw(st.permutations(row))))
    return mapping


def compose(g: dict, h: dict) -> dict:
    """g after h, v -> g(h(v)), with its fixed variables left out."""
    out = {}
    for v in g.keys() | h.keys():
        w = h.get(v, v)
        w = g.get(w, w)
        if w != v:
            out[v] = w
    return out
