import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from skewgt.gtmodules import Matrix
from skewgt.polys import Context, Poly
from skewgt.ratfunc import LinearFactor, RatFunc, linear_factor
from skewgt.skew import SkewElement

# Every property test runs the same examples on every run, with no
# per-example time limit and no example database; each test picks only
# its own max_examples.
settings.register_profile("exact", deadline=None, derandomize=True, database=None)
settings.load_profile("exact")


@pytest.fixture
def ctx2():
    return Context.triangle(2)


@pytest.fixture
def ctx3():
    return Context.triangle(3)


def spy_on_poly(monkeypatch, name: str) -> list:
    """Wrap the `Poly` method `name` for the rest of the test; the list
    returned receives the result of every call."""
    method, log = getattr(Poly, name), []

    def spy(self, *args):
        out = method(self, *args)
        log.append(out)
        return out
    monkeypatch.setattr(Poly, name, spy)
    return log


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


# A sympy oracle for the JSON bodies, which the package writes and reads
# none of.  One expression is built from a body's text fields alone,
# another from a value's parts, factors and scale, never from its
# expanded numerator, and the two must agree.

def _var_id(key: str):
    """The variable (k, i) of a JSON key "k,i"."""
    k, i = key.split(",")
    return int(k), int(i)


def _symbol(v):
    sympy = pytest.importorskip("sympy")
    return sympy.Symbol("x%d_%d" % v)


def _linear(a, b, c):
    """(x_a - x_b + c), or (x_a + c) when b is None."""
    return _symbol(a) - (_symbol(b) if b is not None else 0) + c


def sympy_of_body(body: dict):
    """The rational function a `RatFunc.to_json` body writes, from its
    "num", "den" and "scale" text."""
    sympy = pytest.importorskip("sympy")
    num = sum((sympy.Rational(t["coeff"])
               * sympy.Mul(*[_symbol(_var_id(v)) ** e for v, e in t["exps"].items()])
               for t in body["num"]), sympy.Integer(0))
    den = sympy.Mul(*[_linear(_var_id(f["a"]), _var_id(f["b"]) if "b" in f else None,
                              sympy.Rational(f["c"])) for f in body["den"]])
    return sympy.Rational(body["scale"]) * num / den


def sympy_of_parts(r: RatFunc):
    """r from its parts, den and scale; the parts' product is never
    expanded by the package."""
    sympy = pytest.importorskip("sympy")
    value = sympy.Rational(str(r.scale))
    for p in r.parts:
        value *= sum((sympy.Rational(str(c))
                      * sympy.Mul(*[_symbol(v) ** e for v, e in zip(r.ctx.vars, exps)])
                      for exps, c in p.sorted_terms()), sympy.Integer(0))
    for f in r.den:
        value /= _linear(f.a, f.b, sympy.Rational(str(f.c)))
    return value


def assert_body_matches(r: RatFunc, body: dict) -> None:
    sympy = pytest.importorskip("sympy")
    assert sympy.cancel(sympy_of_body(body) - sympy_of_parts(r)) == 0, (str(r), body)


def assert_skew_body_matches(u: SkewElement, body: dict) -> None:
    """A `SkewElement.to_json` body lists u's shifts, each once, with
    a coefficient equal to u's there."""
    coeffs = {}
    for entry in body["terms"]:
        key = [0] * u.ctx.shift_rank
        for v, m in entry["shift"].items():
            key[u.ctx.shift_pos(_var_id(v))] = m
        assert tuple(key) not in coeffs
        coeffs[tuple(key)] = entry["coeff"]
    assert coeffs.keys() == u.terms.keys()
    for key, coeff in coeffs.items():
        assert_body_matches(u.terms[key], coeff)


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
