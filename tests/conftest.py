import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, example, settings, strategies as st

from skewgt.gtmodules import Matrix
from skewgt.polys import Context, Poly
from skewgt.ratfunc import LinearFactor, RatFunc, linear_factor
from skewgt.skew import SkewElement

# No per-example time limit and no example database; each test picks
# only its own max_examples.  `derandomize` seeds each test from the test
# itself, but hypothesis also draws literal constants it collects from
# every local module loaded, test modules included.  So a test draws the
# same examples on every run that loads the same test modules, and other
# examples when run with fewer or more of them: run alone, the examples
# of `test_skew.py::test_evaluation_is_a_module_action` differ from those
# it draws once `test_ratfunc.py` is collected too, and agree again when
# the constants are switched off.  A planted fault must be killed by its
# named tests run on their own (tests/test_planted_faults.py).
settings.register_profile("exact", deadline=None, derandomize=True, database=None)
settings.load_profile("exact")
# The same examples without the shrink phase, which the planted-fault
# runs select (`--hypothesis-profile=unshrunk`): a kill needs a failing
# example, not the smallest one.
settings.register_profile("unshrunk", settings.get_profile("exact"),
                          phases=[p for p in Phase if p is not Phase.shrink])


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
    """r from its parts, atoms, den and scale; the product of the parts
    and atoms is never expanded by the package."""
    sympy = pytest.importorskip("sympy")
    value = sympy.Rational(str(r.scale))
    for f in r.lin:
        value *= _linear(f.a, f.b, sympy.Rational(str(f.c)))
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


# -- strategies for the exact values -----------------------------------------
#
# Small ranges, so that sums and products cancel often.  Each term,
# factor, scale, coordinate and shift key is drawn by `sampled_from` from
# a list that starts with the simplest choice, so a failing value shrinks
# towards fewer terms, lower degrees and smaller numbers, and a value
# costs a few draws: hypothesis spends tens of microseconds per draw.
# The strategies are built once per context.  `edge_cases` pins the
# values that draws reach only by chance: the zero, a constant, a
# one-term value and a single shift.

@functools.lru_cache(maxsize=None)
def chance(tenths: int):
    """True about `tenths` times in ten; shrinks towards True."""
    return st.integers(0, 9).map(lambda k: k < tenths)


# k/q with k in [-4, 4] and q in {1, 2, 3}, zero left out
COEFFS = [Fraction(k * sign, q) for q in (1, 2, 3) for k in range(1, 5) for sign in (1, -1)]


@functools.lru_cache(maxsize=None)
def _terms(ctx: Context, max_deg: int) -> list:
    """(exponents, coefficient) for every monomial of degree <= max_deg
    and every coefficient in COEFFS, lower degrees first."""
    monomials = sorted((e for e in itertools.product(range(max_deg + 1), repeat=len(ctx.vars))
                        if sum(e) <= max_deg), key=lambda e: (sum(e), e[::-1]))
    return [(e, c) for e in monomials for c in COEFFS]


def _sum_terms(ctx: Context, terms) -> Poly:
    out = {}
    for exps, c in terms:
        out[exps] = out.get(exps, 0) + c
    return Poly(ctx, out)


@functools.lru_cache(maxsize=None)
def polys(ctx: Context, max_terms=3, max_deg=2):
    """Up to `max_terms` monomials of degree <= `max_deg`, each with a
    coefficient in COEFFS; equal monomials add up, so a sum may cancel
    to fewer terms or to zero."""
    return st.lists(st.sampled_from(_terms(ctx, max_deg)), max_size=max_terms).map(
        lambda terms: _sum_terms(ctx, terms))


# Coordinates in [-4, 4]: integral ones as an int or a Fraction, and
# otherwise over the denominators 2, 3, 4, 6 and 7.
INTEGRAL_COORDS = [x for k in (0, 1, -1, 2, -2, 3, -3, 4, -4) for x in (k, Fraction(k))]
COORDS = INTEGRAL_COORDS + sorted({Fraction(k, q) for k in range(-4, 5) for q in (2, 3, 4, 6, 7)}
                                  - set(range(-4, 5)), key=lambda q: (abs(q), q < 0))


@functools.lru_cache(maxsize=None)
def points(ctx: Context):
    """A point with coordinates in [-4, 4] over mixed denominators, zero
    and negative ones included; integral coordinates are ints or
    Fractions, and about a third of the points are all integral."""
    integral, mixed = (st.fixed_dictionaries({v: st.sampled_from(coords) for v in ctx.vars})
                       for coords in (INTEGRAL_COORDS, COORDS))

    @st.composite
    def point(draw):
        return draw(integral if draw(chance(3)) else mixed)
    return point()


@functools.lru_cache(maxsize=None)
def linear_factors(ctx: Context):
    """(x11 + c) about three times in ten, else (x_a - x_b + c) for two
    distinct variables; c in [-2, 2]."""
    cs = [0, 1, -1, 2, -2]
    single = st.sampled_from([LinearFactor(ctx.vars[0], None, c) for c in cs])
    if len(ctx.vars) == 1:
        return single
    differences = st.sampled_from([linear_factor(a, b, c)[0] for c in cs
                                   for a, b in itertools.permutations(ctx.vars, 2)])
    return st.builds(lambda one, f, g: f if one else g, chance(3), single, differences)


SCALES = [Fraction(k) for k in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]


@functools.lru_cache(maxsize=None)
def ratfuncs(ctx: Context):
    """A `polys` numerator, a zero one mostly replaced by 1, over 0-2
    `linear_factors`, with a scale in {-2, -1, 1, 2} / {1, 2}, times 0-3
    more `linear_factors`, which the product keeps as atoms where they
    do not cancel, so a value may hold several atoms."""
    def ratfunc(num, one, den, scale, atoms):
        r = RatFunc(Poly.one(ctx) if num.is_zero and one else num, den, scale)
        for f in atoms:
            r = r * RatFunc(f.to_poly(ctx))
        return r
    return st.builds(ratfunc, polys(ctx), chance(7), st.lists(linear_factors(ctx), max_size=2),
                     st.sampled_from(SCALES), st.lists(linear_factors(ctx), max_size=3))


@functools.lru_cache(maxsize=None)
def _shift_keys(rank: int) -> list:
    return sorted(itertools.product((0, 1, -1), repeat=rank), key=lambda k: sum(map(abs, k)))


def shift_keys(ctx: Context):
    """Shift keys with exponents in [-1, 1], the identity first."""
    return st.sampled_from(_shift_keys(ctx.shift_rank))


@functools.lru_cache(maxsize=None)
def skew_elements(ctx: Context, max_terms=2):
    """Up to `max_terms` `ratfuncs` coefficients on `shift_keys`; a key
    drawn twice keeps its last coefficient."""
    return st.lists(st.tuples(shift_keys(ctx), ratfuncs(ctx)), max_size=max_terms).map(
        lambda terms: SkewElement(ctx, dict(terms)))


@functools.lru_cache(maxsize=None)
def shifts(ctx: Context):
    """Shift maps {v: m} on every shiftable variable, m in [-2, 2]."""
    return st.fixed_dictionaries({v: st.integers(-2, 2) for v in ctx.shift_vars})


# `toy.MAX_DEGREE` and `toy.MAX_TRANSLATE` are two budgets because they
# bound different costs (see their comment in toy.py): |c| sets how many
# parts `_cancel` tries against each other, the degree of f only how
# large each shifted copy is.  The toy inputs below stay far inside both.

def toy_polys():
    """f = k0 + k1 x + ... + k4 x^4 on the line, k0 in [1, 4] so that
    the constant term never vanishes, the others in [-3, 3]."""
    ctx = Context.line()
    return st.builds(lambda k0, ks: Poly(ctx, {(d,): k for d, k in enumerate([k0] + ks)}),
                     st.integers(1, 4), st.lists(st.integers(-3, 3), max_size=4))


def edge_polys(ctx: Context) -> list:
    """The zero, a constant and a one-term polynomial."""
    return [Poly.zero(ctx), Poly.const(ctx, Fraction(-3, 2)),
            2 * Poly.var(ctx, ctx.vars[-1]) ** 2]


def edge_ratfuncs(ctx: Context) -> list:
    """The zero, a constant and a one-term value over (x11 - x22 + 1),
    a factor whose second variable `single_shift` moves at n = 3."""
    over, sign = linear_factor((1, 1), (2, 2), 1)
    return [RatFunc.zero(ctx), RatFunc.const(ctx, Fraction(-3, 2)),
            RatFunc(Poly.var(ctx, ctx.vars[-1]), [over], Fraction(sign, 2))]


def edge_skews(ctx: Context) -> list:
    """The zero, a constant, a one-term coefficient at the identity
    shift, and a single shift."""
    return ([SkewElement.from_coeff(r, ctx) for r in edge_ratfuncs(ctx)]
            + [SkewElement.shift_gen(ctx, ctx.shift_vars[0])])


def single_shift(ctx: Context) -> dict:
    """A shift map moving the last shiftable variable by one."""
    return {ctx.shift_vars[-1]: 1}


def edge_cases(values, names, **fixed):
    """One `@example` per edge value: `names[0]` takes the value and each
    later name the values after it in the list, cyclically; `fixed`
    gives the other arguments of every example."""
    def apply(test):
        for i in range(len(values)):
            drawn = {name: values[(i + j) % len(values)] for j, name in enumerate(names)}
            test = example(**drawn, **fixed)(test)
        return test
    return apply


# A row permutation is the variable mapping that `Poly.permute`,
# `RatFunc.permuted` and `SkewElement.act` take: {x_ki: x_kj}, a
# bijection within each row, fixed variables optional.

@functools.lru_cache(maxsize=None)
def row_permutations(ctx: Context):
    """Every row permuted, one draw per row; shrinks towards the
    identity."""
    rows = list(ctx.rows.values())
    return st.tuples(*[st.sampled_from(list(itertools.permutations(row))) for row in rows]).map(
        lambda images: {v: w for row, image in zip(rows, images) for v, w in zip(row, image)})


def compose(g: dict, h: dict) -> dict:
    """g after h, v -> g(h(v)), with its fixed variables left out."""
    out = {}
    for v in g.keys() | h.keys():
        w = h.get(v, v)
        w = g.get(w, w)
        if w != v:
            out[v] = w
    return out
