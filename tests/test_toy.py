import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from skewgt import ratfunc, toy
from skewgt.polys import Context, Poly
from skewgt.ratfunc import LinearFactor, RatFunc
from skewgt.skew import SkewElement

from conftest import spy_on_poly, toy_polys


@pytest.fixture
def ctx():
    return Context.line()


def xvar(ctx):
    return Poly.var(ctx, toy.X_VAR)


def degree_zero_form(u: SkewElement):
    """The identity coefficient of an element supported only at the
    identity shift, or None.  Asserts the coefficient's denominator
    factors are integer translates of x, the shape every balanced word
    in X and Y produces."""
    if u.is_zero:
        return RatFunc.zero(u.ctx)
    if u.support() != frozenset({(0,)}):
        return None
    coeff = u.identity_coefficient()
    for f in coeff.den:
        if f.b is not None or f.c.denominator != 1:
            raise ValueError(f"denominator factor {f} is outside the "
                             "integer-translate class")
    return coeff


def test_spec_validation(ctx):
    x = xvar(ctx)
    with pytest.raises(ValueError):
        toy.ToySpec(x ** 2 + x)
    toy.ToySpec(x + 2)


def test_products_for_linear_f(ctx):
    x = xvar(ctx)
    X, Y = toy.build_toy(toy.ToySpec(x + 2))
    x_fac = LinearFactor(toy.X_VAR, None, Fraction(0))
    assert Y * X == SkewElement.from_coeff(RatFunc(x + 2, [x_fac]))
    # X Y carries the shifted coefficient f(x-1)/(x-1)
    shifted_fac = LinearFactor(toy.X_VAR, None, Fraction(-1))
    assert X * Y == SkewElement.from_coeff(RatFunc(x + 1, [shifted_fac]))


def test_constant_f(ctx):
    x = xvar(ctx)
    X, Y = toy.build_toy(toy.ToySpec(Poly.one(ctx)))
    x_fac = LinearFactor(toy.X_VAR, None, Fraction(0))
    assert Y * X == SkewElement.from_coeff(RatFunc(Poly.one(ctx), [x_fac]))


def test_witness_inverse_x_matches_hand_division(ctx):
    x = xvar(ctx)
    spec = toy.ToySpec(x + 2)
    trace = toy.witness_inverse(spec, 0)
    assert trace.constant == 2
    assert trace.quotient == Poly.one(ctx)
    X, Y = toy.build_toy(spec)
    manual = Fraction(1, 2) * (Y * X - SkewElement.one(ctx))
    assert manual == trace.witness
    assert trace.witness == SkewElement.from_coeff(toy.target_ratfunc(ctx, 0))


def test_balanced_word_bookkeeping(ctx):
    x = xvar(ctx)
    spec = toy.ToySpec(x + 2)
    X, Y = toy.build_toy(spec)
    yyxx = (Y ** 2) * (X ** 2)
    coeff = yyxx.identity_coefficient()
    # direct skew product: (x+3)(x+2)/((x+1) x)
    f0 = LinearFactor(toy.X_VAR, None, Fraction(0))
    f1 = LinearFactor(toy.X_VAR, None, Fraction(1))
    assert coeff == RatFunc((x + 3) * (x + 2), [f0, f1])
    tr = toy.witness_inverse(spec, 1)
    assert tr.multiplicity == 0
    tr2 = toy.witness_inverse(spec, 2)
    assert tr2.multiplicity == 1


def test_witnesses_for_all_required_targets(ctx):
    x = xvar(ctx)
    for f in (x + 2, x ** 2 + 1, 3 * x ** 3 + x + 5):
        spec = toy.ToySpec(f)
        for c in (0, -1, 1, 2, -2, -3):
            trace = toy.witness_inverse(spec, c)
            assert trace.witness == SkewElement.from_coeff(toy.target_ratfunc(ctx, c))


@settings(max_examples=12)
@given(f=toy_polys(), c=st.sampled_from([0, -1, 1, 2, -2]))
@example(f=Poly.const(Context.line(), 3), c=2)
@example(f=Poly(Context.line(), {(3,): -2, (0,): 1}), c=-2)
@example(f=Poly(Context.line(), {(1,): 1, (0,): 4}), c=1)
def test_witnesses_random_polynomials(f, c):
    ctx = f.ctx
    trace = toy.witness_inverse(toy.ToySpec(f), c)
    assert trace.witness == SkewElement.from_coeff(toy.target_ratfunc(ctx, c))


def test_translate_must_be_an_integer(ctx):
    """The translate c of 1/(x+c) is read as an exact integer: a float
    is refused rather than read through its binary expansion, and a
    non-integral rational is refused."""
    spec = toy.ToySpec(xvar(ctx) + 2)
    for bad, error in ((0.5, TypeError), (1.0, TypeError), (-2.0, TypeError),
                       (Fraction(1, 2), ValueError), (Fraction(-7, 3), ValueError)):
        with pytest.raises(error):
            toy.target_ratfunc(ctx, bad)
        with pytest.raises(error):
            toy.witness_inverse(spec, bad)
    assert toy.target_ratfunc(ctx, Fraction(-2)) == toy.target_ratfunc(ctx, -2)
    assert toy.witness_inverse(spec, Fraction(3)).witness == \
        toy.witness_inverse(spec, 3).witness


def test_degree_zero_form(ctx):
    x = xvar(ctx)
    spec = toy.ToySpec(x + 2)
    X, Y = toy.build_toy(spec)
    d0 = degree_zero_form(Y * X)
    assert d0 is not None and len(d0.den) == 1
    assert degree_zero_form(X) is None
    prod = (X * Y) * (Y * X)
    d1 = degree_zero_form(prod)
    assert d1 is not None
    assert all(f.b is None and f.c.denominator == 1 for f in d1.den)


def test_balanced_words_stay_in_integer_translate_class(ctx):
    x = xvar(ctx)
    spec = toy.ToySpec(x ** 2 + 1)
    X, Y = toy.build_toy(spec)
    checked = 0
    for length in range(0, 7):
        for word in itertools.product("XY", repeat=length):
            if word.count("X") != word.count("Y"):
                continue
            u = SkewElement.one(ctx)
            for letter in word:
                u = u * (X if letter == "X" else Y)
            coeff = degree_zero_form(u)
            assert coeff is not None
            checked += 1
    assert checked > 20


def test_supports_generate_the_shift_group(ctx):
    """X = d f(x)/x and Y = d^-1 shift by +1 and -1, the two generators
    of the rank-one shift group Z."""
    x = xvar(ctx)
    X, Y = toy.build_toy(toy.ToySpec(x + 2))
    assert X.support() == {(1,)} and Y.support() == {(-1,)}


def test_parsers(ctx):
    x = xvar(ctx)
    assert toy.parse_univariate(ctx, "3x^3+x+5") == 3 * x ** 3 + x + 5
    assert toy.parse_univariate(ctx, "x^2 + 1") == x ** 2 + 1
    assert toy.parse_univariate(ctx, "-2x + 1/2") == -2 * x + Fraction(1, 2)
    assert toy.parse_univariate(ctx, "3*x^2") == 3 * x ** 2
    assert toy.parse_univariate(ctx, "x**2+1") == x ** 2 + 1
    assert toy.parse_univariate(ctx, "1/2x+1") == Fraction(1, 2) * x + 1
    with pytest.raises(ValueError):
        toy.parse_univariate(ctx, "")
    # malformed input is refused, never reread as another polynomial
    for text in ("x^2x^3", "x^2*3", "2x3", "x^2 + + 1", "x^", "*x", "3*", "x - -1"):
        with pytest.raises(ValueError, match="cannot parse polynomial"):
            toy.parse_univariate(ctx, text)
    assert toy.parse_inverse_target("1/x") == 0
    assert toy.parse_inverse_target("1/(x-2)") == -2
    assert toy.parse_inverse_target("1/(x+3)") == 3
    with pytest.raises(ValueError):
        toy.parse_inverse_target("2/x")


def test_parsed_coefficients_are_ints_unless_written_as_fractions(ctx):
    """A coefficient written without '/' is read as an int, and a/b as a
    Fraction that the polynomial stores as an int when it is integral;
    the printed form does not depend on which."""
    p = toy.parse_univariate(ctx, "3x^5 - 12x^2 + 7")
    assert [type(c) for c in p.terms.values()] == [int] * 3
    assert str(p) == "3*x^5 - 12*x^2 + 7"
    assert toy.parse_univariate(ctx, "4/2x + 1") == toy.parse_univariate(ctx, "2x + 1")
    q = toy.parse_univariate(ctx, "x^2 + 1/2")
    assert sorted(map(type, q.terms.values()), key=str) == [Fraction, int]
    assert str(q) == "x^2 + 1/2"


# -- the multiplicity m of the word -------------------------------------
#
# `witness_inverse` sums the multiplicity of x+c in each f(x+j); the
# oracle expands the product of the f(x+j) and divides it by x+c until
# a remainder appears.

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def expanded_multiplicity(f: Poly, c: int) -> int:
    aux = Poly.one(f.ctx)
    for j in (range(c) if c >= 0 else range(c + 1, 0)):
        aux = aux * f.subs_shift({toy.X_VAR: -j})
    m = 0
    while True:
        q, r = aux.divmod_linear(toy.X_VAR, None, c)
        if not r.is_zero:
            return m
        aux, m = q, m + 1


def test_multiplicity_on_the_rooted_witness_cells(ctx):
    cells = [cell for cell in json.loads(REFERENCE.read_text())["witness_cells"]
             if cell["integer_root"]]
    assert cells
    for cell in cells:
        for text in cell["f"]:
            f = toy.parse_univariate(ctx, text)
            trace = toy.witness_inverse(toy.ToySpec(f), cell["c"])
            assert trace.multiplicity == expanded_multiplicity(f, cell["c"]) == 1, text


@settings(max_examples=80)
@given(data=st.data())
def test_multiplicity_matches_the_expanded_product(data):
    """f = prod (x - r) * g with integer roots r, repeated ones included,
    and g(0) != 0.  x+c divides f(x+j) for a shift j of the word exactly
    when r = j - c, so most roots are drawn on the side of 0 opposite
    to c, where such a j exists."""
    c = data.draw(st.integers(-6, 6))
    side = -1 if c > 0 else 1
    roots = data.draw(st.lists(st.one_of(st.integers(1, 6).map(lambda r: side * r),
                                         st.integers(-6, 6).filter(bool)), max_size=3))
    cofactor = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2)
                         .filter(lambda v: v[0]))
    ctx = Context.line()
    x = xvar(ctx)
    f = Poly.zero(ctx)
    for e, v in enumerate(cofactor):
        f = f + v * x ** e
    for r in roots:
        f = f * (x - r)
    trace = toy.witness_inverse(toy.ToySpec(f), c)
    assert trace.multiplicity == expanded_multiplicity(f, c)
    assert trace.witness == SkewElement.from_coeff(toy.target_ratfunc(ctx, c))


# -- the work a witness does ----------------------------------------------
#
# Spies on `Poly` count the kernel calls of one witness: failed trial
# divisions are settled by the value screen of `exact_div_linear`, and
# a power shifts the coefficients of its lower-power operand.

@pytest.mark.parametrize("c", [12, -12])
def test_failed_trial_divisions_never_reach_the_division(ctx, c, monkeypatch):
    """f = x^3 + 2x + 5 has no integer root.  Every trial of the witness
    that fails is refused by the screen, so `divmod_linear` runs once
    per division that succeeds, plus the final division by x + c."""
    tried = spy_on_poly(monkeypatch, "exact_div_linear")
    divided = spy_on_poly(monkeypatch, "divmod_linear")
    trace = toy.witness_inverse(toy.ToySpec(toy.parse_univariate(ctx, "x^3+2x+5")), c)
    assert trace.witness == SkewElement.from_coeff(toy.target_ratfunc(ctx, c))
    successes = sum(q is not None for q in tried)
    assert len(tried) > successes > 0
    assert len(divided) == successes + 1


@pytest.mark.parametrize("c", [12, -12])
def test_the_cleared_coefficient_is_multiplied_out_once(ctx, c, monkeypatch):
    """The division and the check share one expansion of the cleared
    coefficient's parts: `ratfunc._expand` sees those parts once."""
    coeffs, expanded = [], []
    identity_coefficient, expand = SkewElement.identity_coefficient, ratfunc._expand

    def coeff_spy(self):
        coeffs.append(identity_coefficient(self))
        return coeffs[-1]

    def expand_spy(ctx, maps, *args):
        expanded.append(sorted(map(id, maps)))
        return expand(ctx, maps, *args)
    monkeypatch.setattr(SkewElement, "identity_coefficient", coeff_spy)
    monkeypatch.setattr(ratfunc, "_expand", expand_spy)
    trace = toy.witness_inverse(toy.ToySpec(toy.parse_univariate(ctx, "x^3+2x+5")), c)
    assert trace.witness == SkewElement.from_coeff(toy.target_ratfunc(ctx, c))
    [coeff] = coeffs
    assert len(coeff.parts) > 1
    assert expanded.count(sorted(id(p.terms) for p in coeff.parts)) == 1


def power_with_the_lower_power_on_the_left(a, k):
    """`a ** k` by squaring, each product written ``out * base``."""
    out, base = None, a
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return out


def test_powers_shift_the_lower_power(ctx, monkeypatch):
    X, _ = toy.build_toy(toy.ToySpec(toy.parse_univariate(ctx, "x^3+2x+5")))
    shifts = spy_on_poly(monkeypatch, "subs_shift")
    power = X ** 13
    ours = len(shifts)
    shifts.clear()
    assert power_with_the_lower_power_on_the_left(X, 13) == power
    assert ours < len(shifts)
