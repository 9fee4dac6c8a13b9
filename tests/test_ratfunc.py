import functools
import hashlib
import math
import operator
import pickle
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from skewgt.polys import Context, Poly, vandermonde
from skewgt.ratfunc import LinearFactor, RatFunc, linear_factor
from skewgt import cli, gln
from skewgt.skew import SkewElement

from conftest import (assert_body_matches, chance, den_poly, edge_cases, edge_ratfuncs, eq_cross,
                      is_normal_rational, linear_factors, points, polys, ratfuncs,
                      row_permutations, shifts, single_shift, spy_on_poly)

CTX2, CTX3 = Context.triangle(2), Context.triangle(3)


def x(ctx, k, i):
    return Poly.var(ctx, (k, i))


def test_additive_inverse_cancels(ctx2):
    f, s = linear_factor((2, 1), (2, 2), 0)
    a = RatFunc(Poly.one(ctx2), [f], s)           # 1/(x21 - x22)
    g, t = linear_factor((2, 2), (2, 1), 0)
    b = RatFunc(Poly.one(ctx2), [g], t)           # 1/(x22 - x21)
    assert (a + b).is_zero


def test_cancellation(ctx2):
    f, s = linear_factor((2, 2), (2, 1), 0)
    r = RatFunc(x(ctx2, 1, 1) - x(ctx2, 2, 1), [f], s)
    prod = r * RatFunc(x(ctx2, 2, 2) - x(ctx2, 2, 1))
    assert prod.is_poly
    assert prod == RatFunc(x(ctx2, 1, 1) - x(ctx2, 2, 1))


def test_product_against_cross_multiplication_oracle():
    ctx = Context.triangle(3)
    a21 = gln.a_coeff(ctx, 2, 1, +1)
    a22 = gln.a_coeff(ctx, 2, 2, +1)
    prod = a21 * a22
    # oracle: compare numerators and denominators by cross multiplication
    lhs = prod.num * prod.scale * (den_poly(a21) * den_poly(a22))
    rhs = (a21.num * a21.scale) * (a22.num * a22.scale) * den_poly(prod)
    assert lhs == rhs


@settings(max_examples=80)
@given(r=ratfuncs(CTX2))
@edge_cases(edge_ratfuncs(CTX2), ["r"])
def test_normalization_idempotent_and_canonical(r):
    again = RatFunc(r.num, r.den, r.scale)
    assert again == r
    # inflate by a common factor: the reduced form must not change
    f = LinearFactor((1, 1), (2, 2), Fraction(1))
    inflated = RatFunc(r.num * f.to_poly(CTX2), list(r.den) + [f], r.scale)
    assert inflated == r
    assert eq_cross(inflated, r)


@settings(max_examples=120)
@given(a=ratfuncs(CTX2), b=ratfuncs(CTX2))
@edge_cases(edge_ratfuncs(CTX2), ["a", "b"])
@example(a=edge_ratfuncs(CTX2)[2], b=edge_ratfuncs(CTX2)[2])
def test_equality_matches_cross_multiplication(a, b):
    assert (a == b) == eq_cross(a, b)


@settings(max_examples=40)
@given(a=ratfuncs(CTX2), b=ratfuncs(CTX2))
@edge_cases(edge_ratfuncs(CTX2), ["a", "b"])
def test_shift_is_ring_homomorphism(a, b):
    for shift in ({(1, 1): 1, (2, 2): -2}, single_shift(CTX2)):
        assert (a * b).shifted(shift) == a.shifted(shift) * b.shifted(shift)
        assert (a + b).shifted(shift) == a.shifted(shift) + b.shifted(shift)


@settings(max_examples=40)
@given(a=ratfuncs(CTX3), b=ratfuncs(CTX3))
@edge_cases(edge_ratfuncs(CTX3), ["a", "b"])
def test_permutation_is_ring_homomorphism(a, b):
    mapping = {(3, 1): (3, 2), (3, 2): (3, 3), (3, 3): (3, 1),
               (2, 1): (2, 2), (2, 2): (2, 1)}
    assert (a * b).permuted(mapping) == a.permuted(mapping) * b.permuted(mapping)
    assert (a + b).permuted(mapping) == a.permuted(mapping) + b.permuted(mapping)


def test_shift_keeps_factor_class(ctx2):
    f, _ = linear_factor((2, 1), (2, 2), 0)
    r = RatFunc(Poly.one(ctx2), [f])
    shifted = r.shifted({(2, 1): 1})
    assert shifted.den == (LinearFactor((2, 1), (2, 2), Fraction(-1)),)
    assert r.shifted({}) == r


def test_linear_factor_value_semantics():
    """A factor is an immutable value: equal fields give equal factors
    with equal hashes, any differing field an unequal one."""
    f = LinearFactor((1, 1), (2, 2), Fraction(1))
    g = LinearFactor(a=(1, 1), b=(2, 2), c=Fraction(1))
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert (f.a, f.b, f.c) == ((1, 1), (2, 2), Fraction(1))
    assert f != LinearFactor((1, 1), (2, 2), Fraction(2))
    assert f != LinearFactor((1, 1), None, Fraction(1))
    assert repr(f) == "LinearFactor(a=(1, 1), b=(2, 2), c=1)"
    with pytest.raises(AttributeError):
        f.a = (2, 1)
    with pytest.raises(AttributeError):
        f.d = 0
    assert pickle.loads(pickle.dumps(f)) == f


def _stored_normally(r: RatFunc) -> bool:
    return is_normal_rational(r.scale) and all(is_normal_rational(f.c) for f in r.den)


@settings(max_examples=60)
@given(a=ratfuncs(CTX3), b=ratfuncs(CTX3), shift=shifts(CTX3), mapping=row_permutations(CTX3),
       g=linear_factors(CTX3), p=polys(CTX3), i=st.integers(1, 2), s=st.sampled_from([1, -1]),
       key=st.integers(-1, 1), k=st.integers(-6, 6), q=st.sampled_from([1, 2, 3]))
@edge_cases(edge_ratfuncs(CTX3), ["a", "b"], shift=single_shift(CTX3), mapping={},
            g=LinearFactor((1, 1), None, 0), p=Poly.zero(CTX3), i=1, s=1, key=0, k=4, q=2)
def test_exact_rationals_are_stored_as_int_when_integral(a, b, shift, mapping, g, p, i, s, key,
                                                         k, q):
    """Every scale, factor constant and content that the coefficient
    layer makes is an int, or a Fraction with denominator > 1: never a
    float or Fraction(k, 1), whatever the operation and whatever
    Fractions (integral ones included) it was given."""
    ctx = CTX3
    c = Fraction(k, q)
    f, _ = linear_factor((2, 2), (2, 1), c)
    factors = [f, f.shifted(shift), f.permuted(mapping)[0], LinearFactor((1, 1), None, c),
               linear_factor((1, 1), (3, 2), Fraction(2 * k, 2))[0], g]
    values = [a + b, a - b, a * b, a ** 2, -a, a + c, a * c, a.shifted(shift),
              a.permuted(mapping), RatFunc.sum(ctx, [a, b, a * b, b * c]),
              RatFunc(a.num, list(a.den) + factors, c), RatFunc(Poly.const(ctx, c)),
              RatFunc(a.num * q, a.den, Fraction(k * q, q)),
              gln.a_coeff(ctx, 2, i, s)]
    u, w = (SkewElement(ctx, {(key, 0, 0): a, (0, 1, 0): b * c}),
            SkewElement(ctx, {(1, 0, 0): b, (0, 0, 0): RatFunc(Poly.one(ctx), factors, c)}))
    values += list((u * w).terms.values()) + list((w * u - u).terms.values())
    assert all(_stored_normally(r) for r in values)
    assert all(is_normal_rational(h.c) for h in factors)
    for r in (a.num * c, p, Poly.zero(ctx), a.num * Fraction(2 * q, q)):
        content, prim = r.content_primitive()
        assert is_normal_rational(content) and content * prim == r
    # the rule itself refuses Fraction(k, 1), floats and bools
    planted = a * b
    planted.scale = Fraction(planted.scale.numerator if planted.scale else 1, 1)
    assert not _stored_normally(planted)
    assert not any(is_normal_rational(x) for x in (Fraction(k, 1), float(k), True))


x11, x21, x22 = (1, 1), (2, 1), (2, 2)
FACTOR_ORDER = [LinearFactor(x11, None, Fraction(-1)), LinearFactor(x11, None, Fraction(2)),
                LinearFactor(x11, x21, Fraction(0)), LinearFactor(x11, x22, Fraction(-3)),
                LinearFactor(x21, None, Fraction(0)), LinearFactor(x21, x22, Fraction(-1, 2)),
                LinearFactor(x21, x22, Fraction(1))]


@settings(max_examples=20)
@given(shuffled=st.permutations(FACTOR_ORDER))
@example(shuffled=FACTOR_ORDER[::-1])
def test_linear_factor_sort_order(shuffled):
    """`sort_key` orders by a, then b with None first, then c."""
    assert sorted(shuffled, key=LinearFactor.sort_key) == FACTOR_ORDER


def test_zero_normal_form(ctx2):
    z = RatFunc(Poly.zero(ctx2), [LinearFactor((1, 1), None, Fraction(1))], 5)
    assert z.is_zero and z.scale == 0 and z.den == ()


def test_evaluate_and_pole(ctx2):
    f, _ = linear_factor((2, 1), (2, 2), 0)
    r = RatFunc(x(ctx2, 1, 1), [f])
    point = {(1, 1): Fraction(2), (2, 1): Fraction(5), (2, 2): Fraction(3)}
    assert r.evaluate(point) == 1
    assert type(r.evaluate({(1, 1): 2, (2, 1): 5, (2, 2): 3})) is Fraction
    assert type(RatFunc.zero(ctx2).evaluate(point)) is Fraction
    with pytest.raises(ZeroDivisionError, match=re.escape(
            "denominator factor (x21 - x22) vanishes at the point")):
        r.evaluate({(1, 1): Fraction(2), (2, 1): Fraction(3), (2, 2): Fraction(3)})
    with pytest.raises(TypeError):
        r.evaluate({(1, 1): 2, (2, 1): 5.0, (2, 2): 3})
    with pytest.raises(TypeError):
        RatFunc.zero(ctx2).evaluate({(1, 1): 2, (2, 1): 5.0, (2, 2): 3})


@settings(max_examples=20)
@given(r=ratfuncs(CTX3))
@edge_cases(edge_ratfuncs(CTX3), ["r"])
def test_json_roundtrip(r):
    """The body `to_json` writes is the value, by sympy."""
    assert_body_matches(r, r.to_json())


@settings(max_examples=40)
@given(r=ratfuncs(CTX3))
@edge_cases(edge_ratfuncs(CTX3), ["r"])
def test_reading_a_value_changes_none_of_its_slots(r):
    """`str`, `to_json`, `hash` and `num` keep nothing: every slot holds
    the identical object afterwards, so no expansion outlives its read."""
    before = {name: getattr(r, name) for name in RatFunc.__slots__}
    str(r), r.to_json(), hash(r), r.num
    assert all(getattr(r, name) is value for name, value in before.items())


# -- canonical form: each operation against the full reduction ----------
#
# +, *, shifted and permuted try only the factors that can cancel.  Each
# result must be structurally equal to RatFunc.__init__'s full reduction
# of the same unreduced fraction, which tries every factor; a result
# that is right in value but not fully reduced fails here.

def _full_sum(a, b):
    num = a.num * a.scale * den_poly(b) + b.num * b.scale * den_poly(a)
    return RatFunc(num, a.den + b.den)


def _full_product(a, b):
    return RatFunc(a.num * b.num, a.den + b.den, a.scale * b.scale)


def _full_shift(a, shift):
    return RatFunc(a.num.subs_shift(shift), [f.shifted(shift) for f in a.den], a.scale)


def _full_permute(a, mapping):
    den, sign = [], 1
    for f in a.den:
        g, s = f.permuted(mapping)
        den.append(g)
        sign *= s
    return RatFunc(a.num.permute(mapping), den, a.scale * sign)


def _assert_canonical(result, expected):
    assert result == expected
    assert is_normal_rational(result.scale)
    assert all(type(c) is int for c in result.num.terms.values())
    assert result.den == tuple(sorted(result.den, key=LinearFactor.sort_key))


@functools.lru_cache(maxsize=None)
def nonzero_polys(ctx):
    """`polys`, with the zero replaced by 1."""
    return polys(ctx).map(lambda p: Poly.one(ctx) if p.is_zero else p)


@st.composite
def cancelling_pairs(draw, ctx):
    """Operand pairs whose sum or product must cancel a factor."""
    f, g = draw(linear_factors(ctx)), draw(linear_factors(ctx))
    fp, gp = f.to_poly(ctx), g.to_poly(ctx)
    p, q, r = (draw(nonzero_polys(ctx)) for _ in range(3))
    s, t = (Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.sampled_from([1, 2])))
            for _ in range(2))
    extra = draw(st.lists(linear_factors(ctx), max_size=1))
    m = draw(st.integers(1, 2))
    k = draw(st.integers(1, m))
    return [
        # each numerator carries a factor of the other operand's denominator
        (RatFunc(p * fp, [g], s), RatFunc(q * gp, [f], t)),
        # a shared factor with equal multiplicity, then with unequal multiplicity
        (RatFunc(p, [f] * m + extra, s), RatFunc(q, [f] * m, t)),
        (RatFunc(p, [f] * (m + 1), s), RatFunc(q, [f] * m + extra, t)),
        # the summed numerator vanishes on the shared factor f^m, to order
        # k <= m, and to order m + 1 beside a second factor
        (RatFunc(p, [f] * m, s), RatFunc(r * fp ** k - p, [f] * m, s)),
        (RatFunc(p, [f] * m + [g], s), RatFunc(r * fp ** (m + 1) - p, [f] * m + [g], s))]


# the operand pairs of the canonical-form tests, with one drawn shift and
# row permutation
canonical_cases = st.tuples(ratfuncs(CTX3), ratfuncs(CTX3), cancelling_pairs(CTX3),
                            shifts(CTX3), row_permutations(CTX3))
CANONICAL_EDGES = [(a, b, [], single_shift(CTX3), {})
                   for a, b in zip(edge_ratfuncs(CTX3), edge_ratfuncs(CTX3)[::-1])]


def _check_canonical_forms(a, b, pairs, shift, mapping):
    for a, b in [(a, b)] + pairs:
        for u, v in ((a, b), (b, a), (a, -a)):
            _assert_canonical(u + v, _full_sum(u, v))
            _assert_canonical(u * v, _full_product(u, v))
        for u in (a, b, a + b, a * b):
            _assert_canonical(u.shifted(shift), _full_shift(u, shift))
            _assert_canonical(u.permuted(mapping), _full_permute(u, mapping))


@settings(max_examples=60)
@given(case=canonical_cases)
@edge_cases(CANONICAL_EDGES, ["case"])
def test_operations_return_the_full_reduction(case):
    _check_canonical_forms(*case)


@pytest.mark.slow
@settings(max_examples=1500)
@given(case=canonical_cases)
def test_operations_return_the_full_reduction_long(case):
    _check_canonical_forms(*case)


def test_cancelling_pairs_do_cancel():
    """The generated pairs reach the cancelling branches of + and *."""
    sums, products = [], []

    @settings(max_examples=40)
    @given(pairs=cancelling_pairs(CTX3))
    def count(pairs):
        for a, b in pairs:
            lcm = Counter(a.den) | Counter(b.den)
            sums.append(len((a + b).den) < sum(lcm.values()))
            products.append(len((a * b).den) < len(a.den) + len(b.den))

    count()
    assert sum(sums) >= 70 and sum(products) >= 30


# -- numerator parts --------------------------------------------------------
#
# A numerator is kept as parts and atoms whose product it is.  Each part
# must be primitive, nonconstant, with a positive leading coefficient,
# not of atom shape, and no denominator factor may divide it; each atom
# must be x_a + c or x_a - x_b + c with an int c, and equal no
# denominator factor: a product cancels a factor from the part it
# divides or the atom it equals, so a part left divisible, or an atom
# left beside its factor, would leave the fraction unreduced.

def _atom_shaped(p: Poly) -> bool:
    """Whether p is x_a + c or x_a - x_b + c, a < b, with an int c."""
    ctx = p.ctx
    linear = {v: p.terms.get(ctx.pack([int(w == v) for w in ctx.vars]), 0) for v in ctx.vars}
    coeffs = [linear[v] for v in ctx.vars if linear[v]]
    return (p.degree() == 1 and len(p.terms) == len(coeffs) + (0 in p.terms)
            and coeffs in ([1], [1, -1]) and type(p.constant_term()) is int)


def _parts_in_normal_form(r: RatFunc) -> bool:
    if r.is_zero:
        return r.parts == () and r.lin == () and r.num.is_zero
    atoms = [f.to_poly(r.ctx) for f in r.lin]
    if math.prod(r.parts + tuple(atoms), start=Poly.one(r.ctx)) != r.num:
        return False
    if not all(_atom_shaped(p) and type(f.c) is int for f, p in zip(r.lin, atoms)):
        return False
    if any(f in r.den for f in r.lin):
        return False
    for p in r.parts:
        content, _ = p.content_primitive()
        if content != 1 or p.degree() < 1 or _atom_shaped(p):
            return False
        if any(p.divmod_linear(f.a, f.b, f.c)[1].is_zero for f in r.den):
            return False
    return True


@st.composite
def part_values(draw):
    """Random values, the cancelling pairs and a pair that cancels a
    square from one part, with their products, the coefficients
    a(2,i,+-) and the Vandermondes V2, V3 (an odd permutation negates
    them), then up to eight new values, each from two earlier ones."""
    ctx = CTX3
    values = [draw(ratfuncs(ctx)) for _ in range(3)]
    f = draw(linear_factors(ctx))
    square = (RatFunc(draw(nonzero_polys(ctx)) * f.to_poly(ctx) ** 2),
              RatFunc(draw(nonzero_polys(ctx)), [f, f]))
    for a, b in [*draw(cancelling_pairs(ctx)), square]:
        values += [a, b, a * b]
    values += [gln.a_coeff(ctx, 2, i, s) for i in (1, 2) for s in (1, -1)]
    values += [RatFunc(vandermonde(ctx, k)) for k in (2, 3)]
    for op in draw(st.lists(st.sampled_from(["mul", "shift", "permute", "sum", "neg"]),
                            max_size=8)):
        a, b = draw(st.sampled_from(values)), draw(st.sampled_from(values))
        if op == "mul":
            values.append(a * b)
        elif op == "shift":
            values.append(a.shifted(draw(shifts(ctx))))
        elif op == "permute":
            values.append(a.permuted(draw(row_permutations(ctx))))
        elif op == "sum":
            values.append(RatFunc.sum(ctx, [a, b, a * b]))
        else:
            values.append(-a)
    return values


@settings(max_examples=60)
@given(values=part_values())
@edge_cases([edge_ratfuncs(CTX3)], ["values"])
def test_parts_stay_in_normal_form(values):
    _check_parts(values)


def _check_parts(values):
    assert all(_parts_in_normal_form(r) for r in values)


def test_a_factor_cancels_the_atom_it_equals(monkeypatch):
    """a(2,1,+) V3 at n = 3 has the atoms (x3j - x21) and the part V3.
    Dividing it by any one atom removes that atom, by lookup: no trial
    division, and the value is the full reduction."""
    ctx = CTX3
    value = gln.a_coeff(ctx, 2, 1, +1) * RatFunc(vandermonde(ctx, 3))
    assert len(value.lin) == 3 and len(value.parts) == 1
    tried = spy_on_poly(monkeypatch, "exact_div_linear")
    for f in value.lin:
        quotient = value * RatFunc(Poly.one(ctx), [f])
        assert tried == []
        assert Counter(quotient.lin) == Counter(value.lin) - Counter([f])
        _assert_canonical(quotient, RatFunc(value.num, value.den + (f,), value.scale))
        tried.clear()


def test_parts_check_catches_an_uncancelled_part(monkeypatch):
    """With the cancellation planted away, the products of the cancelling
    pairs keep a part that their own denominator divides, and the
    check of the property test above fails on the first example."""
    from skewgt import ratfunc
    monkeypatch.setattr(ratfunc, "_cancel", lambda parts, lin, factors, scale:
                        (scale, list(parts), list(lin), list(factors)))

    @settings(max_examples=1, phases=[Phase.generate])
    @given(values=part_values())
    def check(values):
        _check_parts(values)

    with pytest.raises(AssertionError):
        check()


# -- n-ary sums -------------------------------------------------------------

def _fold(ctx, terms):
    out = RatFunc.zero(ctx)
    for t in terms:
        out = out + t
    return out


def sum_lists(a, b, c, pairs):
    """Term lists for RatFunc.sum: one term, lists that cancel to zero,
    scales over different denominators, and the cancelling pairs with a
    third operand beside them."""
    yield [a]
    yield [a, b, -a, -b]
    yield [a, b, c]
    yield [a * Fraction(1, 3), b * Fraction(-2, 5), c * Fraction(5, 7), a]
    for p, q in pairs:
        yield [p, q]
        yield [p, c, q]
        yield [p, q, -p, a]


sum_cases = st.tuples(ratfuncs(CTX3), ratfuncs(CTX3), ratfuncs(CTX3), cancelling_pairs(CTX3))
SUM_EDGES = [(*edge_ratfuncs(CTX3), []), (*edge_ratfuncs(CTX3)[::-1], [])]


def test_nary_sum_equals_the_fold():
    ctx = CTX3
    assert RatFunc.sum(ctx, []) == RatFunc.zero(ctx)
    zeros = []

    @settings(max_examples=30)
    @given(case=sum_cases)
    @edge_cases(SUM_EDGES, ["case"])
    def check(case):
        for terms in sum_lists(*case):
            total = RatFunc.sum(ctx, terms)
            _assert_canonical(total, _fold(ctx, terms))
            zeros.append(total.is_zero)

    check()
    assert sum(zeros) >= 30


@st.composite
def lacking_sums(draw):
    """4-5 operands at n=3 over denominators that lack factors of the
    lcm in common: three distinct factors f, g, h and operands over [f],
    [g], [h] and a drawn pair of them, so that two or more groups lack
    each factor.  Each operand is multiplied by a drawn atom, all of
    them, about half the time, by one more, and a drawn `ratfuncs`
    operand joins them, about half the time."""
    ctx = CTX3
    f, g, h = draw(st.lists(linear_factors(ctx), min_size=3, max_size=3, unique=True))

    def atom():
        return RatFunc(draw(linear_factors(ctx)).to_poly(ctx))
    common = atom() if draw(chance(5)) else 1
    terms = []
    for den in ([f], [g], [h], draw(st.sampled_from([[f, g], [g, h], [f, f]]))):
        scale = Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.sampled_from([1, 2, 3])))
        terms.append(RatFunc(draw(nonzero_polys(ctx)), den, scale) * atom() * common)
    if draw(chance(5)):
        terms.insert(draw(st.integers(0, len(terms))), draw(ratfuncs(ctx)))
    return terms


def test_sum_multiplies_a_factor_many_groups_lack_in_once(monkeypatch):
    """Over denominators that lack a factor of the lcm in common,
    `RatFunc.sum` pulls the factor out (`_lacking_sum` recurses), and the
    sum agrees with sympy and is the pairwise fold's full reduction."""
    sympy = pytest.importorskip("sympy")
    from skewgt import ratfunc
    ctx = CTX3
    ring, *gens = sympy.ring(",".join(map(ctx.var_name, ctx.vars)), sympy.QQ)
    x = dict(zip(ctx.vars, gens))

    def over(r, lcm):
        # r times lcm, a multiple of its denominator, in sympy's QQ[x],
        # from its parts, atoms, den and scale
        value = ring(sympy.Rational(str(r.scale)))
        for f in [*r.lin, *(lcm - Counter(r.den)).elements()]:
            value *= x[f.a] - (x[f.b] if f.b is not None else 0) + sympy.Rational(str(f.c))
        for p in r.parts:
            value *= ring.from_dict({exps: int(c) for exps, c in p.sorted_terms()})
        return value

    lacking_sum, calls, pulled = ratfunc._lacking_sum, [], []

    def spy(*args):
        calls.append(args)
        return lacking_sum(*args)
    monkeypatch.setattr(ratfunc, "_lacking_sum", spy)

    @settings(max_examples=40)
    @given(terms=lacking_sums())
    def check(terms):
        calls.clear()
        total = RatFunc.sum(ctx, terms)
        pulled.append(len(calls) > 1)
        lcm = functools.reduce(operator.or_, [Counter(t.den) for t in terms])
        assert sum((over(t, lcm) for t in terms), ring.zero) == over(total, lcm), terms
        _assert_canonical(total, _fold(ctx, terms))

    check()
    assert sum(pulled) >= 30, pulled


def test_nary_sum_tries_only_factors_reached_twice(monkeypatch):
    """A factor whose top multiplicity (in the lcm of the denominators)
    only one operand reaches is never tried; the others are tried at
    most that many times."""
    ctx = CTX3
    tried = Counter()
    exact_div_linear = Poly.exact_div_linear

    def recorded(self, a, b, c):
        tried[LinearFactor(a, b, c)] += 1
        return exact_div_linear(self, a, b, c)

    skipped, hits = [], []

    @settings(max_examples=30)
    @given(case=sum_cases)
    @edge_cases(SUM_EDGES, ["case"])
    def check(case):
        for terms in sum_lists(*case):
            dens = [Counter(t.den) for t in terms]
            top = Counter()
            for d in dens:
                top |= d
            reached = Counter(f for d in dens for f, m in d.items() if m == top[f])
            tried.clear()
            monkeypatch.setattr(Poly, "exact_div_linear", recorded)
            total = RatFunc.sum(ctx, terms)
            monkeypatch.undo()
            assert all(reached[f] >= 2 and m <= top[f] for f, m in tried.items())
            skipped.append(sum(reached[f] == 1 for f in top))
            if not total.is_zero:
                hits.append(sum(top.values()) - len(total.den))

    check()
    assert sum(skipped) >= 300 and sum(hits) >= 100


def test_lacking_sum_pulls_the_first_most_lacked_factor(monkeypatch):
    """Of the factors two or more groups lack, `_lacking_sum` pulls out
    the one the most groups lack, the first lacked among equals, as
    `Counter.most_common` orders them: its first recursive call sums
    exactly the groups that lack that factor, each lacking one power
    less."""
    from skewgt import ratfunc
    lacking_sum, log, ties = ratfunc._lacking_sum, [], []

    def spy(ctx, lacking):
        log.append([(operands, dict(missing)) for operands, missing in lacking])
        return lacking_sum(ctx, lacking)
    monkeypatch.setattr(ratfunc, "_lacking_sum", spy)

    @settings(max_examples=40)
    @given(terms=lacking_sums())
    def check(terms):
        log.clear()
        RatFunc.sum(CTX3, terms)
        for outer, inner in zip(log, log[1:]):
            counts = Counter(f for _, missing in outer for f in missing).most_common()
            if len(outer) < 2 or counts[0][1] < 2:
                continue
            f, k = counts[0]
            ties.append(len(counts) > 1 and counts[1][1] == k)
            lacking_f = [(ops, missing) for ops, missing in outer if f in missing]
            assert [ops for ops, _ in inner] == [ops for ops, _ in lacking_f]
            for (_, was), (_, now) in zip(lacking_f, inner):
                assert Counter(was) - Counter([f]) == Counter(now)

    check()
    assert sum(ties) >= 10, ties


# -- factor multisets ------------------------------------------------------
#
# `RatFunc.sum` keeps the parts and atoms every operand has, and `==`
# cancels those two values share, as multisets: a factor every operand
# holds twice is shared twice.  The values below repeat parts and atoms,
# list them in drawn orders, and hold each factor either as the pool's
# object or as an equal copy.  The parts are distinct irreducible
# quadratics that no denominator factor divides, so two values of one
# scale and denominator are equal exactly when their factors agree as
# `Counter`s, the oracle here beside cross multiplication.

MULTISET_PARTS = [x(CTX3, 1, 1) ** 2 + 1, x(CTX3, 2, 1) * x(CTX3, 2, 2) + 2,
                  x(CTX3, 3, 1) ** 2 + x(CTX3, 3, 2) ** 2 + 1]
MULTISET_ATOMS = [LinearFactor((1, 1), None, 2), linear_factor((2, 1), (2, 2), 1)[0],
                  linear_factor((3, 1), (3, 3), -1)[0]]
MULTISET_DENS = [linear_factor((1, 1), (2, 1), 0)[0], LinearFactor((3, 2), None, -1)]


def _copy(f):
    """An equal factor that is not the same object."""
    if type(f) is LinearFactor:
        return LinearFactor(*f)
    return Poly._from_packed(f.ctx, dict(f.terms))


@st.composite
def factor_lists(draw, pool, base=()):
    """``base`` and 0-3 more draws from ``pool``, repeats allowed, in a
    drawn order, each the pool's object or, about half the time, an
    equal copy."""
    factors = list(base) + draw(st.lists(st.sampled_from(pool), max_size=3))
    factors = draw(st.permutations(factors))
    return [_copy(f) if draw(chance(5)) else f for f in factors]


@st.composite
def multiset_values(draw, parts=(), atoms=(), den=None, scale=None):
    """A value over CTX3 whose parts and atoms are `factor_lists` on
    ``parts`` and ``atoms``, over ``den`` (else 0-2 drawn factors of
    MULTISET_DENS) with ``scale`` (else a drawn one)."""
    if den is None:
        den = draw(st.lists(st.sampled_from(MULTISET_DENS), max_size=2))
    if scale is None:
        scale = Fraction(draw(st.sampled_from([1, -1, 2, -3])), draw(st.sampled_from([1, 2])))
    return RatFunc._from_parts(CTX3, draw(factor_lists(MULTISET_PARTS, parts)),
                               draw(factor_lists(MULTISET_ATOMS, atoms)), den, scale)


def _factors(r: RatFunc) -> Counter:
    return Counter(r.parts + r.lin)


@settings(max_examples=80)
@given(data=st.data())
def test_sum_keeps_the_shared_factor_multiset(data):
    """2-4 operands that all hold a drawn multiset of parts and atoms,
    repeats included, each with more of its own: the sum holds every
    factor the operands share as often as each operand holds it, and
    equals the operands' sum by cross multiplication over the lcm."""
    parts = data.draw(st.lists(st.sampled_from(MULTISET_PARTS), max_size=3))
    atoms = data.draw(st.lists(st.sampled_from(MULTISET_ATOMS), max_size=3))
    terms = data.draw(st.lists(multiset_values(parts, atoms), min_size=2, max_size=4))
    total = RatFunc.sum(CTX3, terms)
    shared = functools.reduce(operator.and_, map(_factors, terms))
    assert shared >= Counter(parts + atoms)
    if not total.is_zero:
        assert not shared - _factors(total), (terms, total)
    lcm = functools.reduce(operator.or_, [Counter(r.den) for r in terms + [total]])

    def over(r):
        out = r.num * r.scale
        for f in (lcm - Counter(r.den)).elements():
            out = out * f.to_poly(CTX3)
        return out
    assert sum(map(over, terms), Poly.zero(CTX3)) == over(total)


@settings(max_examples=120)
@given(data=st.data())
def test_equality_cancels_shared_factors_as_multisets(data):
    """Two values of one scale and denominator, built on a common drawn
    multiset: equal exactly when their factors agree as Counters, which
    cross multiplication confirms.  About a third of the pairs list one
    multiset in two orders."""
    den = data.draw(st.lists(st.sampled_from(MULTISET_DENS), max_size=2))
    a = data.draw(multiset_values(den=den, scale=1))
    if data.draw(chance(3)):
        b = RatFunc._from_parts(CTX3, data.draw(st.permutations(a.parts)),
                                data.draw(st.permutations(a.lin)), den, 1)
    else:
        b = data.draw(multiset_values(den=den, scale=1))
    assert (a == b) == (_factors(a) == _factors(b)) == eq_cross(a, b), (a.parts, a.lin,
                                                                         b.parts, b.lin)
    assert a == RatFunc._from_parts(CTX3, a.parts, a.lin, den, 1)


def test_equality_reads_the_atoms_of_values_with_no_parts():
    """Values with no parts share the empty parts tuple, so equal
    scales, denominators and parts leave only the atoms to tell them
    apart."""
    f, g = MULTISET_ATOMS[:2]
    a, b = (RatFunc._from_parts(CTX3, [], lin, MULTISET_DENS, 2) for lin in ([f], [g]))
    assert a.parts is b.parts
    assert a != b and a * b == b * a and a * a != a * b


# -- linear divisions tried by two CLI jobs ------------------------------

# (calls, hits) of Poly.divmod_linear per job.  Every operation reducing
# all factors of its result made 470 and 395 calls; the hits are the
# cancellations themselves, so they change only with the sums and
# products a job forms, and the calls may only go down.  c33 was (320,
# 24) while its image folded rank^k cyclic products with binary `+`; as
# tr(E^k) with one n-ary sum per shift key, the intermediate partial
# sums, and the cancellations inside them, no longer exist.
# `exact_div_linear` screens each difference by its top-degree form,
# which turns away all but a few failing trials before `divmod_linear`
# runs, so the calls are close to the hits.  They were (14, 14) and
# (39, 27) while each skew product and each sum of products was reduced
# on its own; as one `SkewElement.sum_of_products` per commutator and
# per Gelfand row entry, each shift key is summed once, and the
# cancellations inside the reduced products no longer happen.  gl3 was
# (37, 25) while each linear numerator factor was a part: a factor that
# equals an atom now cancels by lookup, with no division, which leaves
# the 9 hits on the parts a sum makes.
DIVISION_COUNTS = {
    ("compute", "--expr", "c33"): (10, 10),
    ("verify", "--suite", "gl3"): (9, 9),
}


def _count_divisions(monkeypatch):
    """Count the calls of Poly.divmod_linear, and its hits (a zero
    remainder), into the returned dict."""
    counts = {"calls": 0, "hits": 0}
    divmod_linear = Poly.divmod_linear

    def counted(self, a, b, c):
        q, r = divmod_linear(self, a, b, c)
        counts["calls"] += 1
        counts["hits"] += r.is_zero
        return q, r

    monkeypatch.setattr(Poly, "divmod_linear", counted)
    return counts


def test_division_counts(monkeypatch, capsys):
    counts = _count_divisions(monkeypatch)
    for argv, (calls, hits) in DIVISION_COUNTS.items():
        counts.update(calls=0, hits=0)
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        assert counts["hits"] == hits, argv
        assert counts["calls"] <= calls, argv


# Rank-4 jobs whose skew products gather many products under each
# shift key: (stdout sha256, divmod_linear calls, hits).  The digests and
# the bounds on the calls were recorded while each key was summed
# pairwise, one left term at a time.  As one RatFunc.sum per key the
# printed forms are the same and the calls drop (449 -> 436 and
# 1 536 -> 1 482); so do the hits (19 -> 16 and 92 -> 82), because the
# partial sums, and the cancellations inside them, no longer exist.  The
# top-degree screen of `exact_div_linear` leaves 20 and 90 calls with the
# same hits.  Summing each Gelfand row entry of E^m, and the closing
# trace, as one `SkewElement.sum_of_products` drops the reductions of
# the single products: c42 falls from (90, 82) to (12, 12), while
# E14*E41, one product of two commutators, keeps (20, 16).  c43, the
# largest image `compute` accepts, was pinned with this kernel in place;
# its digest is the one recorded before it, where it made (296, 272).
RANK4_OUTPUTS = {
    ("compute", "--expr", "E14*E41", "--n", "4"):
        ("5cc2c275a4a6f70280b0b268074f1cf3612f114f7b1518081b290b744c4f84ce", 20, 16),
    ("compute", "--expr", "c42", "--n", "4"):
        ("fdeca317c991ee453892744547da1b61cb24206b3e4d4af270286e140074f3bf", 12, 12),
    ("compute", "--expr", "c43", "--n", "4"):
        ("eba4a4ee61c7e7b873d74662b5a2eeb89eeb943cc6049fa5ddeff2c9fd9fa147", 152, 136),
}


@pytest.mark.slow
def test_rank4_outputs_and_division_counts(monkeypatch, capsys):
    counts = _count_divisions(monkeypatch)
    for argv, (digest, calls, hits) in RANK4_OUTPUTS.items():
        counts.update(calls=0, hits=0)
        assert cli.main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        assert counts["hits"] == hits, argv
        assert counts["calls"] <= calls, argv


def test_c42_multiplies_each_lacked_factor_in_once(monkeypatch, capsys):
    """`compute --expr c42 --n 4` prints its RANK4_OUTPUTS digest in at
    most 460 000 `polys._mul_terms` term pairs.  It made 2 176 444 while
    `RatFunc.sum` multiplied every factor a group lacks into that group's
    sum, and the closing trace's sum has many groups that lack the same
    factors; 443 971 once each such factor is multiplied in once."""
    from skewgt import polys, ratfunc
    pairs = [0]
    mul_terms = polys._mul_terms

    def counted(ctx, a, b, out=None):
        pairs[0] += len(a) * len(b)
        return mul_terms(ctx, a, b, out)
    monkeypatch.setattr(polys, "_mul_terms", counted)
    monkeypatch.setattr(ratfunc, "_mul_terms", counted)
    argv = ("compute", "--expr", "c42", "--n", "4")
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RANK4_OUTPUTS[argv][0]
    assert pairs[0] <= 460_000, pairs


# -- differential oracle against sympy ----------------------------------

def rational(q):
    sympy = pytest.importorskip("sympy")
    return sympy.Rational(q.numerator, q.denominator)


def factor_to_sympy(f, syms):
    return syms[f.a] - (syms[f.b] if f.b is not None else 0) + rational(f.c)


def to_sympy(r, syms):
    sympy = pytest.importorskip("sympy")
    ctx = r.ctx
    num = sympy.Add(*[rational(c) * sympy.Mul(*[syms[v] ** k for v, k in zip(ctx.vars, e)])
                      for e, c in r.num.sorted_terms()])
    den = sympy.Mul(*[factor_to_sympy(f, syms) for f in r.den])
    return rational(r.scale) * num / den


def _check_ratfunc_against_sympy(a, b, shift, mapping):
    """RatFunc +, *, shifted and permuted at n=3 against sympy's rational
    functions.

    Each result must agree with sympy in value (n/d and the result's
    numerator and denominator cross-multiply to equal polynomials of
    sympy's sparse ring over QQ) and be stored in normal form: int
    numerator coefficients, an int or non-integral Fraction scale."""
    sympy = pytest.importorskip("sympy")
    ring, *xs = sympy.ring([CTX3.var_name(v) for v in CTX3.vars], sympy.QQ)
    gens = dict(zip(CTX3.vars, xs))

    def qq(q):
        return sympy.QQ(q.numerator, q.denominator)

    def fraction(r):
        num = ring.from_dict({e: qq(c) for e, c in r.num.sorted_terms()})
        den = ring.one
        for f in r.den:
            den *= gens[f.a] - (gens[f.b] if f.b is not None else 0) + qq(f.c)
        return num * qq(r.scale), den

    def agrees(expected, r):
        assert all(type(c) is int for c in r.num.terms.values())
        assert is_normal_rational(r.scale)
        (n, d), (rn, rd) = expected, fraction(r)
        return n * rd == rn * d

    (na, da), (nb, db) = fraction(a), fraction(b)
    assert agrees((na * db + nb * da, da * db), a + b)
    assert agrees((na * nb, da * db), a * b)
    moved = [(gens[v], gens[v] - s) for v, s in shift.items()]
    assert agrees((na.compose(moved), da.compose(moved)), a.shifted(shift))
    renamed = [(gens[v], gens[w]) for v, w in mapping.items()]
    assert agrees((na.compose(renamed), da.compose(renamed)), a.permuted(mapping))


sympy_ratfunc_cases = dict(a=ratfuncs(CTX3), b=ratfuncs(CTX3), shift=shifts(CTX3),
                           mapping=row_permutations(CTX3))


@settings(max_examples=40)
@given(**sympy_ratfunc_cases)
@edge_cases(edge_ratfuncs(CTX3), ["a", "b"], shift=single_shift(CTX3),
            mapping={(2, 1): (2, 2), (2, 2): (2, 1)})
def test_ratfunc_matches_sympy(a, b, shift, mapping):
    _check_ratfunc_against_sympy(a, b, shift, mapping)


@pytest.mark.slow
@settings(max_examples=1000)
@given(**sympy_ratfunc_cases)
def test_ratfunc_matches_sympy_long(a, b, shift, mapping):
    _check_ratfunc_against_sympy(a, b, shift, mapping)


@st.composite
def nary_sum_cases(draw, paired, grouped):
    """3-5 operands at n=3 and the factors f, g they share.

    Each denominator holds f and g at multiplicity 0-2 each, so a factor
    meets the others at equal and at unequal multiplicity; some carry a
    third factor of their own.  The scales have denominators 1, 2, 3, 5
    and 7.  If `paired`, the first two operands are p/f^m and
    (r f - p)/f^m, whose numerators sum to a multiple of f.  If
    `grouped`, four operands over two new denominators join them at drawn
    places: two over h, and two over fh whose numerators cancel, so a sum
    groups operands over equal denominators beside operands over others."""
    ctx = CTX3
    f, g = draw(linear_factors(ctx)), draw(linear_factors(ctx))
    multiplicity = st.integers(0, 2)
    terms = []
    for _ in range(draw(st.integers(3, 5))):
        den = [f] * draw(multiplicity) + [g] * draw(multiplicity)
        den += draw(st.lists(linear_factors(ctx), max_size=1))
        scale = Fraction(draw(st.sampled_from([-3, -1, 1, 2, 4])),
                         draw(st.sampled_from([1, 2, 3, 5, 7])))
        terms.append(RatFunc(draw(nonzero_polys(ctx)), den, scale))
    if paired:
        p, r = draw(nonzero_polys(ctx)), draw(nonzero_polys(ctx))
        m = draw(st.integers(1, 2))
        s = Fraction(draw(st.sampled_from([-1, 2])), draw(st.sampled_from([3, 5])))
        terms[:2] = [RatFunc(p, [f] * m, s), RatFunc(r * f.to_poly(ctx) - p, [f] * m, s)]
    if grouped:
        h = draw(linear_factors(ctx))
        p, q = draw(nonzero_polys(ctx)), draw(nonzero_polys(ctx))
        s = Fraction(draw(st.sampled_from([-1, 2])), draw(st.sampled_from([1, 3])))
        for t in (RatFunc(p, [h], s), RatFunc(q, [h], 2),
                  RatFunc(q, [f, h], s), RatFunc(q * -2, [f, h], s / 2)):
            terms.insert(draw(st.integers(0, len(terms))), t)
    return terms, f, g


def _check_nary_sums_against_sympy(count):
    """RatFunc.sum on `count` drawn `nary_sum_cases`, a quarter of them
    with each choice of `paired` and `grouped`, against sympy.

    Each sum must agree with sympy in value and be the full reduction of
    the sum over the product of all denominators; the cases must reach
    each shape of the docstring above often enough."""
    sympy = pytest.importorskip("sympy")
    ctx = CTX3
    syms = {v: sympy.Symbol(ctx.var_name(v)) for v in ctx.vars}
    shapes = Counter()

    def check(case):
        terms, f, g = case
        total = RatFunc.sum(ctx, terms)
        expected = sum((to_sympy(t, syms) for t in terms), sympy.Integer(0))
        num, _ = sympy.fraction(sympy.together(expected - to_sympy(total, syms)))
        assert sympy.expand(num) == 0, terms
        full = RatFunc(sum((t.num * t.scale * math.prod((den_poly(u) for u in terms if u is not t),
                                                        start=Poly.one(ctx))
                            for t in terms), Poly.zero(ctx)),
                       [h for t in terms for h in t.den])
        _assert_canonical(total, full)
        # multiplicities of f and g in the operands that carry them
        counts = [[m for m in (t.den.count(h) for t in terms) if m] for h in (f, g)]
        shapes["equal"] += any(len(c) > len(set(c)) for c in counts)
        shapes["unequal"] += any(len(set(c)) > 1 for c in counts)
        shapes["cancelled"] += len(total.den) < sum(
            max(t.den.count(h) for t in terms) for h in {h for t in terms for h in t.den})
        # two or more operands over one denominator beside others, in
        # groups one of which sums to zero
        groups = Counter(t.den for t in terms)
        shapes["grouped"] += len(groups) > 1 and any(
            k > 1 and sum((t.num * t.scale for t in terms if t.den == den), Poly.zero(ctx)).is_zero
            for den, k in groups.items())

    for paired in (False, True):
        for grouped in (False, True):
            settings(max_examples=count // 4)(given(nary_sum_cases(paired, grouped))(check))()
    assert shapes["equal"] >= count // 2 and shapes["unequal"] >= count // 2, shapes
    assert shapes["cancelled"] >= count // 8, shapes
    assert shapes["grouped"] >= count // 4, shapes


def test_nary_sum_matches_sympy():
    _check_nary_sums_against_sympy(count=24)


@pytest.mark.slow
def test_nary_sum_matches_sympy_long():
    _check_nary_sums_against_sympy(count=400)


def _check_evaluation_against_sympy(count):
    """RatFunc.evaluate at n=3 against sympy's subs at `count` drawn
    rational points with mixed denominators; at a pole, the first
    vanishing factor (found by sympy) must be named in the
    ZeroDivisionError, and some draws must be poles.  About three draws
    in ten move the point onto the zero set of the value's last factor,
    so poles do not rest on a drawn point meeting one by chance (one
    seed in five drew none in 80)."""
    sympy = pytest.importorskip("sympy")
    ctx = CTX3
    syms = {v: sympy.Symbol(ctx.var_name(v)) for v in ctx.vars}
    poles = []

    @settings(max_examples=count)
    @given(r=ratfuncs(ctx), point=points(ctx), on_pole=chance(3))
    @edge_cases(edge_ratfuncs(ctx), ["r"], point={v: Fraction(-1, 2) for v in ctx.vars},
                on_pole=False)
    def check(r, point, on_pole):
        if on_pole and r.den:
            f = r.den[-1]
            point = {**point, f.a: (point[f.b] if f.b is not None else 0) - f.c}
        values = {syms[v]: rational(q) for v, q in point.items()}
        vanishing = [f for f in r.den if factor_to_sympy(f, syms).subs(values) == 0]
        if vanishing:
            poles.append(point)
            message = f"denominator factor {vanishing[0].render(ctx)} vanishes at the point"
            with pytest.raises(ZeroDivisionError, match=re.escape(message)):
                r.evaluate(point)
            return
        val = r.evaluate(point)
        assert type(val) is Fraction
        assert rational(val) == to_sympy(r, syms).subs(values), (r, point)

    check()
    assert poles


def test_evaluate_matches_sympy():
    _check_evaluation_against_sympy(count=80)


@pytest.mark.slow
def test_evaluate_matches_sympy_long():
    _check_evaluation_against_sympy(count=3000)
