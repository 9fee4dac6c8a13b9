import hashlib
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewgt.polys import Context, Poly, vandermonde
from skewgt.ratfunc import LinearFactor, RatFunc, linear_factor
from skewgt import cli, gln
from skewgt.skew import SkewElement

from conftest import (assert_body_matches, den_poly, eq_cross, is_normal_rational,
                      rand_factor, rand_point, rand_poly, rand_ratfunc, rand_rowperm)


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


def test_normalization_idempotent_and_canonical(ctx2):
    rng = random.Random(23)
    for _ in range(80):
        r = rand_ratfunc(rng, ctx2)
        again = RatFunc(r.num, r.den, r.scale)
        assert again == r
        # inflate by a common factor: the reduced form must not change
        f = LinearFactor((1, 1), (2, 2), Fraction(1))
        inflated = RatFunc(r.num * f.to_poly(ctx2), list(r.den) + [f], r.scale)
        assert inflated == r
        assert eq_cross(inflated, r)


def test_equality_matches_cross_multiplication(ctx2):
    rng = random.Random(29)
    agree = 0
    for _ in range(120):
        a = rand_ratfunc(rng, ctx2)
        b = rand_ratfunc(rng, ctx2)
        assert (a == b) == eq_cross(a, b)
        agree += 1
    assert agree == 120


def test_shift_is_ring_homomorphism(ctx2):
    rng = random.Random(31)
    shift = {(1, 1): 1, (2, 2): -2}
    for _ in range(40):
        a = rand_ratfunc(rng, ctx2)
        b = rand_ratfunc(rng, ctx2)
        assert (a * b).shifted(shift) == a.shifted(shift) * b.shifted(shift)
        assert (a + b).shifted(shift) == a.shifted(shift) + b.shifted(shift)


def test_permutation_is_ring_homomorphism(ctx3):
    rng = random.Random(37)
    mapping = {(3, 1): (3, 2), (3, 2): (3, 3), (3, 3): (3, 1),
               (2, 1): (2, 2), (2, 2): (2, 1)}
    for _ in range(40):
        a = rand_ratfunc(rng, ctx3)
        b = rand_ratfunc(rng, ctx3)
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
@given(seed=st.integers(0, 2 ** 32), k=st.integers(-6, 6), q=st.sampled_from([1, 1, 2, 3]))
def test_exact_rationals_are_stored_as_int_when_integral(seed, k, q):
    """Every scale, factor constant and content that the coefficient
    layer makes is an int, or a Fraction with denominator > 1: never a
    float or Fraction(k, 1), whatever the operation and whatever
    Fractions (integral ones included) it was given."""
    ctx = Context.triangle(3)
    rng = random.Random(seed)
    a, b = rand_ratfunc(rng, ctx), rand_ratfunc(rng, ctx)
    c = Fraction(k, q)
    f, _ = linear_factor((2, 2), (2, 1), c)
    shift = {v: rng.randint(-2, 2) for v in ctx.shift_vars}
    mapping = rand_rowperm(rng, ctx)
    factors = [f, f.shifted(shift), f.permuted(mapping)[0], LinearFactor((1, 1), None, c),
               linear_factor((1, 1), (3, 2), Fraction(2 * k, 2))[0], rand_factor(rng, ctx)]
    values = [a + b, a - b, a * b, a ** 2, -a, a + c, a * c, a.shifted(shift),
              a.permuted(mapping), RatFunc.sum(ctx, [a, b, a * b, b * c]),
              RatFunc(a.num, list(a.den) + factors, c), RatFunc(Poly.const(ctx, c)),
              RatFunc(a.num * q, a.den, Fraction(k * q, q)),
              gln.a_coeff(ctx, 2, rng.randint(1, 2), rng.choice([1, -1]))]
    u, w = (SkewElement(ctx, {(rng.randint(-1, 1), 0, 0): a, (0, 1, 0): b * c}),
            SkewElement(ctx, {(1, 0, 0): b, (0, 0, 0): RatFunc(Poly.one(ctx), factors, c)}))
    values += list((u * w).terms.values()) + list((w * u - u).terms.values())
    assert all(_stored_normally(r) for r in values)
    assert all(is_normal_rational(g.c) for g in factors)
    for p in (a.num * c, rand_poly(rng, ctx), Poly.zero(ctx), a.num * Fraction(2 * q, q)):
        content, prim = p.content_primitive()
        assert is_normal_rational(content) and content * prim == p
    # the rule itself refuses Fraction(k, 1), floats and bools
    planted = a * b
    planted.scale = Fraction(planted.scale.numerator if planted.scale else 1, 1)
    assert not _stored_normally(planted)
    assert not any(is_normal_rational(x) for x in (Fraction(k, 1), float(k), True))


def test_linear_factor_sort_order():
    """`sort_key` orders by a, then b with None first, then c."""
    x11, x21, x22 = (1, 1), (2, 1), (2, 2)
    order = [LinearFactor(x11, None, Fraction(-1)), LinearFactor(x11, None, Fraction(2)),
             LinearFactor(x11, x21, Fraction(0)), LinearFactor(x11, x22, Fraction(-3)),
             LinearFactor(x21, None, Fraction(0)), LinearFactor(x21, x22, Fraction(-1, 2)),
             LinearFactor(x21, x22, Fraction(1))]
    shuffled = order[:]
    random.Random(7).shuffle(shuffled)
    assert sorted(shuffled, key=LinearFactor.sort_key) == order


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


def test_json_roundtrip(ctx3):
    """The body `to_json` writes is the value, by sympy."""
    rng = random.Random(41)
    for _ in range(20):
        r = rand_ratfunc(rng, ctx3)
        assert_body_matches(r, r.to_json())


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


def _nonzero_poly(rng, ctx):
    p = rand_poly(rng, ctx)
    return Poly.one(ctx) if p.is_zero else p


def _cancelling_pairs(rng, ctx):
    """Operand pairs whose sum or product must cancel a factor."""
    f, g = rand_factor(rng, ctx), rand_factor(rng, ctx)
    fp, gp = f.to_poly(ctx), g.to_poly(ctx)
    p, q, r = (_nonzero_poly(rng, ctx) for _ in range(3))
    s, t = (Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])) for _ in range(2))
    extra = [rand_factor(rng, ctx) for _ in range(rng.randint(0, 1))]
    m = rng.randint(1, 2)
    # each numerator carries a factor of the other operand's denominator
    yield RatFunc(p * fp, [g], s), RatFunc(q * gp, [f], t)
    # a shared factor with equal multiplicity, then with unequal multiplicity
    yield RatFunc(p, [f] * m + extra, s), RatFunc(q, [f] * m, t)
    yield RatFunc(p, [f] * (m + 1), s), RatFunc(q, [f] * m + extra, t)
    # the summed numerator vanishes on the shared factor f^m, to order
    # k <= m, and to order m + 1 beside a second factor
    k = rng.randint(1, m)
    yield RatFunc(p, [f] * m, s), RatFunc(r * fp ** k - p, [f] * m, s)
    yield RatFunc(p, [f] * m + [g], s), RatFunc(r * fp ** (m + 1) - p, [f] * m + [g], s)


def _check_canonical_forms(seed, count):
    ctx = Context.triangle(3)
    rng = random.Random(seed)
    for _ in range(count):
        pairs = [(rand_ratfunc(rng, ctx), rand_ratfunc(rng, ctx))]
        pairs += _cancelling_pairs(rng, ctx)
        shift = {v: rng.randint(-2, 2) for v in ctx.shift_vars}
        mapping = rand_rowperm(rng, ctx)
        for a, b in pairs:
            for u, v in ((a, b), (b, a), (a, -a)):
                _assert_canonical(u + v, _full_sum(u, v))
                _assert_canonical(u * v, _full_product(u, v))
            for u in (a, b, a + b, a * b):
                _assert_canonical(u.shifted(shift), _full_shift(u, shift))
                _assert_canonical(u.permuted(mapping), _full_permute(u, mapping))


def test_operations_return_the_full_reduction():
    _check_canonical_forms(seed=53, count=60)


@pytest.mark.slow
def test_operations_return_the_full_reduction_long():
    _check_canonical_forms(seed=59, count=1500)


def test_cancelling_pairs_do_cancel():
    """The generated pairs reach the cancelling branches of + and *."""
    ctx = Context.triangle(3)
    rng = random.Random(61)
    sums = products = 0
    for _ in range(40):
        for a, b in _cancelling_pairs(rng, ctx):
            lcm = Counter(a.den) | Counter(b.den)
            sums += len((a + b).den) < sum(lcm.values())
            products += len((a * b).den) < len(a.den) + len(b.den)
    assert sums >= 70 and products >= 30


# -- numerator parts --------------------------------------------------------
#
# A numerator is kept as parts whose product it is.  Each part must be
# primitive, nonconstant, with a positive leading coefficient, and no
# denominator factor may divide it: a product cancels a factor from the
# part it divides, so a part left divisible would leave the fraction
# unreduced.

def _parts_in_normal_form(r: RatFunc) -> bool:
    if r.is_zero:
        return r.parts == () and r.num.is_zero
    if math.prod(r.parts, start=Poly.one(r.ctx)) != r.num:
        return False
    for p in r.parts:
        content, _ = p.content_primitive()
        if content != 1 or p.degree() < 1:
            return False
        if any(p.divmod_linear(f.a, f.b, f.c)[1].is_zero for f in r.den):
            return False
    return True


def _part_values(seed, ops):
    """Random values, the cancelling pairs and a pair that cancels a
    square from one part, with their products, the coefficients
    a(2,i,+-) and the Vandermondes V2, V3 (an odd permutation negates
    them), then one new value per entry of ``ops`` from two earlier
    ones."""
    ctx = Context.triangle(3)
    rng = random.Random(seed)
    values = [rand_ratfunc(rng, ctx) for _ in range(3)]
    f = rand_factor(rng, ctx)
    square = (RatFunc(_nonzero_poly(rng, ctx) * f.to_poly(ctx) ** 2),
              RatFunc(_nonzero_poly(rng, ctx), [f, f]))
    for a, b in [*_cancelling_pairs(rng, ctx), square]:
        values += [a, b, a * b]
    values += [gln.a_coeff(ctx, 2, i, s) for i in (1, 2) for s in (1, -1)]
    values += [RatFunc(vandermonde(ctx, k)) for k in (2, 3)]
    for op in ops:
        a, b = rng.choice(values), rng.choice(values)
        if op == "mul":
            values.append(a * b)
        elif op == "shift":
            values.append(a.shifted({v: rng.randint(-2, 2) for v in ctx.shift_vars}))
        elif op == "permute":
            values.append(a.permuted(rand_rowperm(rng, ctx)))
        elif op == "sum":
            values.append(RatFunc.sum(ctx, [a, b, a * b]))
        else:
            values.append(-a)
    return values


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32),
       ops=st.lists(st.sampled_from(["mul", "shift", "permute", "sum", "neg"]), max_size=8))
def test_parts_stay_in_normal_form(seed, ops):
    _check_parts(seed, ops)


def _check_parts(seed, ops):
    assert all(_parts_in_normal_form(r) for r in _part_values(seed, ops))


def test_parts_check_catches_an_uncancelled_part(monkeypatch):
    """With the cancellation planted away, the products of the cancelling
    pairs keep a part that their own denominator divides, and the
    check of the property test above fails on the first example."""
    from skewgt import ratfunc
    monkeypatch.setattr(ratfunc, "_cancel", lambda parts, factors, scale:
                        (scale, list(parts), list(factors)))
    with pytest.raises(AssertionError):
        _check_parts(0, [])


# -- n-ary sums -------------------------------------------------------------

def _fold(ctx, terms):
    out = RatFunc.zero(ctx)
    for t in terms:
        out = out + t
    return out


def _sum_lists(rng, ctx):
    """Term lists for RatFunc.sum: one term, lists that cancel to zero,
    scales over different denominators, and the cancelling pairs with a
    third operand beside them."""
    a, b, c = (rand_ratfunc(rng, ctx) for _ in range(3))
    yield [a]
    yield [a, b, -a, -b]
    yield [a, b, c]
    yield [a * Fraction(1, 3), b * Fraction(-2, 5), c * Fraction(5, 7), a]
    for p, q in _cancelling_pairs(rng, ctx):
        yield [p, q]
        yield [p, c, q]
        yield [p, q, -p, a]


def test_nary_sum_equals_the_fold():
    ctx = Context.triangle(3)
    rng = random.Random(71)
    assert RatFunc.sum(ctx, []) == RatFunc.zero(ctx)
    zeros = 0
    for _ in range(30):
        for terms in _sum_lists(rng, ctx):
            total = RatFunc.sum(ctx, terms)
            _assert_canonical(total, _fold(ctx, terms))
            zeros += total.is_zero
    assert zeros >= 30


def test_nary_sum_tries_only_factors_reached_twice(monkeypatch):
    """A factor whose top multiplicity (in the lcm of the denominators)
    only one operand reaches is never tried; the others are tried at
    most that many times."""
    ctx = Context.triangle(3)
    rng = random.Random(73)
    tried = Counter()
    exact_div_linear = Poly.exact_div_linear

    def recorded(self, a, b, c):
        tried[LinearFactor(a, b, c)] += 1
        return exact_div_linear(self, a, b, c)

    skipped = hits = 0
    for _ in range(30):
        for terms in _sum_lists(rng, ctx):
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
            skipped += sum(reached[f] == 1 for f in top)
            if not total.is_zero:
                hits += sum(top.values()) - len(total.den)
    assert skipped >= 300 and hits >= 100


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
# cancellations inside the reduced products no longer happen.
DIVISION_COUNTS = {
    ("compute", "--expr", "c33"): (10, 10),
    ("verify", "--suite", "gl3"): (37, 25),
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


# -- differential oracle against sympy ----------------------------------

def rational(q):
    sympy = pytest.importorskip("sympy")
    return sympy.Rational(q.numerator, q.denominator)


def factor_to_sympy(f, syms):
    return syms[f.a] - (syms[f.b] if f.b is not None else 0) + rational(f.c)


def to_sympy(r, syms):
    sympy = pytest.importorskip("sympy")
    ctx = r.ctx
    num = sum((rational(c) * sympy.Mul(*[syms[v] ** k for v, k in zip(ctx.vars, e)])
               for e, c in r.num.sorted_terms()), sympy.Integer(0))
    den = sympy.Mul(*[factor_to_sympy(f, syms) for f in r.den])
    return rational(r.scale) * num / den


def _sympy_ratfunc_cases(seed, count):
    """RatFunc +, *, shifted and permuted at n=3 against sympy's rational
    functions.

    Each result must agree with sympy in value (the numerator of the
    combined difference expands to 0) and be stored in normal form: int
    numerator coefficients, an int or non-integral Fraction scale."""
    sympy = pytest.importorskip("sympy")
    ctx = Context.triangle(3)
    syms = {v: sympy.Symbol(ctx.var_name(v)) for v in ctx.vars}

    def agrees(expr, r):
        assert all(type(c) is int for c in r.num.terms.values())
        assert is_normal_rational(r.scale)
        num, _ = sympy.fraction(sympy.together(expr - to_sympy(r, syms)))
        return sympy.expand(num) == 0

    rng = random.Random(seed)
    perm_rng = random.Random(-seed)
    for _ in range(count):
        a, b = rand_ratfunc(rng, ctx), rand_ratfunc(rng, ctx)
        shift = {v: rng.randint(-2, 2) for v in ctx.shift_vars}
        sa, sb = to_sympy(a, syms), to_sympy(b, syms)
        assert agrees(sa + sb, a + b)
        assert agrees(sa * sb, a * b)
        moved = sa.xreplace({syms[v]: syms[v] - s for v, s in shift.items()})
        assert agrees(moved, a.shifted(shift))
        mapping = rand_rowperm(perm_rng, ctx)
        renamed = sa.xreplace({syms[v]: syms[w] for v, w in mapping.items()})
        assert agrees(renamed, a.permuted(mapping))


def test_ratfunc_matches_sympy():
    _sympy_ratfunc_cases(seed=43, count=40)


@pytest.mark.slow
def test_ratfunc_matches_sympy_long():
    _sympy_ratfunc_cases(seed=47, count=1000)


def _sympy_nary_sum_cases(seed, count):
    """RatFunc.sum of 3-5 operands at n=3 against sympy.

    The operands share two factors f and g, each at multiplicity 0-2 in
    each denominator, so a factor meets the others at equal and at
    unequal multiplicity; some carry a third factor of their own.  The
    scales have denominators 1, 2, 3, 5 and 7.  In every other case the
    first two operands are p/f^m and (r f - p)/f^m, whose numerators sum
    to a multiple of f.  In half the cases four operands over two new
    denominators join them at random places: two over h, and two over fh
    whose numerators cancel, so a sum groups operands over equal
    denominators beside operands over others.  Each sum must agree with
    sympy in value and be the full reduction of the sum over the product
    of all denominators."""
    sympy = pytest.importorskip("sympy")
    ctx = Context.triangle(3)
    syms = {v: sympy.Symbol(ctx.var_name(v)) for v in ctx.vars}
    rng = random.Random(seed)
    shapes = Counter()
    for case in range(count):
        f, g = rand_factor(rng, ctx), rand_factor(rng, ctx)
        terms = []
        for _ in range(rng.randint(3, 5)):
            den = [f] * rng.randint(0, 2) + [g] * rng.randint(0, 2)
            den += [rand_factor(rng, ctx) for _ in range(rng.randint(0, 1))]
            scale = Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice([1, 2, 3, 5, 7]))
            terms.append(RatFunc(_nonzero_poly(rng, ctx), den, scale))
        if case % 2:
            p, r = _nonzero_poly(rng, ctx), _nonzero_poly(rng, ctx)
            m = rng.randint(1, 2)
            s = Fraction(rng.choice([-1, 2]), rng.choice([3, 5]))
            terms[:2] = [RatFunc(p, [f] * m, s), RatFunc(r * f.to_poly(ctx) - p, [f] * m, s)]
        if case % 4 < 2:
            h = rand_factor(rng, ctx)
            p, q = _nonzero_poly(rng, ctx), _nonzero_poly(rng, ctx)
            s = Fraction(rng.choice([-1, 2]), rng.choice([1, 3]))
            for t in (RatFunc(p, [h], s), RatFunc(q, [h], 2),
                      RatFunc(q, [f, h], s), RatFunc(q * -2, [f, h], s / 2)):
                terms.insert(rng.randint(0, len(terms)), t)
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
    assert shapes["equal"] >= count // 2 and shapes["unequal"] >= count // 2, shapes
    assert shapes["cancelled"] >= count // 8, shapes
    assert shapes["grouped"] >= count // 4, shapes


def test_nary_sum_matches_sympy():
    _sympy_nary_sum_cases(seed=83, count=24)


@pytest.mark.slow
def test_nary_sum_matches_sympy_long():
    _sympy_nary_sum_cases(seed=89, count=400)


def _sympy_evaluation_cases(seed, count):
    """RatFunc.evaluate at n=3 against sympy's subs at rational points
    with mixed denominators; at a pole, the first vanishing factor (found
    by sympy) must be named in the ZeroDivisionError."""
    sympy = pytest.importorskip("sympy")
    ctx = Context.triangle(3)
    syms = {v: sympy.Symbol(ctx.var_name(v)) for v in ctx.vars}
    rng = random.Random(seed)
    poles = 0
    for _ in range(count):
        r = rand_ratfunc(rng, ctx)
        point = rand_point(rng, ctx)
        values = {syms[v]: rational(q) for v, q in point.items()}
        vanishing = [f for f in r.den if factor_to_sympy(f, syms).subs(values) == 0]
        if vanishing:
            poles += 1
            message = f"denominator factor {vanishing[0].render(ctx)} vanishes at the point"
            with pytest.raises(ZeroDivisionError, match=re.escape(message)):
                r.evaluate(point)
            continue
        val = r.evaluate(point)
        assert type(val) is Fraction
        assert rational(val) == to_sympy(r, syms).subs(values), (r, point)
    assert poles


def test_evaluate_matches_sympy():
    _sympy_evaluation_cases(seed=61, count=80)


@pytest.mark.slow
def test_evaluate_matches_sympy_long():
    _sympy_evaluation_cases(seed=67, count=3000)
