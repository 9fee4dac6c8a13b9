import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from skewgt.polys import Context, Poly, vandermonde
from skewgt.ratfunc import RatFunc, linear_factor
from skewgt.skew import SkewElement, alt_generators, commutator, is_invariant, sym_generators
from skewgt import gln, skew

from conftest import (assert_skew_body_matches, compose, edge_cases, edge_skews,
                      row_permutations, skew_elements)

CTX2, CTX3 = Context.triangle(2), Context.triangle(3)
EDGES2, EDGES3 = edge_skews(CTX2), edge_skews(CTX3)


def unit_key(ctx, v, power=1):
    key = [0] * ctx.shift_rank
    key[ctx.shift_pos(v)] = power
    return tuple(key)


def test_commutator_promotes_mixed_operands(ctx3, monkeypatch):
    """With one skew operand, `commutator` promotes the other (a Poly,
    RatFunc, int or Fraction) as `*` does, on either side, and equals
    a*b - b*a; matrices keep `Matrix.commutator` and never reach the
    skew kernel."""
    from skewgt import gtmodules as gt
    X = gln.gen_X(ctx3, 2, +1)
    x = Poly.var(ctx3, (2, 1))
    f = RatFunc(x + 1, [linear_factor((2, 1), (2, 2), 1)[0]])
    for other in (x, f, 3, Fraction(-2, 5)):
        for a, b in ((X, other), (other, X)):
            assert commutator(a, b) == a * b - b * a, (a, b)
    assert not commutator(X, x).is_zero and not commutator(f, X).is_zero
    assert commutator(X, 3).is_zero and commutator(Fraction(1, 2), X).is_zero

    M = gt.build_module((2, 1, 0)).matrices
    brackets = []
    method = gt.Matrix.commutator
    monkeypatch.setattr(gt.Matrix, "commutator",
                        lambda a, b: (brackets.append(1), method(a, b))[1])
    monkeypatch.setattr(SkewElement, "sum_of_products", None)
    assert commutator(M["X1+"], M["X1-"]) == M["X1+"] * M["X1-"] - M["X1-"] * M["X1+"]
    assert commutator(M["X11"], M["X1+"]) == M["X11"] * M["X1+"] - M["X1+"] * M["X11"]
    assert len(brackets) == 2


def test_skew_square_twists_coefficient(ctx2):
    x11 = Poly.var(ctx2, (1, 1))
    u = SkewElement.from_coeff(x11) * SkewElement.shift_gen(ctx2, (1, 1))
    sq = u * u
    assert sq.terms == {unit_key(ctx2, (1, 1), 2): RatFunc(x11 * (x11 - 1))}


def test_ladder_commutator_hand_oracle(ctx2):
    # oracle: expanding both orders by hand leaves the difference of the
    # two shifted coefficients at the identity
    X1p = gln.gen_X(ctx2, 1, +1)
    X1m = gln.gen_X(ctx2, 1, -1)
    x = lambda k, i: Poly.var(ctx2, (k, i))
    expected = SkewElement.from_coeff(2 * x(1, 1) - x(2, 1) - x(2, 2) - 1)
    assert commutator(X1p, X1m) == expected
    assert commutator(X1p, X1p).is_zero


@settings(max_examples=30)
@given(u=skew_elements(CTX2))
@edge_cases(EDGES2, ["u"])
def test_identity_shift_is_unit(u):
    one = SkewElement.one(CTX2)
    assert one * u == u
    assert u * one == u


@settings(max_examples=40)
@given(a=skew_elements(CTX2), b=skew_elements(CTX2), c=skew_elements(CTX2))
@edge_cases(EDGES2, ["a", "b", "c"])
def test_skew_mul_associative_random(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_convert_coefficients(ctx2):
    x11 = Poly.var(ctx2, (1, 1))
    u = SkewElement.from_coeff(x11) * SkewElement.shift_gen(ctx2, (1, 1))
    right = u.right_coefficients()
    assert right == {unit_key(ctx2, (1, 1)): RatFunc(x11 + 1)}
    assert SkewElement.from_right(ctx2, right) == u
    e = SkewElement.identity_shift(ctx2)
    v = SkewElement.from_coeff(x11 - 2)
    assert v.right_coefficients()[e] == RatFunc(x11 - 2)


@settings(max_examples=30)
@given(u=skew_elements(CTX3))
@edge_cases(EDGES3, ["u"])
def test_right_left_roundtrip_random(u):
    assert SkewElement.from_right(CTX3, u.right_coefficients()) == u


def test_support(ctx3):
    X2p = gln.gen_X(ctx3, 2, +1)
    assert X2p.support() == {unit_key(ctx3, (2, 1)), unit_key(ctx3, (2, 2))}
    V2 = gln.gen_V(ctx3, 2)
    assert V2.support() == {SkewElement.identity_shift(ctx3)}
    assert SkewElement.zero(ctx3).support() == frozenset()


def test_evaluate_examples(ctx2):
    x11 = Poly.var(ctx2, (1, 1))
    u = SkewElement.from_right(ctx2, {unit_key(ctx2, (1, 1)): RatFunc(x11)})
    assert u.evaluate(x11) == RatFunc((x11 - 1) ** 2)
    gamma = vandermonde(ctx2, 2)
    g = SkewElement.from_coeff(gamma)
    assert g.evaluate(1) == RatFunc(gamma)
    # ladder applied to a symmetric polynomial stays polynomial
    e21 = Poly.var(ctx2, (2, 1)) + Poly.var(ctx2, (2, 2))
    out = gln.gen_X(ctx2, 1, +1).evaluate(e21)
    assert out.is_poly


def test_coevaluation_gives_divided_differences(ctx3):
    # oracle: co-applying the row-2 raising ladder to 1 must produce the
    # divided difference (N(x21) - N(x22))/(x21 - x22) of the row-3
    # product N(t) = prod_j (x3j - t), computed independently by exact
    # division
    x = lambda k, i: Poly.var(ctx3, (k, i))
    N21 = (x(3, 1) - x(2, 1)) * (x(3, 2) - x(2, 1)) * (x(3, 3) - x(2, 1))
    N22 = (x(3, 1) - x(2, 2)) * (x(3, 2) - x(2, 2)) * (x(3, 3) - x(2, 2))
    expected = (N21 - N22).exact_div_linear((2, 1), (2, 2), Fraction(0))
    assert expected is not None
    got = gln.gen_X(ctx3, 2, +1).coevaluate(1)
    assert got == RatFunc(expected)


def test_ladder_coevaluation_preserves_symmetric_ring(ctx3):
    from skewgt.polys import elementary_symmetric
    for k in (1, 2):
        for s in (1, -1):
            X = gln.gen_X(ctx3, k, s)
            for (kk, ii) in ((1, 1), (2, 1), (2, 2), (3, 2)):
                val = X.coevaluate(elementary_symmetric(ctx3, kk, ii))
                out = SkewElement.from_coeff(val)
                assert gln.membership(out, "Gamma"), (k, s, kk, ii)


@settings(max_examples=20)
@given(u=skew_elements(CTX2), v=skew_elements(CTX2), w=skew_elements(CTX2))
@edge_cases(EDGES2, ["u", "v", "w"])
def test_evaluation_is_a_module_action(u, v, w):
    a = w.identity_coefficient()
    assert (u * v).evaluate(a) == u.evaluate(v.evaluate(a))
    assert (u * v).coevaluate(a) == v.coevaluate(u.coevaluate(a))


@settings(max_examples=25)
@given(u=skew_elements(CTX2), w=skew_elements(CTX2))
@edge_cases(EDGES2, ["u", "w"])
def test_evaluate_matches_coevaluate_on_pure_coefficients(u, w):
    pure = SkewElement.from_coeff(u.identity_coefficient())
    a = w.identity_coefficient()
    assert pure.evaluate(a) == pure.coevaluate(a)


def test_group_action_examples(ctx3):
    swap2 = {(2, 1): (2, 2), (2, 2): (2, 1)}
    X2p = gln.gen_X(ctx3, 2, +1)
    assert X2p.act(swap2) == X2p
    V2 = gln.gen_V(ctx3, 2)
    assert (V2 * SkewElement.one(ctx3)).act(swap2) == -V2
    assert X2p.act({}) == X2p


def test_bad_row_mappings_are_refused(ctx3):
    """A mapping that is not a bijection within the rows of the context
    would corrupt a packed key, or name none: `Poly.permute` refuses it,
    and `RatFunc.permuted` and `act` refuse it through it, a constant
    with no part to permute included.  The empty mapping is the
    identity."""
    x21 = Poly.var(ctx3, (2, 1))
    r = RatFunc(x21 * Poly.var(ctx3, (3, 1)) + 1)
    const = RatFunc.const(ctx3, 2)
    u = SkewElement.from_coeff(r) * SkewElement.shift_gen(ctx3, (2, 1))
    for bad in ({(2, 1): (2, 2)}, {(2, 1): (3, 1), (3, 1): (2, 1)},
                {(4, 1): (4, 2), (4, 2): (4, 1)}):
        for apply in (x21.permute, r.permuted, const.permuted, u.act):
            with pytest.raises(ValueError):
                apply(bad)
    assert x21.permute({}) == x21 and r.permuted({}) == r and u.act({}) == u
    assert const.permuted({}) == const


SWAP2 = {(2, 1): (2, 2), (2, 2): (2, 1)}
CYCLE3 = {(3, 1): (3, 2), (3, 2): (3, 3), (3, 3): (3, 1)}


@settings(max_examples=20)
@given(u=skew_elements(CTX3), v=skew_elements(CTX3), g=row_permutations(CTX3))
@edge_cases(EDGES3, ["u", "v"], g={**SWAP2, **CYCLE3})
def test_group_action_is_algebra_homomorphism(u, v, g):
    assert (u * v).act(g) == u.act(g) * v.act(g)
    assert (u + v).act(g) == u.act(g) + v.act(g)


@settings(max_examples=40)
@given(g=row_permutations(CTX3), h=row_permutations(CTX3), k=row_permutations(CTX3))
@edge_cases([{}, SWAP2, CYCLE3], ["g", "h", "k"])
def test_rowperm_group_axioms(g, h, k):
    assert compose(compose(g, h), k) == compose(g, compose(h, k))
    inverse = {w: v for v, w in g.items()}
    moved = {v: w for v, w in g.items() if w != v}
    assert compose(g, {}) == compose({}, g) == moved
    assert compose(g, inverse) == compose(inverse, g) == {}


@settings(max_examples=20)
@given(g=row_permutations(CTX3), h=row_permutations(CTX3), u=skew_elements(CTX3))
@edge_cases(EDGES3, ["u"], g=SWAP2, h=CYCLE3)
def test_action_composition(g, h, u):
    assert u.act(compose(g, h)) == u.act(h).act(g)


def test_invariance(ctx3):
    for k in (1, 2):
        for s in (1, -1):
            assert is_invariant(gln.gen_X(ctx3, k, s), "S")
    V2 = gln.gen_V(ctx3, 2)
    assert is_invariant(V2, "A") and not is_invariant(V2, "S")
    A21p = gln.gen_A(ctx3, 2, 1, +1)
    assert not is_invariant(A21p, "S")
    for group in ("Q", "s", "a", "A-whatever", "S-", ""):
        with pytest.raises(ValueError, match="expected 'S' or 'A'"):
            is_invariant(V2, group)


def _odd_rows(mapping):
    """The rows on which a row permutation is odd, by its inversions."""
    inversions = Counter(v[0] for v, w in combinations(sorted(mapping), 2)
                         if v[0] == w[0] and mapping[v] > mapping[w])
    return {row for row, count in inversions.items() if count % 2}


def test_alt_generators_are_even():
    ctx = Context.triangle(4)
    for g in alt_generators(ctx):
        assert not _odd_rows(g)
    assert any(_odd_rows(g) for g in sym_generators(ctx))
    assert _odd_rows({(3, 1): (3, 2), (3, 2): (3, 1), (4, 1): (4, 2), (4, 2): (4, 1)}) == {3, 4}


def test_generator_lists():
    """Consecutive transpositions and 3-cycles, row by row and in order."""
    ctx = Context.triangle(4)
    assert sym_generators(ctx) == [
        {(2, 1): (2, 2), (2, 2): (2, 1)},
        {(3, 1): (3, 2), (3, 2): (3, 1)},
        {(3, 2): (3, 3), (3, 3): (3, 2)},
        {(4, 1): (4, 2), (4, 2): (4, 1)},
        {(4, 2): (4, 3), (4, 3): (4, 2)},
        {(4, 3): (4, 4), (4, 4): (4, 3)}]
    assert alt_generators(ctx) == [
        {(3, 1): (3, 2), (3, 2): (3, 3), (3, 3): (3, 1)},
        {(4, 1): (4, 2), (4, 2): (4, 3), (4, 3): (4, 1)},
        {(4, 2): (4, 3), (4, 3): (4, 4), (4, 4): (4, 2)}]
    assert sym_generators(Context.line()) == alt_generators(Context.line()) == []


def test_ladder_supports_span_lattice():
    """At n = 2..6, X_k+ shifts by e_ki and X_k- by -e_ki, i = 1..k, so
    the ladder supports are the signed unit vectors of every shiftable
    variable: they generate the whole shift lattice Z^shift_rank, the
    support condition of Futorny-Ovsienko's Galois-ring criterion."""
    for n in range(2, 7):
        ctx = Context.triangle(n)
        supports = set()
        for k in range(1, n):
            for s in (1, -1):
                support = gln.gen_X(ctx, k, s).support()
                assert support == {unit_key(ctx, (k, i), s) for i in range(1, k + 1)}, (n, k, s)
                supports |= support
        assert supports == {unit_key(ctx, v, s) for v in ctx.shift_vars for s in (1, -1)}


@settings(max_examples=15)
@given(u=skew_elements(CTX3))
@edge_cases(EDGES3, ["u"])
def test_json_roundtrip(u):
    """The body `to_json` writes is the element, by sympy."""
    assert_skew_body_matches(u, u.to_json())



# -- an independent sympy model of the skew ring ------------------------------
#
# The model shares no code with the engine.  Its generators are written from
# the conventions in `gln`'s docstring; an element is a dict from shift (the
# pairs (v, m) with m != 0) to a sympy expression, the coefficient on the
# left; a product twists by subs(x_v -> x_v - m).  `reduced` cancels each
# coefficient and drops the zeros, and `same` compares with the engine
# exactly.  Cancelling takes sympy seconds per product at n = 3 and minutes
# at n = 4, so the tier-1 test compares the unreduced coefficients with the
# engine's at random exact rational points (`same_at`): a wrong coefficient
# or key passes only if it vanishes at every point drawn (Schwartz, JACM 27,
# 1980), and `slow` runs `same`.


class SkewModel:
    def __init__(self, n):
        self.sp = pytest.importorskip("sympy")
        self.x = {(k, i): self.sp.Symbol(f"x{k}_{i}")
                  for k in range(1, n + 1) for i in range(1, k + 1)}

    def twist(self, expr, shift, sign=1):
        """x_v -> x_v - sign*m for every (v, m) in the shift."""
        return expr.subs({self.x[v]: self.x[v] - sign * m for v, m in shift},
                         simultaneous=True)

    def add(self, u, w, sign=1):
        out = dict(u)
        for s, c in w.items():
            out[s] = out.get(s, 0) + sign * c
        return out

    def mul(self, u, w):
        out = {}
        for s1, a in u.items():
            for s2, b in w.items():
                s = dict(s1)
                for v, m in s2:
                    s[v] = s.get(v, 0) + m
                s = frozenset((v, m) for v, m in s.items() if m)
                out[s] = out.get(s, 0) + a * self.twist(b, s1)
        return out

    def element(self, name):
        x, sp, d = self.x, self.sp, [int(ch) for ch in name if ch.isdigit()]
        if name[-1] in "+-":          # A_ki^s = d_ki^s a(k,i,s); X_k^s sums them
            s, k = (1 if name[-1] == "+" else -1), d[0]
            out = {}
            for i in d[1:] or range(1, k + 1):
                a = -s * sp.Mul(*[x[k + s, j] - x[k, i] for j in range(1, k + s + 1)]) \
                    / sp.Mul(*[x[k, j] - x[k, i] for j in range(1, k + 1) if j != i])
                shift = frozenset({((k, i), s)})
                out[shift] = self.twist(a, shift)    # the left coefficient d_ki^s(a)
            return out
        if name[0] == "X":
            k = d[0]
            return {frozenset(): sum(x[k, j] + j - 1 for j in range(1, k + 1))
                    - sum(x[k - 1, i] + i - 1 for i in range(1, k))}
        if name[0] == "V":
            k = d[0]
            return {frozenset(): sp.Mul(*[x[k, i] - x[k, j] for i in range(1, k + 1)
                                          for j in range(i + 1, k + 1)])}
        i, j = d                      # E_ij: a commutator along i, i+-1, ..., j
        if abs(i - j) <= 1:
            return self.element(f"X{i}{i}" if i == j else f"X{min(i, j)}{'+-'[j < i]}")
        step = i + 1 if j > i else i - 1
        first, rest = self.element(f"E{i}{step}"), self.element(f"E{step}{j}")
        return self.add(self.mul(first, rest), self.mul(rest, first), -1)

    def act(self, u, g):
        """The row permutation g = {v: g(v)}: x_v -> x_g(v), and a shift's
        exponent at v moves to g(v)."""
        rename = {self.x[v]: self.x[w] for v, w in g.items()}
        return {frozenset((g.get(v, v), m) for v, m in s): c.subs(rename, simultaneous=True)
                for s, c in u.items()}

    def right(self, u):
        """a mu = mu mu^-1(a): the right coefficient is mu^-1(a)."""
        return {s: self.twist(c, s, -1) for s, c in u.items()}

    def reduced(self, u):
        u = {s: self.sp.cancel(c) for s, c in u.items()}
        return {s: c for s, c in u.items() if c != 0}

    def of_engine(self, terms, ctx):
        """Engine terms {key: RatFunc} read field by field."""
        sp, x = self.sp, self.x
        q = lambda r: sp.Rational(r.numerator, r.denominator)
        out = {}
        for key, r in terms.items():
            num = sp.Add(*[q(c) * sp.Mul(*[x[v] ** e for v, e in zip(ctx.vars, exps)])
                           for exps, c in r.num.sorted_terms()])
            den = sp.Mul(*[x[f.a] - (x[f.b] if f.b is not None else 0) + q(f.c) for f in r.den])
            out[_shift_of(ctx, key)] = q(r.scale) * num / den
        return out

    def same(self, terms, ctx, u):
        got, want = self.of_engine(terms, ctx), self.reduced(u)
        sp = self.sp
        return set(got) == set(want) and all(
            sp.expand(sp.fraction(sp.together(got[s] - want[s]))[0]) == 0 for s in got)

    def same_at(self, terms, ctx, u, points):
        for point in points:
            at = {self.x[v]: self.sp.Rational(q.numerator, q.denominator)
                  for v, q in point.items()}
            got = {_shift_of(ctx, key): _value_at(r, ctx, point) for key, r in terms.items()}
            want = {s: c.xreplace(at) for s, c in u.items()}
            if {s: c for s, c in got.items() if c} \
                    != {s: Fraction(int(c.p), int(c.q)) for s, c in want.items() if c != 0}:
                return False
        return True


def _shift_of(ctx, key):
    return frozenset((ctx.shift_vars[p], m) for p, m in enumerate(key) if m)


def _value_at(r, ctx, point):
    """An engine RatFunc at a point, from its fields in Fraction arithmetic."""
    num = sum(c * math.prod(point[v] ** e for v, e in zip(ctx.vars, exps))
              for exps, c in r.num.sorted_terms())
    den = math.prod(point[f.a] - (point[f.b] if f.b is not None else 0) + f.c for f in r.den)
    return Fraction(r.scale) * num / den


def oracle_names(n, commutators):
    """The registry names of rank n: the generators, and with
    `commutators` every matrix unit E_ij with |i - j| >= 2."""
    names = [f"X{k}{s}" for k in range(1, n) for s in "+-"]
    names += [f"A{k}{i}{s}" for k in range(1, n) for i in range(1, k + 1) for s in "+-"]
    names += [f"X{k}{k}" for k in range(1, n + 1)] + [f"V{k}" for k in range(2, n + 1)]
    if commutators:
        names += [f"E{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)
                  if abs(i - j) >= 2]
    return names


def _word(ctx, model, word):
    """The product of a word's entries, in the engine and in the model:
    each entry a registry name, or a pair of words, their commutator."""
    def entry(e):
        if isinstance(e, str):
            return gln.element(ctx, e), model.element(e)
        (u1, m1), (u2, m2) = (_word(ctx, model, w) for w in e)
        return commutator(u1, u2), model.add(model.mul(m1, m2), model.mul(m2, m1), -1)

    u, m = entry(word[0])
    for e in word[1:]:
        v, w = entry(e)
        u, m = u * v, model.mul(m, w)
    return u, m


def _check_against_model(n, word, g, points=None):
    """The product, `act` under the row permutation `g`, and the right
    coefficients with the round trip back, against the model: exactly,
    or at `points`."""
    ctx, model = Context.triangle(n), SkewModel(n)
    u, m = _word(ctx, model, word)
    right = u.right_coefficients()
    for terms, expected in ((u.terms, m), (u.act(g).terms, model.act(m, g)),
                            (right, model.right(m))):
        assert (model.same(terms, ctx, expected) if points is None else
                model.same_at(terms, ctx, expected, points)), (word, g)
    assert SkewElement.from_right(ctx, right) == u


# One prime per variable through n = 4.  A coordinate m + r/p with
# 0 < r < p is never an integer, and two of them never differ by one,
# so no factor (x_a - x_b + c) or (x_a + c) with an integral c, the only
# kind the generators and the model have, vanishes at such a point.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def exact_point(ctx, whole, residues):
    """The point x_v = whole_v + residue_v / p_v, p_v the v-th prime."""
    return {v: m + Fraction(r, p) for v, m, r, p in zip(ctx.vars, whole, residues, PRIMES)}


@st.composite
def exact_points(draw, ctx):
    """Points off every pole of the generators, with coordinates of
    magnitude up to 10^6."""
    whole = [draw(st.integers(-10 ** 6, 10 ** 6)) for _ in ctx.vars]
    residues = [draw(st.integers(1, p - 1)) for p in PRIMES[:len(ctx.vars)]]
    return exact_point(ctx, whole, residues)


@st.composite
def oracle_cases(draw, ns, max_len, commutators_up_to, points):
    n = draw(st.sampled_from(ns))
    names = oracle_names(n, n <= commutators_up_to)
    word = draw(st.lists(st.sampled_from(names), min_size=1, max_size=max_len))
    ctx = Context.triangle(n)
    g = draw(row_permutations(ctx))
    pts = [draw(exact_points(ctx)) for _ in range(points)]
    return n, word, g, pts or None


@settings(max_examples=60)
@given(case=oracle_cases(ns=(2, 3, 4), max_len=3, commutators_up_to=3, points=2))
def test_skew_ring_matches_the_sympy_model(case):
    """Words of length <= 3 in the registry names at n = 2..4, at two
    random exact points."""
    _check_against_model(*case)


@st.composite
def bracket_cases(draw, ns, max_len):
    n, w1, g, pts = draw(oracle_cases(ns=ns, max_len=max_len, commutators_up_to=0, points=2))
    w2 = draw(st.lists(st.sampled_from(oracle_names(n, False)), min_size=1, max_size=max_len))
    return n, [(w1, w2)], g, pts


@settings(max_examples=30)
@given(case=bracket_cases(ns=(2, 3), max_len=2))
def test_bracket_words_match_the_sympy_model(case):
    """Brackets [w1, w2] of words of length <= 2 at n = 2, 3, each one
    `sum_of_products` of two pairs, against the model's two products
    and difference at two random exact points."""
    _check_against_model(*case)


def test_sympy_model_catches_planted_faults(monkeypatch):
    """A flipped shift sign in `_shift_map`, an `act` that skips the key
    conjugation, a product that drops the last pair of a shift key and a
    `SkewElement.__neg__` that returns its operand (so the bracket's
    second product keeps its sign and E13 sums E12*E23 + E23*E12) each
    fail the comparison with the model."""
    ctx = Context.triangle(3)
    points = [exact_point(ctx, (-401207, 77512, 938104, -5063, 260418, -719990), [1] * 6),
              exact_point(ctx, (13, -888121, 40440, 612377, -99, 351), (1, 2, 4, 3, 7, 12))]
    cases = [(3, ["X2+", "X2-"], {(2, 1): (2, 2), (2, 2): (2, 1)}),
             (3, ["A21+", "X1-"], {(2, 1): (2, 2), (2, 2): (2, 1),
                                   (3, 1): (3, 3), (3, 2): (3, 1), (3, 3): (3, 2)}),
             (3, ["E13", "X11"], {(3, 1): (3, 2), (3, 2): (3, 1)})]
    for case in cases:
        _check_against_model(*case, points)

    def flipped_shift_map(ctx, key):
        return {ctx.shift_vars[p]: -m for p, m in enumerate(key) if m}

    def act_without_conjugation(self, mapping):
        return SkewElement(self.ctx, {k: c.permuted(mapping) for k, c in self.terms.items()})

    def mul_dropping_last_pair(self, other):
        products = {}
        for k1, a1 in self.terms.items():
            for k2, a2 in other.terms.items():
                products.setdefault(tuple(map(add, k1, k2)), []).append(
                    a1 * a2.shifted(skew._shift_map(self.ctx, k1)))
        return SkewElement(self.ctx, {k: RatFunc.sum(self.ctx, ps[:-1] or ps)
                                      for k, ps in products.items()})

    for target, name, fault in ((skew, "_shift_map", flipped_shift_map),
                                (SkewElement, "act", act_without_conjugation),
                                (SkewElement, "_mul", mul_dropping_last_pair),
                                (SkewElement, "__neg__", lambda self: self)):
        with monkeypatch.context() as m:
            m.setattr(target, name, fault)
            with pytest.raises(AssertionError):
                for case in cases:
                    _check_against_model(*case, points)


@pytest.mark.slow
@settings(max_examples=60)
@given(case=oracle_cases(ns=(2, 3), max_len=3, commutators_up_to=2, points=0))
def test_skew_ring_matches_the_sympy_model_exactly(case):
    """The same words at n = 2, 3, compared symbolically after cancel."""
    _check_against_model(*case)


@pytest.mark.slow
@settings(max_examples=40)
@given(case=oracle_cases(ns=(3, 4), max_len=5, commutators_up_to=3, points=2))
def test_skew_ring_matches_the_sympy_model_long_words(case):
    _check_against_model(*case)
