import random
from fractions import Fraction

import pytest

from skewgt.polys import Context, Poly, vandermonde
from skewgt.ratfunc import RatFunc
from skewgt.skew import (RowPermutation, SkewElement, alt_generators,
                         commutator, is_invariant,
                         sym_generators)
from skewgt.lattice import lattice_spans_ambient, supports_generate_group
from skewgt import gln

from conftest import rand_rowperm, rand_skew


def unit_key(ctx, v, power=1):
    key = [0] * ctx.shift_rank
    key[ctx.shift_pos(v)] = power
    return tuple(key)


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


def test_identity_shift_is_unit(ctx2):
    rng = random.Random(43)
    one = SkewElement.one(ctx2)
    for _ in range(30):
        u = rand_skew(rng, ctx2)
        assert one * u == u
        assert u * one == u


def test_skew_mul_associative_random(ctx2):
    rng = random.Random(47)
    for _ in range(40):
        a = rand_skew(rng, ctx2)
        b = rand_skew(rng, ctx2)
        c = rand_skew(rng, ctx2)
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


def test_right_left_roundtrip_random(ctx3):
    rng = random.Random(53)
    for _ in range(30):
        u = rand_skew(rng, ctx3)
        assert SkewElement.from_right(ctx3, u.right_coefficients()) == u


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


def test_evaluation_is_a_module_action(ctx2):
    rng = random.Random(79)
    for _ in range(20):
        u = rand_skew(rng, ctx2)
        v = rand_skew(rng, ctx2)
        a = rand_skew(rng, ctx2).identity_coefficient()
        assert (u * v).evaluate(a) == u.evaluate(v.evaluate(a))
        assert (u * v).coevaluate(a) == v.coevaluate(u.coevaluate(a))


def test_evaluate_matches_coevaluate_on_pure_coefficients(ctx2):
    rng = random.Random(59)
    for _ in range(25):
        u = rand_skew(rng, ctx2)
        pure = SkewElement.from_coeff(u.identity_coefficient())
        a = rand_skew(rng, ctx2).identity_coefficient()
        assert pure.evaluate(a) == pure.coevaluate(a)


def test_nary_sum_equals_the_fold(ctx3):
    """SkewElement.sum sums each shift key's coefficients at once; it
    equals the left fold of skew +."""
    rng = random.Random(83)
    assert SkewElement.sum(ctx3, []) == SkewElement.zero(ctx3)
    met = 0
    for _ in range(30):
        u, v, w = (rand_skew(rng, ctx3, max_terms=3) for _ in range(3))
        for elements in ([u], [u, v, -u], [u, v, w, u * v], [u, -u]):
            total = SkewElement.zero(ctx3)
            for e in elements:
                total = total + e
            assert SkewElement.sum(ctx3, elements) == total
            keys = [k for e in elements for k in e.terms]
            met += len(keys) > len(set(keys))
    assert met >= 30


def test_group_action_examples(ctx3):
    swap2 = RowPermutation.transposition(ctx3, 2, 1, 2)
    X2p = gln.gen_X(ctx3, 2, +1)
    assert X2p.act(swap2) == X2p
    V2 = gln.gen_V(ctx3, 2)
    assert (V2 * SkewElement.one(ctx3)).act(swap2) == -V2
    assert X2p.act(RowPermutation.identity()) == X2p


def test_group_action_is_algebra_homomorphism(ctx3):
    rng = random.Random(61)
    for _ in range(20):
        u = rand_skew(rng, ctx3)
        v = rand_skew(rng, ctx3)
        g = rand_rowperm(rng, ctx3)
        assert (u * v).act(g) == u.act(g) * v.act(g)
        assert (u + v).act(g) == u.act(g) + v.act(g)


def test_rowperm_group_axioms(ctx3):
    rng = random.Random(67)
    for _ in range(40):
        g = rand_rowperm(rng, ctx3)
        h = rand_rowperm(rng, ctx3)
        k = rand_rowperm(rng, ctx3)
        assert g.compose(h).compose(k) == g.compose(h.compose(k))


def test_action_composition(ctx3):
    rng = random.Random(71)
    for _ in range(20):
        g = rand_rowperm(rng, ctx3)
        h = rand_rowperm(rng, ctx3)
        u = rand_skew(rng, ctx3)
        assert u.act(g.compose(h)) == u.act(h).act(g)


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


def test_alt_generators_are_even():
    ctx = Context.triangle(4)
    for g in alt_generators(ctx):
        assert g.is_even_product
    assert any(not g.is_even_product for g in sym_generators(ctx))


def test_generator_lists():
    """Consecutive transpositions and 3-cycles, row by row and in order."""
    ctx = Context.triangle(4)
    assert sym_generators(ctx) == [
        RowPermutation.transposition(ctx, row, i, i + 1)
        for row in (2, 3, 4) for i in range(1, row)]
    assert alt_generators(ctx) == [
        RowPermutation.cycle(ctx, 3, (1, 2, 3)),
        RowPermutation.cycle(ctx, 4, (1, 2, 3)),
        RowPermutation.cycle(ctx, 4, (2, 3, 4))]
    assert sym_generators(Context.line()) == alt_generators(Context.line()) == []


def test_lattice_span_examples():
    assert supports_generate_group({(1,), (-1,)}, 1)
    assert not supports_generate_group({(2,), (-2,)}, 1)
    assert supports_generate_group({(1, 0), (-1, 0), (1, 1), (-1, -1)}, 2)
    with pytest.raises(ValueError):
        supports_generate_group({(1, 0)}, 2)


def test_ladder_supports_span_lattice(ctx3):
    vecs = set()
    for k in (1, 2):
        for s in (1, -1):
            vecs |= gln.gen_X(ctx3, k, s).support()
    assert supports_generate_group(vecs, ctx3.shift_rank)


def test_lattice_elimination_edge_cases():
    assert lattice_spans_ambient([], 0)
    assert not lattice_spans_ambient([], 1)
    assert lattice_spans_ambient([(2, 1), (1, 1)], 2)
    assert not lattice_spans_ambient([(2, 0), (0, 3)], 2)


def _brute_spans(vectors, rank, box=4):
    # oracle: search bounded integer combinations for every unit vector
    import itertools
    vecs = []
    for v in sorted(set(v for v in vectors if any(v))):
        if tuple(-x for x in v) not in vecs:
            vecs.append(v)
    vecs = vecs[:4]
    if not vecs:
        return rank == 0
    units = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    hit = set()
    for combo in itertools.product(range(-box, box + 1), repeat=len(vecs)):
        v = tuple(sum(c * vec[j] for c, vec in zip(combo, vecs))
                  for j in range(rank))
        if v in units:
            hit.add(v)
    return hit == units


def test_lattice_elimination_against_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        rank = rng.randint(1, 3)
        base = [tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(1, 3))]
        vecs = base + [tuple(-x for x in v) for v in base]
        assert lattice_spans_ambient(vecs, rank) == _brute_spans(base, rank), base


def test_json_roundtrip(ctx3):
    rng = random.Random(73)
    for _ in range(15):
        u = rand_skew(rng, ctx3)
        assert SkewElement.from_json(ctx3, u.to_json()) == u
