import pytest

from skewgt.polys import Context, Poly, vandermonde
from skewgt.ratfunc import RatFunc, linear_factor
from skewgt.skew import SkewElement, commutator, is_invariant
from skewgt import gln


def x(ctx, k, i):
    return Poly.var(ctx, (k, i))


def test_a_coeff_rank1(ctx2):
    a = gln.a_coeff(ctx2, 1, 1, +1)
    assert a.is_poly
    assert a == RatFunc(-(x(ctx2, 2, 1) - x(ctx2, 1, 1)) * (x(ctx2, 2, 2) - x(ctx2, 1, 1)))
    assert gln.a_coeff(ctx2, 1, 1, -1) == RatFunc.one(ctx2)


def test_a_coeff_row2_lowering(ctx3):
    # instance of the defining formula at k=2, i=1
    a = gln.a_coeff(ctx3, 2, 1, -1)
    f, s = linear_factor((2, 2), (2, 1), 0)
    assert a == RatFunc(x(ctx3, 1, 1) - x(ctx3, 2, 1), [f], s)


def test_a_coeff_is_built_in_reduced_form():
    """`a_coeff` skips the trial divisions of the full reduction: for
    every summand at n = 2..6 its fields, value and printed form equal
    those of its own re-reduction and of the defining quotient, expanded
    and then reduced."""
    for n in range(2, 7):
        ctx = Context.triangle(n)
        for k in range(1, n):
            for i in range(1, k + 1):
                for s in (1, -1):
                    a = gln.a_coeff(ctx, k, i, s)
                    num = Poly.one(ctx) * -s
                    for j in range(1, k + s + 1):
                        num = num * (x(ctx, k + s, j) - x(ctx, k, i))
                    den, scale = [], 1
                    for j in range(1, k + 1):
                        if j != i:
                            f, sign = linear_factor((k, j), (k, i), 0)
                            den.append(f)
                            scale *= sign
                    for b in (RatFunc(a.num, a.den, a.scale), RatFunc(num, den, scale)):
                        assert (a.num, a.den, a.scale) == (b.num, b.den, b.scale)
                        assert a == b and str(a) == str(b), (n, k, i, s)


def test_a_coeff_range_errors(ctx3):
    with pytest.raises(ValueError):
        gln.a_coeff(ctx3, 3, 1, +1)
    with pytest.raises(ValueError):
        gln.a_coeff(ctx3, 2, 3, -1)
    with pytest.raises(ValueError):
        gln.a_coeff(ctx3, 2, 1, 2)


def test_diagonal_generators(ctx2):
    assert gln.gen_Xkk(ctx2, 1) == SkewElement.from_coeff(x(ctx2, 1, 1))
    expected = x(ctx2, 2, 1) + x(ctx2, 2, 2) + 1 - x(ctx2, 1, 1)
    assert gln.gen_Xkk(ctx2, 2) == SkewElement.from_coeff(expected)


def test_ladder_sum_decomposition(ctx3):
    for k in (1, 2):
        for s in (1, -1):
            total = SkewElement.zero(ctx3)
            for i in range(1, k + 1):
                total = total + gln.gen_A(ctx3, k, i, s)
            assert total == gln.gen_X(ctx3, k, s)


def test_matrix_unit_images(ctx3):
    assert gln.matrix_unit_image(ctx3, 1, 2) == gln.gen_X(ctx3, 1, +1)
    assert gln.matrix_unit_image(ctx3, 1, 1) == SkewElement.from_coeff(x(ctx3, 1, 1))
    E13 = gln.matrix_unit_image(ctx3, 1, 3)
    E31 = gln.matrix_unit_image(ctx3, 3, 1)
    lhs = commutator(E13, E31)
    rhs = gln.gen_Xkk(ctx3, 1) - gln.gen_Xkk(ctx3, 3)
    assert lhs == rhs


def test_gelfand_invariant_images(ctx2):
    c21 = gln.gelfand_invariant_image(ctx2, 2, 1)
    assert c21 == SkewElement.from_coeff(x(ctx2, 2, 1) + x(ctx2, 2, 2) + 1)
    c22 = gln.gelfand_invariant_image(ctx2, 2, 2)
    assert c22 == SkewElement.from_coeff(
        x(ctx2, 2, 1) ** 2 + x(ctx2, 2, 2) ** 2 + x(ctx2, 2, 1) + x(ctx2, 2, 2))
    e = SkewElement.identity_shift(ctx2)
    for k in (1, 2):
        image = gln.gelfand_invariant_image(ctx2, 2, k)
        assert image.support() == {e}


def test_gelfand_rank1():
    ctx1 = Context.triangle(1)
    c11 = gln.gelfand_invariant_image(ctx1, 1, 1)
    assert c11 == SkewElement.from_coeff(Poly.var(ctx1, (1, 1)))


def test_gelfand_rank3_images_are_central_coefficients(ctx3):
    # images collapse to pure symmetric polynomial coefficients; the
    # defining sum at degree 3 has 27 triple products of matrix-unit images
    for k in (1, 2, 3):
        c = gln.gelfand_invariant_image(ctx3, 3, k)
        assert c.support() == {SkewElement.identity_shift(ctx3)}
        assert gln.membership(c, "Gamma")


def perelomov_popov(ctx, n, k):
    """The Gelfand invariant c_nk as a symmetric function of the top row
    (Perelomov & Popov, 1968), built with RatFunc arithmetic only:
    sum_i m_i^k prod_{j != i} (m_i - m_j - 1)/(m_i - m_j) with
    m_i = x_ni + n - 1."""
    total = RatFunc.zero(ctx)
    for i in range(1, n + 1):
        term = RatFunc(x(ctx, n, i) + (n - 1)) ** k
        for j in range(1, n + 1):
            if j != i:
                f, s = linear_factor((n, i), (n, j), 0)
                term = term * RatFunc(x(ctx, n, i) - x(ctx, n, j) - 1, [f], s)
        total = total + term
    return total


@pytest.mark.parametrize("n, k", [(2, k) for k in range(1, 7)]
                         + [(3, k) for k in range(1, 4)])
def test_gelfand_images_match_perelomov_popov(n, k):
    ctx = Context.triangle(n)
    assert gln.gelfand_invariant_image(ctx, n, k) == \
        SkewElement.from_coeff(perelomov_popov(ctx, n, k))


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 2])
def test_gelfand_images_match_perelomov_popov_rank4(k):
    ctx = Context.triangle(4)
    assert gln.gelfand_invariant_image(ctx, 4, k) == \
        SkewElement.from_coeff(perelomov_popov(ctx, 4, k))


def test_shifted_vandermonde_is_a_shift(ctx3):
    from skewgt.polys import shifted_vandermonde
    for offsets in ([1], [-2], [3]):
        target = shifted_vandermonde(ctx3, 2, offsets)
        # the shift with partial sums of the offsets reproduces it
        shift = {(2, 1): 0, (2, 2): offsets[0]}
        assert vandermonde(ctx3, 2).subs_shift(shift) == target
    v3 = vandermonde(ctx3, 3)
    offs = [2, -1]
    shift = {(3, 1): 0, (3, 2): offs[0], (3, 3): offs[0] + offs[1]}
    assert v3.subs_shift(shift) == shifted_vandermonde(ctx3, 3, offs)


def test_membership(ctx3):
    e21 = SkewElement.from_coeff(x(ctx3, 2, 1) + x(ctx3, 2, 2))
    assert gln.membership(e21, "Gamma")
    V2 = gln.gen_V(ctx3, 2)
    assert gln.membership(V2, "GammaTilde")
    assert not gln.membership(V2, "Gamma")
    prod = gln.gen_A(ctx3, 2, 1, +1) * gln.gen_A(ctx3, 2, 1, -1)
    assert not gln.membership(prod, "GammaTilde")
    assert gln.membership(prod, "S_localized")
    assert not gln.membership(gln.gen_X(ctx3, 1, +1), "Gamma")
    with pytest.raises(ValueError):
        gln.membership(V2, "elsewhere")


def test_registry(ctx3):
    assert gln.element(ctx3, "X2+") == gln.gen_X(ctx3, 2, +1)
    assert gln.element(ctx3, "A21-") == gln.gen_A(ctx3, 2, 1, -1)
    assert gln.element(ctx3, "V3") == gln.gen_V(ctx3, 3)
    assert gln.element(ctx3, "X11") == gln.gen_Xkk(ctx3, 1)
    assert gln.element(ctx3, "c21") == gln.gelfand_invariant_image(ctx3, 2, 1)
    assert gln.element(ctx3, "E13") == gln.matrix_unit_image(ctx3, 1, 3)
    with pytest.raises(KeyError):
        gln.element(ctx3, "nope")
    with pytest.raises(KeyError):
        gln.element(ctx3, "X12")


def test_nested_commutator_intermediate_value(ctx3):
    # the inner bracket of the lowering Serre relation is a pure double
    # inverse shift with right coefficient 1/(x21 - x22); since that
    # carries no first-row variable, the outer bracket vanishes
    inner = commutator(gln.gen_A(ctx3, 1, 1, -1), gln.gen_A(ctx3, 2, 2, -1))
    key = [0] * ctx3.shift_rank
    key[ctx3.shift_pos((1, 1))] = -1
    key[ctx3.shift_pos((2, 2))] = -1
    f, s = linear_factor((2, 1), (2, 2), 0)
    coeff = RatFunc(Poly.one(ctx3), [f], s)
    expected = SkewElement.from_right(ctx3, {tuple(key): coeff})
    assert inner == expected
    assert commutator(gln.gen_A(ctx3, 1, 1, -1), inner).is_zero


def test_invariance_census_small():
    for n in (2, 3):
        ctx = Context.triangle(n)
        for name in gln.generator_names(n):
            u = gln.element(ctx, name)
            assert is_invariant(u, "A"), name
