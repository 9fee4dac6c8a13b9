"""The named elements of the shift realization of gl_n and its extension.

Everything is built inside the skew ring over the triangular variables:
ladder sums X_k+/-, diagonal elements X_kk, row Vandermondes V_k, the
single-shift summands A_ki+/-, images of arbitrary matrix units via
nested commutators, and Gelfand invariant images.  A small string
registry ("X2+", "V3", "A21-", "c22", "E13") addresses all of them.

Conventions, fixed once:
  * a(k,i,+1) = -prod_{j<=k+1}(x_{k+1,j}-x_ki) / prod_{j!=i}(x_kj-x_ki)
  * a(k,i,-1) = +prod_{j<=k-1}(x_{k-1,j}-x_ki) / prod_{j!=i}(x_kj-x_ki)
  * X_k^s = sum_i d_ki^s a(k,i,s), with the coefficient written on the
    right of the shift; X_kk = sum_j (x_kj+j-1) - sum_i (x_{k-1,i}+i-1)
  * V_k = prod_{i<j} (x_ki - x_kj)
  * A_ki^s = d_ki^s a(k,i,s), so X_k^s = sum_i A_ki^s
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from .polys import Context, Poly, quote, vandermonde
from .ratfunc import RatFunc, linear_factor
from .skew import SkewElement, commutator, is_invariant


def triangle(n: int) -> Context:
    return Context.triangle(n)


def a_coeff(ctx: Context, k: int, i: int, sign: int) -> RatFunc:
    """The rational coefficient attached to the shift d_ki in X_k^sign."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not (1 <= i <= k <= ctx.n - 1):
        raise ValueError(f"a({k},{i}) needs 1 <= i <= k <= n-1 = {ctx.n - 1}")
    src = k + sign
    num = Poly.one(ctx)
    for j in range(1, src + 1):
        num = num * (Poly.var(ctx, (src, j)) - Poly.var(ctx, (k, i)))
    den = []
    scale = Fraction(-sign)
    for j in range(1, k + 1):
        if j != i:
            f, s = linear_factor((k, j), (k, i), 0)
            den.append(f)
            scale *= s
    return RatFunc(num, den, scale)


def gen_X(ctx: Context, k: int, sign: int) -> SkewElement:
    """Ladder element X_k^sign = sum_i d_ki^sign a(k,i,sign)."""
    if not (1 <= k <= ctx.n - 1):
        raise ValueError(f"X{k}{'+' if sign > 0 else '-'} out of range for "
                         f"n={ctx.n}: needs 1 <= k <= n-1 = {ctx.n - 1}")
    return sum((gen_A(ctx, k, i, sign) for i in range(1, k + 1)),
               SkewElement.zero(ctx))


def gen_A(ctx: Context, k: int, i: int, sign: int) -> SkewElement:
    """Single-shift summand A_ki^sign = d_ki^sign a(k,i,sign)."""
    if not (1 <= i <= k <= ctx.n - 1):
        raise ValueError(f"A{k}{i}{'+' if sign > 0 else '-'} out of range for "
                         f"n={ctx.n}: needs 1 <= i <= k <= n-1 = {ctx.n - 1}")
    key = [0] * ctx.shift_rank
    key[ctx.shift_pos((k, i))] = sign
    return SkewElement.from_right(ctx, {tuple(key): a_coeff(ctx, k, i, sign)})


def gen_Xkk(ctx: Context, k: int) -> SkewElement:
    if not (1 <= k <= ctx.n):
        raise ValueError(f"X{k}{k} out of range for n={ctx.n}")
    p = Poly.zero(ctx)
    for j in range(1, k + 1):
        p = p + Poly.var(ctx, (k, j)) + (j - 1)
    for i in range(1, k):
        p = p - (Poly.var(ctx, (k - 1, i)) + (i - 1))
    return SkewElement.from_coeff(p)


def gen_V(ctx: Context, k: int) -> SkewElement:
    if not (2 <= k <= ctx.n):
        raise ValueError(f"V{k} out of range for n={ctx.n}")
    return SkewElement.from_coeff(vandermonde(ctx, k))


def matrix_unit_image(ctx: Context, i: int, j: int) -> SkewElement:
    """Image of the matrix unit E_ij, extended off the generator set by
    nested commutators along a shortest index path."""
    if not (1 <= i <= ctx.n and 1 <= j <= ctx.n):
        raise ValueError(f"E{i}{j} out of range for n={ctx.n}")
    if i == j:
        return gen_Xkk(ctx, i)
    if j == i + 1:
        return gen_X(ctx, i, +1)
    if j == i - 1:
        return gen_X(ctx, j, -1)
    if i < j:
        return commutator(matrix_unit_image(ctx, i, i + 1),
                          matrix_unit_image(ctx, i + 1, j))
    return commutator(matrix_unit_image(ctx, i, i - 1),
                      matrix_unit_image(ctx, i - 1, j))


# Most index tuples a Gelfand image may sum: c_{rank,k} sums rank^k
# products of k matrix-unit images, so c43 fits and c99 (9^9) does not.
MAX_GELFAND_TUPLES = 64


def gelfand_invariant_image(ctx: Context, rank: int, k: int) -> SkewElement:
    """Image of the degree-k Gelfand invariant of gl_rank: the sum of
    E_{i1 i2} E_{i2 i3} ... E_{ik i1} over all index tuples in [rank]^k,
    refused before any work if there are over MAX_GELFAND_TUPLES."""
    if rank > ctx.n:
        raise ValueError(f"rank {rank} exceeds context n={ctx.n}")
    if k < 1:
        raise ValueError("invariant degree must be >= 1")
    if rank ** k > MAX_GELFAND_TUPLES:
        raise ValueError(f"c{rank}{k} sums {rank}^{k} = {rank ** k} index tuples, "
                         f"over the budget of {MAX_GELFAND_TUPLES}")
    units = {}
    for a in range(1, rank + 1):
        for b in range(1, rank + 1):
            units[(a, b)] = matrix_unit_image(ctx, a, b)
    total = SkewElement.zero(ctx)
    for tup in itertools.product(range(1, rank + 1), repeat=k):
        prod = units[(tup[0], tup[1 % k])]
        for pos in range(1, k):
            prod = prod * units[(tup[pos], tup[(pos + 1) % k])]
        total = total + prod
    return total


_NAME_RE = re.compile(
    r"^(?:"
    r"X(?P<xk>[1-9])(?P<xsign>[+-])"
    r"|X(?P<dk1>[1-9])(?P<dk2>[1-9])"
    r"|V(?P<vk>[1-9])"
    r"|A(?P<ak>[1-9])(?P<ai>[1-9])(?P<asign>[+-])"
    r"|c(?P<cn>[1-9])(?P<ck>[1-9])"
    r"|E(?P<ei>[1-9])(?P<ej>[1-9])"
    r")$")


def element(ctx: Context, name: str) -> SkewElement:
    """Look up a named element; raises KeyError for unknown names."""
    m = _NAME_RE.match(name)
    if not m:
        raise KeyError(f"unknown element name {quote(name)}")
    d = m.groupdict()
    if d["xk"] is not None:
        return gen_X(ctx, int(d["xk"]), +1 if d["xsign"] == "+" else -1)
    if d["dk1"] is not None:
        if d["dk1"] != d["dk2"]:
            raise KeyError(f"{quote(name)}: only diagonal X_kk elements are named")
        return gen_Xkk(ctx, int(d["dk1"]))
    if d["vk"] is not None:
        return gen_V(ctx, int(d["vk"]))
    if d["ak"] is not None:
        return gen_A(ctx, int(d["ak"]), int(d["ai"]), +1 if d["asign"] == "+" else -1)
    if d["cn"] is not None:
        return gelfand_invariant_image(ctx, int(d["cn"]), int(d["ck"]))
    return matrix_unit_image(ctx, int(d["ei"]), int(d["ej"]))


def generator_names(n: int) -> list:
    """Registry keys of the defining generators for rank n."""
    names = [f"X{k}{k}" for k in range(1, n + 1)]
    names += [f"X{k}+" for k in range(1, n)]
    names += [f"X{k}-" for k in range(1, n)]
    names += [f"V{k}" for k in range(2, n + 1)]
    return names


def membership(u: SkewElement, which: str) -> bool:
    """Membership tests for the three coefficient rings of interest.

    Gamma: identity-shift support, polynomial coefficient, invariant
    under the product of symmetric groups.  GammaTilde: same but under
    the product of alternating groups.  S_localized: identity-shift
    support, every denominator factor an integer-shifted same-row
    difference with row <= n-1, invariant under the alternating product.
    """
    if u.is_zero:
        return True
    e = SkewElement.identity_shift(u.ctx)
    if u.support() != frozenset({e}):
        return False
    coeff = u.identity_coefficient()
    if which == "Gamma":
        return coeff.is_poly and is_invariant(u, "S")
    if which == "GammaTilde":
        return coeff.is_poly and is_invariant(u, "A")
    if which == "S_localized":
        for f in coeff.den:
            if f.b is None or f.a[0] != f.b[0]:
                return False
            if f.a[0] > u.ctx.n - 1:
                return False
            if f.c.denominator != 1:
                return False
        return is_invariant(u, "A")
    raise ValueError(f"unknown membership target {which!r}")
