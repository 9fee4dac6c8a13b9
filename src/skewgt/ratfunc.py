"""Rational functions whose denominators split into affine-linear factors.

Every denominator that arises in this engine is a product of factors of
the shape (x_a - x_b + c) or (x_a + c) with c an exact rational.  The
class is closed under shifts, row permutations, sums and products, so
reduction never needs a general multivariate gcd: cancelling a factor is
one exact linear division.

A :class:`RatFunc` is stored fully reduced as ``scale * num / prod(den)``
with ``num`` primitive (coprime coefficients, each stored as an ``int``,
positive leading coefficient), ``scale`` a ``Fraction`` and ``den`` a
sorted multiset of canonical factors, which makes structural equality
coincide with mathematical equality.

Canonical factors are monic of degree one in ``x_a``, so two distinct
ones are non-associate primes.  Hence a reduced operand already proves
most factors cannot cancel, and each operation tries only the rest
(Henrici's rule for fractions, Henrici, JACM 3, 1956; Knuth, TAOCP
vol. 2, 4.5.1):

* ``*`` tries the factors of each denominator against the other
  operand's numerator only;
* ``+`` tries only the factors with equal multiplicity in both
  denominators;
* ``shifted`` and ``permuted`` are ring automorphisms over the integers
  and try none.

:class:`RatFunc` itself runs the full reduction, every factor against
the numerator, and is the constructor for outside input.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Tuple

from .polys import Context, Poly, Ring, VarId, _as_fraction, _coeff


class LinearFactor(tuple):
    """(x_a - x_b + c) when b is present, else (x_a + c); always a < b.

    An immutable triple (a, b, c): equality and hash are the tuple's."""

    __slots__ = ()

    def __new__(cls, a: VarId, b: Optional[VarId], c: Fraction):
        return tuple.__new__(cls, (a, b, c))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"LinearFactor(a={self[0]!r}, b={self[1]!r}, c={self[2]!r})"

    def sort_key(self):
        return (self.a, self.b if self.b is not None else (0, 0), self.c)

    def to_poly(self, ctx: Context) -> Poly:
        p = Poly.var(ctx, self.a) + self.c
        if self.b is not None:
            p = p - Poly.var(ctx, self.b)
        return p

    def shifted(self, shift: Mapping[VarId, int]) -> "LinearFactor":
        c = self.c - shift.get(self.a, 0)
        if self.b is not None:
            c = c + shift.get(self.b, 0)
        return LinearFactor(self.a, self.b, c)

    def permuted(self, mapping: Mapping[VarId, VarId]) -> Tuple["LinearFactor", int]:
        a = mapping.get(self.a, self.a)
        if self.b is None:
            return LinearFactor(a, None, self.c), 1
        b = mapping.get(self.b, self.b)
        return linear_factor(a, b, self.c)

    def evaluate(self, point: Mapping[VarId, Fraction]) -> Fraction:
        val = _coeff(point[self.a])
        if self.b is not None:
            val -= _coeff(point[self.b])
        return val + self.c

    def render(self, ctx: Context) -> str:
        s = ctx.var_name(self.a)
        if self.b is not None:
            s += " - " + ctx.var_name(self.b)
        if self.c > 0:
            s += f" + {self.c}"
        elif self.c < 0:
            s += f" - {-self.c}"
        return "(" + s + ")"


def linear_factor(a: VarId, b: VarId, c=0) -> Tuple[LinearFactor, int]:
    """Canonicalize (x_a - x_b + c); returns (factor, sign) with sign in {+1,-1}.

    With a > b it is stored as -(x_b - x_a - c); (x_a + c) is already
    canonical as `LinearFactor(a, None, c)`."""
    c = _as_fraction(c)
    if a == b:
        raise ValueError("degenerate difference factor")
    if a < b:
        return LinearFactor(a, b, c), 1
    return LinearFactor(b, a, -c), -1


def _cancel(prim: Poly, factors, scale: Fraction):
    """Divide the primitive ``prim`` by each of ``factors`` that divides it.

    ``factors`` lists equal factors next to each other; once a copy
    fails, the rest of its run is kept untried (a factor that does not
    divide ``prim`` does not divide a quotient of it either).  Returns
    ``(scale, prim, kept)`` with the contents of the quotients folded
    into ``scale`` and the factors that did not cancel in ``kept``.
    """
    kept = []
    missed = None
    for f in factors:
        if f != missed:
            q = prim.exact_div_linear(f.a, f.b, f.c)
            if q is not None:
                content, prim = q.content_primitive()
                scale *= content
                continue
            missed = f
        kept.append(f)
    return scale, prim, kept


class RatFunc(Ring):
    """Reduced rational function with factored denominator."""

    __slots__ = ("num", "den", "scale")

    def __init__(self, num: Poly, den: Iterable[LinearFactor] = (), scale=1):
        """Full reduction of outside input: every factor of ``den`` is
        tried against the numerator."""
        scale = _as_fraction(scale)
        if num.is_zero or scale == 0:
            self.num = Poly.zero(num.ctx)
            self.den = ()
            self.scale = Fraction(0)
            return
        content, prim = num.content_primitive()
        den = sorted(den, key=LinearFactor.sort_key)
        self.scale, self.num, kept = _cancel(prim, den, scale * content)
        self.den = tuple(kept)

    @staticmethod
    def _reduced(num: Poly, den: Iterable[LinearFactor], scale: Fraction) -> "RatFunc":
        """Trusted constructor for a value already in normal form but for
        the order of ``den``: ``num`` is primitive with a positive
        leading coefficient, no factor of ``den`` divides it and
        ``scale`` is a Fraction.  Only sorts ``den``."""
        out = object.__new__(RatFunc)
        out.num = num
        out.den = tuple(sorted(den, key=LinearFactor.sort_key))
        out.scale = scale
        return out

    # -- constructors -------------------------------------------------

    @property
    def ctx(self) -> Context:
        return self.num.ctx

    @staticmethod
    def zero(ctx: Context) -> "RatFunc":
        return RatFunc(Poly.zero(ctx))

    @staticmethod
    def one(ctx: Context) -> "RatFunc":
        return RatFunc(Poly.one(ctx))

    @staticmethod
    def const(ctx: Context, value) -> "RatFunc":
        return RatFunc(Poly.const(ctx, value))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.scale == 0

    @property
    def is_poly(self) -> bool:
        return not self.den

    def __eq__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return (self.scale == other.scale and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.scale, self.den, self.num))

    # -- arithmetic -----------------------------------------------------

    def _promote(self, other) -> Optional["RatFunc"]:
        if isinstance(other, RatFunc):
            if other.ctx != self.ctx:
                raise ValueError("rational functions from different universes")
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.ctx, other)
        return None

    def _add(self, other: "RatFunc") -> "RatFunc":
        """Sum over the lcm of the denominators.

        Only a factor f with the same multiplicity m in both
        denominators is tried, at most m times.  If f has multiplicity
        m1 > m2 (m2 possibly 0), the lcm carries f^m1, so the cofactor
        of the second numerator holds f and the sum is congruent mod f
        to the first numerator times a product of other factors; f
        divides neither, since the first operand is reduced and distinct
        canonical factors are non-associate primes.
        """
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        ctx = self.ctx
        d1, d2 = Counter(self.den), Counter(other.den)
        # integer scales over the common denominator g of the two scales
        s1, s2 = self.scale, other.scale
        g = math.lcm(s1.denominator, s2.denominator)
        k1 = s1.numerator * (g // s1.denominator)
        k2 = s2.numerator * (g // s2.denominator)
        n1 = self.num if k1 == 1 else self.num * k1
        n2 = other.num if k2 == 1 else other.num * k2
        for f, m in (d2 - d1).items():
            fp = f.to_poly(ctx)
            for _ in range(m):
                n1 = n1 * fp
        for f, m in (d1 - d2).items():
            fp = f.to_poly(ctx)
            for _ in range(m):
                n2 = n2 * fp
        total = n1 + n2
        if total.is_zero:
            return RatFunc.zero(ctx)
        content, prim = total.content_primitive()
        # self.den is sorted, so the copies of each tried factor are adjacent
        tried = [f for f in self.den if d1[f] == d2[f]]
        rest = [f for f in (d1 | d2).elements() if d1[f] != d2[f]]
        scale, prim, kept = _cancel(prim, tried, content / g)
        return RatFunc._reduced(prim, rest + kept, scale)

    def __neg__(self):
        return RatFunc._reduced(self.num, self.den, -self.scale)

    def _mul(self, other: "RatFunc") -> "RatFunc":
        """Cross-cancel, then multiply the numerators.

        The factors of ``other.den`` are tried against ``self.num`` only,
        and those of ``self.den`` against ``other.num`` only: each
        operand is reduced and a linear factor is prime, so no factor
        divides the numerator over its own denominator.  The two
        primitive quotients multiply to a primitive numerator (Gauss's
        lemma) whose leading coefficient is positive (grlex is a
        monomial order), so the product itself is never divided.
        """
        if self.is_zero or other.is_zero:
            return RatFunc.zero(self.ctx)
        scale, n1, kept1 = _cancel(self.num, other.den, self.scale * other.scale)
        scale, n2, kept2 = _cancel(other.num, self.den, scale)
        return RatFunc._reduced(n1 * n2, kept1 + kept2, scale)

    # -- actions --------------------------------------------------------

    def shifted(self, shift: Mapping[VarId, int]) -> "RatFunc":
        """Apply x_v -> x_v - shift[v]; the factor class is closed under this.

        An integer shift is a ring automorphism of Z[x] that keeps the
        top-degree part, so the shifted numerator is still primitive
        with the same leading term, and no shifted factor divides it.
        Nothing is divided; the shifted factors are only re-sorted.
        """
        if self.is_zero or not shift:
            return self
        num = self.num.subs_shift(shift)
        den = [f.shifted(shift) for f in self.den]
        return RatFunc._reduced(num, den, self.scale)

    def permuted(self, mapping: Mapping[VarId, VarId]) -> "RatFunc":
        """Rename variables by ``mapping``, a bijection within rows.

        A renaming is a ring automorphism that keeps the coefficients,
        so the numerator stays primitive and no factor divides it;
        nothing is divided.  It can move the leading term, so the sign
        is renormalized: a negative leading coefficient negates the
        numerator and the scale.
        """
        if self.is_zero:
            return self
        num = self.num.permute(mapping)
        scale = self.scale
        den = []
        for f in self.den:
            g, s = f.permuted(mapping)
            den.append(g)
            if s < 0:
                scale = -scale
        if num.leading()[1] < 0:
            num = -num
            scale = -scale
        return RatFunc._reduced(num, den, scale)

    def evaluate(self, point: Mapping[VarId, Fraction]) -> Fraction:
        """The value at a point, a Fraction: the numerators and the
        denominators of the scale, the numerator value and the factor
        values are multiplied as ints and divided once."""
        if self.is_zero:
            return Fraction(0)
        val = self.num.evaluate(point)
        num = self.scale.numerator * val.numerator
        den = self.scale.denominator * val.denominator
        for f in self.den:
            d = f.evaluate(point)
            if d == 0:
                raise ZeroDivisionError(
                    f"denominator factor {f.render(self.ctx)} vanishes at the point")
            num *= d.denominator
            den *= d.numerator
        return Fraction(num, den)

    # -- i/o --------------------------------------------------------------

    def to_json(self) -> dict:
        num = [{"exps": {self.ctx.var_key(self.ctx.vars[p]): e
                         for p, e in enumerate(exps) if e},
                "coeff": str(coeff)}
               for exps, coeff in self.num.sorted_terms()]
        den = [{"a": self.ctx.var_key(f.a),
                **({"b": self.ctx.var_key(f.b)} if f.b is not None else {}),
                "c": str(f.c)}
               for f in self.den]
        return {"num": num, "den": den, "scale": str(self.scale)}

    @staticmethod
    def from_json(ctx: Context, data: dict) -> "RatFunc":
        def parse_var(s: str) -> VarId:
            k, i = s.split(",")
            return (int(k), int(i))

        terms = {}
        for entry in data["num"]:
            exps = [0] * len(ctx.vars)
            for key, e in entry["exps"].items():
                exps[ctx.var_pos(parse_var(key))] = int(e)
            terms[tuple(exps)] = Fraction(entry["coeff"])
        den = []
        for entry in data["den"]:
            b = parse_var(entry["b"]) if "b" in entry else None
            den.append(LinearFactor(parse_var(entry["a"]), b, Fraction(entry["c"])))
        return RatFunc(Poly(ctx, terms), den, Fraction(data["scale"]))

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.is_poly and self.scale == 1:
            return str(self.num)
        num = str(self.num)
        if self.scale != 1:
            num = f"{self.scale}*({num})" if num != "1" else str(self.scale)
        elif self.den:
            num = f"({num})"
        if not self.den:
            return num
        return num + " / " + "".join(f.render(self.ctx) for f in self.den)

    __repr__ = __str__
