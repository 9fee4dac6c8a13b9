"""Rational functions whose denominators split into affine-linear factors.

Every denominator that arises in this engine is a product of factors of
the shape (x_a - x_b + c) or (x_a + c) with c an exact rational.  The
class is closed under shifts, row permutations, sums and products, so
reduction never needs a general multivariate gcd: cancelling a factor is
one exact linear division.

A :class:`RatFunc` is stored fully reduced as ``scale * num / prod(den)``
with ``num`` primitive (coprime coefficients, each stored as an ``int``,
positive leading coefficient) and ``den`` a sorted multiset of canonical
factors, which makes structural equality coincide with mathematical
equality.  ``scale`` and each factor's constant ``c`` are stored as
``polys._coeff`` stores a coefficient: an ``int`` when integral, else a
``Fraction`` with denominator > 1.  Most scales are integral, so most
products, sums, shifts and factor lookups run in int arithmetic.

Canonical factors are monic of degree one in ``x_a``, so two distinct
ones are non-associate primes.  Hence a reduced operand already proves
most factors cannot cancel, and each operation tries only the rest
(Henrici's rule for fractions, Henrici, JACM 3, 1956; Knuth, TAOCP
vol. 2, 4.5.1):

* ``*`` tries the factors of each denominator against the other
  operand's numerator only;
* ``RatFunc.sum`` tries only the factors whose top multiplicity in the
  lcm is reached by two or more operands; ``+`` is its sum of two, which
  tries only the factors with equal multiplicity in both denominators;
* ``shifted`` and ``permuted`` are ring automorphisms over the integers
  and try none.

:class:`RatFunc` itself runs the full reduction, every factor against
the numerator, and is the constructor for outside input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Tuple, Union

from .polys import Context, Poly, Ring, VarId, _add_into, _coeff


class LinearFactor(tuple):
    """(x_a - x_b + c) when b is present, else (x_a + c); always a < b.

    An immutable triple (a, b, c): equality and hash are the tuple's.
    ``c`` is normalized here, on every path that makes a factor: an int
    when integral, else a Fraction; a float raises TypeError."""

    __slots__ = ()

    def __new__(cls, a: VarId, b: Optional[VarId], c: Union[int, Fraction]):
        return tuple.__new__(cls, (a, b, c if type(c) is int else _coeff(c)))

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

    def evaluate(self, point: Mapping[VarId, Fraction]) -> Union[int, Fraction]:
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
    c = _coeff(c)
    if a == b:
        raise ValueError("degenerate difference factor")
    if a < b:
        return LinearFactor(a, b, c), 1
    return LinearFactor(b, a, -c), -1


def _cancel(prim: Poly, factors, scale):
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
        tried against the numerator.  ``scale`` is an int or a Fraction
        (a float raises TypeError) and is stored by ``_coeff``'s rule;
        zero has scale 0."""
        scale = _coeff(scale)
        if num.is_zero or scale == 0:
            self.num = Poly.zero(num.ctx)
            self.den = ()
            self.scale = 0
            return
        content, prim = num.content_primitive()
        den = sorted(den, key=LinearFactor.sort_key)
        scale, self.num, kept = _cancel(prim, den, scale * content)
        self.scale = scale if type(scale) is int else _coeff(scale)
        self.den = tuple(kept)

    @staticmethod
    def _reduced(num: Poly, den: Iterable[LinearFactor], scale) -> "RatFunc":
        """Trusted constructor for a value already in normal form but for
        the order of ``den`` and the type of ``scale``: ``num`` is
        primitive with a positive leading coefficient, no factor of
        ``den`` divides it and ``scale`` is a nonzero int or Fraction.
        Only sorts ``den`` and stores an integral ``scale`` as an int (a
        product of Fractions can be integral)."""
        out = object.__new__(RatFunc)
        out.num = num
        out.den = tuple(sorted(den, key=LinearFactor.sort_key))
        out.scale = scale if type(scale) is int else _coeff(scale)
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
        """The sum of two, by ``RatFunc.sum``'s rule."""
        return RatFunc.sum(self.ctx, (self, other))

    @staticmethod
    def sum(ctx: Context, terms: Iterable["RatFunc"]) -> "RatFunc":
        """The sum of ``terms`` over the lcm of their denominators.

        A factor f of top multiplicity m (in the lcm) is tried, at most
        m times, only if two operands reach m: were it one, every other
        cofactor would hold f, and f divides neither that operand's
        numerator nor its cofactor.  Each numerator is multiplied once,
        by the product of the powers of the factors it lacks."""
        terms = [t for t in terms if not t.is_zero]
        if len(terms) < 2:
            return terms[0] if terms else RatFunc.zero(ctx)
        dens = []
        top: dict = {}  # factor -> [top multiplicity, operands that reach it]
        for t in terms:
            d: dict = {}
            for f in t.den:
                d[f] = d.get(f, 0) + 1
            dens.append(d)
            for f, m in d.items():
                r = top.get(f)
                if r is None or m > r[0]:
                    top[f] = [m, 1]
                elif m == r[0]:
                    r[1] += 1
        g = math.lcm(*[t.scale.denominator for t in terms])
        total = None
        for t, d in zip(terms, dens):
            k = t.scale.numerator * (g // t.scale.denominator)
            cofactor = None
            for f, (m, _) in top.items():
                e = m - d.get(f, 0)
                if e:
                    p = f.to_poly(ctx) ** e
                    cofactor = p if cofactor is None else cofactor * p
            num = t.num
            if cofactor is not None:
                # the integer scale rides on the small cofactor
                num = num * (cofactor if k == 1 else cofactor * k)
            elif k != 1:
                num = num * k
            if total is None:
                total = dict(num.terms)
            else:
                _add_into(total, num.terms)
        total = Poly._from_packed(ctx, total)
        if total.is_zero:
            return RatFunc.zero(ctx)
        content, prim = total.content_primitive()
        tried, rest = [], []
        for f, (m, reached) in top.items():
            (tried if reached > 1 else rest).extend([f] * m)
        # content and g may both be ints, and int / int is a float
        scale, prim, kept = _cancel(prim, tried, content if g == 1 else Fraction(content) / g)
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
        """Rename variables by ``mapping``, a bijection within rows;
        ``Poly.permute`` refuses any other mapping with ValueError.

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
        """The value at a point, always a Fraction: scale times the
        numerator's value over each factor's value, in plain Fraction
        arithmetic, which suffices as for `Poly.evaluate`.  Zero takes
        the same path, so an inexact coordinate raises TypeError there
        too; a factor that vanishes at the point raises ZeroDivisionError."""
        val = self.scale * self.num.evaluate(point)
        for f in self.den:
            d = f.evaluate(point)
            if d == 0:
                raise ZeroDivisionError(
                    f"denominator factor {f.render(self.ctx)} vanishes at the point")
            val /= d
        return val

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
