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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple

from .polys import Context, Poly, VarId, _as_fraction


@dataclass(frozen=True)
class LinearFactor:
    """(x_a - x_b + c) when b is present, else (x_a + c); always a < b."""

    a: VarId
    b: Optional[VarId]
    c: Fraction

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
        val = _as_fraction(point[self.a]) + self.c
        if self.b is not None:
            val = val - _as_fraction(point[self.b])
        return val

    def render(self, ctx: Context) -> str:
        s = ctx.var_name(self.a)
        if self.b is not None:
            s += " - " + ctx.var_name(self.b)
        if self.c > 0:
            s += f" + {self.c}"
        elif self.c < 0:
            s += f" - {-self.c}"
        return "(" + s + ")"


def linear_factor(a: VarId, b: Optional[VarId] = None, c=0) -> Tuple[LinearFactor, int]:
    """Canonicalize a factor; returns (factor, sign) with sign in {+1,-1}.

    (x_a - x_b + c) with a > b is stored as -(x_b - x_a - c).
    """
    c = _as_fraction(c)
    if b is None:
        return LinearFactor(a, None, c), 1
    if a == b:
        raise ValueError("degenerate difference factor")
    if a < b:
        return LinearFactor(a, b, c), 1
    return LinearFactor(b, a, -c), -1


class RatFunc:
    """Reduced rational function with factored denominator."""

    __slots__ = ("num", "den", "scale")

    def __init__(self, num: Poly, den: Iterable[LinearFactor] = (), scale=1):
        scale = _as_fraction(scale)
        den = list(den)
        if num.is_zero or scale == 0:
            self.num = Poly.zero(num.ctx)
            self.den = ()
            self.scale = Fraction(0)
            return
        content, prim = num.content_primitive()
        scale *= content
        kept = []
        for f in den:
            q = prim.exact_div_linear(f.a, f.b, f.c)
            if q is None:
                kept.append(f)
            else:
                content, prim = q.content_primitive()
                scale *= content
        self.num = prim
        self.den = tuple(sorted(kept, key=LinearFactor.sort_key))
        self.scale = scale

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

    def as_poly(self) -> Poly:
        if self.den:
            raise ValueError("nontrivial denominator; not a polynomial")
        return self.num * self.scale

    def den_poly(self) -> Poly:
        out = Poly.one(self.ctx)
        for f in self.den:
            out = out * f.to_poly(self.ctx)
        return out

    def __eq__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return (self.scale == other.scale and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.scale, self.den, self.num))

    def eq_cross(self, other: "RatFunc") -> bool:
        """Equality by cross multiplication, independent of normalization."""
        lhs = self.num * self.scale * other.den_poly()
        rhs = other.num * other.scale * self.den_poly()
        return lhs == rhs

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

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        from collections import Counter
        d1, d2 = Counter(self.den), Counter(other.den)
        common = d1 | d2
        n1 = self.num * self.scale
        n2 = other.num * other.scale
        for f, m in (common - d1).items():
            fp = f.to_poly(self.ctx)
            for _ in range(m):
                n1 = n1 * fp
        for f, m in (common - d2).items():
            fp = f.to_poly(self.ctx)
            for _ in range(m):
                n2 = n2 * fp
        return RatFunc(n1 + n2, common.elements())

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.num = self.num
        out.den = self.den
        out.scale = -self.scale
        return out

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatFunc.zero(self.ctx)
        return RatFunc(self.num * other.num, self.den + other.den,
                       self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be nonnegative integers")
        out = RatFunc.one(self.ctx)
        for _ in range(k):
            out = out * self
        return out

    # -- actions --------------------------------------------------------

    def shifted(self, shift: Mapping[VarId, int]) -> "RatFunc":
        """Apply x_v -> x_v - shift[v]; the factor class is closed under this."""
        if self.is_zero:
            return self
        num = self.num.subs_shift(shift)
        den = [f.shifted(shift) for f in self.den]
        return RatFunc(num, den, self.scale)

    def permuted(self, mapping: Mapping[VarId, VarId]) -> "RatFunc":
        if self.is_zero:
            return self
        num = self.num.permute(mapping)
        sign = 1
        den = []
        for f in self.den:
            g, s = f.permuted(mapping)
            den.append(g)
            sign *= s
        return RatFunc(num, den, self.scale * sign)

    def evaluate(self, point: Mapping[VarId, Fraction]) -> Fraction:
        if self.is_zero:
            return Fraction(0)
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
