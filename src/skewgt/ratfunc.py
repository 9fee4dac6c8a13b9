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

The numerator is kept as ``parts``: primitive, nonconstant polynomials
with positive leading coefficients, none divisible by a factor of
``den``, whose product is ``num`` (Gauss's lemma keeps the product
primitive, and a monomial order its leading coefficient positive).  The
generator coefficients are products of linear forms, and so are most
numerators a product meets, so a product joins two lists of small parts
where it would multiply and divide two expanded numerators.  ``num`` is
the parts multiplied out on each read, and nothing keeps it: printing,
``to_json`` and ``hash`` read it, so the parts show in no printed form,
and ``==`` compares what is left of two numerators once the parts they
share are cancelled.  No ``RatFunc`` changes once it is built.

Canonical factors are monic of degree one in ``x_a``, so two distinct
ones are non-associate primes, and a factor divides a product of parts
exactly when it divides one of them.  Cancellation is one plain loop,
``_cancel``: each factor is tried against the parts in order and
cancels from the first it divides, or is kept; a factor that fails on a
part fails on every quotient of it, so the order of the factors does
not matter.  A reduced operand already proves most factors cannot
cancel, and each operation hands ``_cancel`` only the rest (Henrici's
rule for fractions, Henrici, JACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1):

* ``*`` tries the factors of each denominator against the other
  operand's parts only;
* ``RatFunc.sum`` keeps the parts every operand shares and multiplies
  out the rest into one new part, on plain term maps: operands over one
  denominator add their numerators into one map, which is multiplied
  by the powers of the factors they lack once, and every product
  accumulates straight into its map.  It tries against the
  new part only the factors whose top multiplicity in the lcm is
  reached by two or more operands; ``+`` is its sum of two, which tries
  only the factors with equal multiplicity in both denominators;
* ``shifted`` and ``permuted`` are ring automorphisms over the integers,
  map each part and try none.

:class:`RatFunc` itself runs the full reduction, every factor against
the numerator as one part, and is the constructor for outside input.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Tuple, Union

from .polys import Context, Poly, Ring, VarId, _add_into, _coeff, _mul_terms


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
        units = ctx._units
        terms = {units[ctx.var_pos(self.a)]: 1, 0: self.c}
        if self.b is not None:
            terms[units[ctx.var_pos(self.b)]] = -1
        return Poly._from_packed(ctx, terms)

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


def _cancel(parts, factors, scale):
    """Divide the product of ``parts`` by each of ``factors`` that divides it.

    A canonical factor is prime, so it divides the product exactly when
    it divides one part: each factor, of either kind, is tried against
    the parts in order through `Poly.exact_div_linear` and cancels from
    the first it divides, or is kept.  The screens there turn away most
    parts a factor does not divide: a difference in one scan of the
    part's kept top-degree terms, and (x_a + c) with an integral c by
    three remainders of the part's kept values at 0, (1, ..., 1) and
    (-1, ..., -1).
    Returns ``(scale, parts, kept)``: the contents of the quotients
    folded into ``scale``, a constant quotient dropped from the parts,
    and the factors that did not cancel in ``kept``.
    """
    parts = list(parts)
    kept = []
    for f in factors:
        for i, p in enumerate(parts):
            q = p.exact_div_linear(*f)
            if q is not None:
                content, q = q.content_primitive()
                scale *= content
                if q.degree() > 0:
                    parts[i] = q
                else:
                    del parts[i]
                break
        else:
            kept.append(f)
    return scale, parts, kept


def _expand(ctx: Context, maps, k=1, out: Optional[dict] = None) -> dict:
    """Add ``k`` times the product of the term maps ``maps`` into ``out``,
    or into a fresh map when ``out`` is None, and return it.

    The chain runs smallest first on plain term maps, with the integer
    ``k`` on the smallest, and its last product accumulates straight
    into ``out`` (`polys._mul_terms`), so no intermediate polynomial is
    built and no second pass adds the product in.  No map of ``maps``
    is changed; zero sums are kept for `Poly._from_packed` to drop."""
    maps = sorted(maps, key=len)
    if not maps:
        return _add_into({} if out is None else out, {0: k})
    acc = maps[0] if k == 1 else {e: c * k for e, c in maps[0].items()}
    if len(maps) == 1:
        return dict(acc) if out is None else _add_into(out, acc)
    for m in maps[1:-1]:
        acc = _mul_terms(ctx, acc, m)
    return _mul_terms(ctx, acc, maps[-1], out)


def _product(ctx: Context, polys) -> Poly:
    """The product of ``polys``; a single one is returned as it is."""
    polys = list(polys)
    if len(polys) == 1:
        return polys[0]
    return Poly._from_packed(ctx, _expand(ctx, [p.terms for p in polys]))


class RatFunc(Ring):
    """Reduced rational function with factored denominator."""

    __slots__ = ("ctx", "parts", "den", "scale")

    def __init__(self, num: Poly, den: Iterable[LinearFactor] = (), scale=1):
        """Full reduction of outside input into one part: every factor of
        ``den`` is tried against the numerator.  ``scale`` is an int or a
        Fraction (a float raises TypeError) and is stored by ``_coeff``'s
        rule; zero has scale 0."""
        scale = _coeff(scale)
        ctx = num.ctx
        if num.is_zero or scale == 0:
            self._own(ctx, (), (), 0)
            return
        content, prim = num.content_primitive()
        scale, parts, kept = _cancel([prim] if prim.degree() > 0 else [], den, scale * content)
        self._own(ctx, parts, kept, scale)

    def _own(self, ctx: Context, parts, den, scale):
        self.ctx = ctx
        self.parts = tuple(parts)
        self.den = tuple(sorted(den, key=LinearFactor.sort_key))
        self.scale = scale if type(scale) is int else _coeff(scale)

    @staticmethod
    def _from_parts(ctx: Context, parts, den: Iterable[LinearFactor], scale) -> "RatFunc":
        """Trusted constructor for a value already in normal form but for
        the order of ``den`` and the type of ``scale``: each of ``parts``
        is primitive, nonconstant, with a positive leading coefficient,
        no factor of ``den`` divides any of them, and ``scale`` is a
        nonzero int or Fraction.  Only sorts ``den`` and stores an
        integral ``scale`` as an int (a product of Fractions can be
        integral).  A single part may be an expanded numerator, which
        `num` then returns as it is."""
        out = object.__new__(RatFunc)
        out._own(ctx, parts, den, scale)
        return out

    # -- constructors -------------------------------------------------

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
    def num(self) -> Poly:
        """The numerator expanded: the product of the parts, multiplied out
        on each read and not kept; zero has the zero polynomial."""
        if self.scale == 0:
            return Poly.zero(self.ctx)
        return _product(self.ctx, self.parts)

    @property
    def is_zero(self) -> bool:
        return self.scale == 0

    @property
    def is_poly(self) -> bool:
        return not self.den

    def __eq__(self, other):
        """Equal scales, factors and numerators.  Z[x] has no zero
        divisors, so the parts both numerators have are cancelled first,
        and only the rest is multiplied out (none, when the parts agree)."""
        other = self._promote(other)
        if other is None:
            return NotImplemented
        if self.scale != other.scale or self.den != other.den:
            return False
        mine, theirs = Counter(self.parts), Counter(other.parts)
        return (_product(self.ctx, (mine - theirs).elements())
                == _product(self.ctx, (theirs - mine).elements()))

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

        The parts every operand has are kept as they are; the rest is
        multiplied out on plain term maps into one new primitive part.
        The operands are grouped by denominator, and each group is one
        loop over its members' other parts (times their integer
        scales), each product accumulating straight into a map
        (`_expand`): the running total when the group lacks no factor
        of the lcm, else a fresh map, which is then multiplied by the
        powers of the factors the group lacks once, into the total.  A
        factor f of top multiplicity m (in the lcm) is tried against the
        new part, at most m times, only if two operands reach m: were it
        one, every other cofactor would hold f, and f divides neither
        that operand's numerator nor its cofactor.  No factor is tried
        against a shared part: every factor sits below some operand, and
        that operand has the shared parts among its own, none of which
        its factors divide."""
        terms = [t for t in terms if not t.is_zero]
        if len(terms) < 2:
            return terms[0] if terms else RatFunc.zero(ctx)
        groups: dict = {}  # den -> the operands over it
        for t in terms:
            groups.setdefault(t.den, []).append(t)
        dens = []
        top: dict = {}  # factor -> [top multiplicity, operands that reach it]
        for den, group in groups.items():
            d: dict = {}
            for f in den:
                d[f] = d.get(f, 0) + 1
            dens.append(d)
            for f, m in d.items():
                r = top.get(f)
                if r is None or m > r[0]:
                    top[f] = [m, len(group)]
                elif m == r[0]:
                    r[1] += len(group)
        shared = Counter(terms[0].parts)
        for t in terms[1:]:
            if not shared:
                break
            shared &= Counter(t.parts)
        g = math.lcm(*[t.scale.denominator for t in terms])

        def own(t):
            # the operand's parts outside the shared ones, and its integer scale
            polys = (Counter(t.parts) - shared).elements() if shared else t.parts
            return [p.terms for p in polys], t.scale.numerator * (g // t.scale.denominator)

        total = None
        for group, d in zip(groups.values(), dens):
            cofactor = [(f.to_poly(ctx) ** e).terms
                        for f, (m, _) in top.items() if (e := m - d.get(f, 0))]
            acc = None if cofactor else total
            for t in group:
                acc = _expand(ctx, *own(t), acc)
            if not cofactor:
                total = acc
            elif acc := Poly._from_packed(ctx, acc).terms:
                total = _expand(ctx, [acc] + cofactor, 1, total)
        total = Poly._from_packed(ctx, total or {})
        if total.is_zero:
            return RatFunc.zero(ctx)
        content, prim = total.content_primitive()
        tried, rest = [], []
        for f, (m, reached) in top.items():
            (tried if reached > 1 else rest).extend([f] * m)
        # content and g may both be ints, and int / int is a float
        scale, parts, kept = _cancel([prim] if prim.degree() > 0 else [], tried,
                                     content if g == 1 else Fraction(content) / g)
        return RatFunc._from_parts(ctx, list(shared.elements()) + parts, rest + kept, scale)

    def __neg__(self):
        return RatFunc._from_parts(self.ctx, self.parts, self.den, -self.scale)

    def _mul(self, other: "RatFunc") -> "RatFunc":
        """Cross-cancel, then join the parts.

        The factors of ``other.den`` are tried against the parts of
        ``self`` only, and those of ``self.den`` against the parts of
        ``other`` only: each operand is reduced and a linear factor is
        prime, so no factor divides a part over its own denominator.  The
        quotients stay primitive with positive leading coefficients, and
        the product's parts are the two lists joined, with no polynomial
        product.
        """
        if self.is_zero or other.is_zero:
            return RatFunc.zero(self.ctx)
        scale, p1, kept1 = _cancel(self.parts, other.den, self.scale * other.scale)
        scale, p2, kept2 = _cancel(other.parts, self.den, scale)
        return RatFunc._from_parts(self.ctx, p1 + p2, kept1 + kept2, scale)

    # -- actions --------------------------------------------------------

    def shifted(self, shift: Mapping[VarId, int]) -> "RatFunc":
        """Apply x_v -> x_v - shift[v]; the factor class is closed under this.

        An integer shift is a ring automorphism of Z[x] that keeps the
        top-degree part, so each shifted part is still primitive with
        the same leading term, and no shifted factor divides it.
        Nothing is divided; the shifted factors are only re-sorted.
        """
        if self.is_zero or not shift:
            return self
        parts = [p.subs_shift(shift) for p in self.parts]
        den = [f.shifted(shift) for f in self.den]
        return RatFunc._from_parts(self.ctx, parts, den, self.scale)

    def permuted(self, mapping: Mapping[VarId, VarId]) -> "RatFunc":
        """Rename variables by ``mapping``, a bijection within rows;
        ``Context.check_row_mapping`` refuses any other mapping with
        ValueError, through ``Poly.permute`` or, with no parts, at once.

        A renaming is a ring automorphism that keeps the coefficients,
        so each part stays primitive and no factor divides it; nothing is
        divided.  It can move the leading term, so the sign is
        renormalized: a part with a negative leading coefficient is
        negated, and so is the scale.
        """
        if self.is_zero:
            return self
        if not self.parts:
            self.ctx.check_row_mapping(mapping)
        scale = self.scale
        parts = []
        for p in self.parts:
            p = p.permute(mapping)
            if p.terms[max(p.terms)] < 0:
                p, scale = -p, -scale
            parts.append(p)
        den = []
        for f in self.den:
            g, s = f.permuted(mapping)
            den.append(g)
            if s < 0:
                scale = -scale
        return RatFunc._from_parts(self.ctx, parts, den, scale)

    def evaluate(self, point: Mapping[VarId, Fraction]) -> Fraction:
        """The value at a point, always a Fraction: scale times the
        parts' values over each factor's value, in plain Fraction
        arithmetic, which suffices as for `Poly.evaluate`.  With no parts
        the numerator (zero or one) is evaluated, so an inexact
        coordinate raises TypeError there too; a factor that vanishes at
        the point raises ZeroDivisionError."""
        val = self.scale * math.prod([p.evaluate(point) for p in self.parts or (self.num,)])
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

    def __str__(self):
        num = str(self.num)
        if self.is_zero or (self.is_poly and self.scale == 1):
            return num
        if self.scale != 1:
            num = f"{self.scale}*({num})" if num != "1" else str(self.scale)
        elif self.den:
            num = f"({num})"
        if not self.den:
            return num
        return num + " / " + "".join(f.render(self.ctx) for f in self.den)

    __repr__ = __str__
