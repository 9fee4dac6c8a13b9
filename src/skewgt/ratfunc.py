"""Rational functions whose denominators split into affine-linear factors.

Every denominator that arises in this engine is a product of factors of
the shape (x_a - x_b + c) or (x_a + c) with c an exact rational.  The
class is closed under shifts, row permutations, sums and products, so
reduction never needs a general multivariate gcd: cancelling a factor is
one lookup or one exact linear division.

A :class:`RatFunc` is stored fully reduced as ``scale * num / prod(den)``
with ``num`` primitive (coprime coefficients, each stored as an ``int``,
positive leading coefficient) and ``den`` a sorted multiset of canonical
factors, which makes structural equality coincide with mathematical
equality.  ``scale`` and each factor's constant ``c`` are stored as
``polys._coeff`` stores a coefficient: an ``int`` when integral, else a
``Fraction`` with denominator > 1.  Most scales are integral, so most
products, sums, shifts and factor lookups run in int arithmetic.

The numerator is kept factored, as ``lin`` and ``parts``, whose
product is ``num``.  ``lin`` holds the atoms: the numerator factors
x_a + c and x_a - x_b + c with an int c, each stored as the
:class:`LinearFactor` it equals, in the canonical orientation ``den``
uses.  ``parts`` holds every other factor: primitive, nonconstant
polynomials with positive leading coefficients.  No factor of ``den``
divides a part or equals an atom (Gauss's lemma keeps the product
primitive, and a monomial order its leading coefficient positive).  An
atom and its polynomial are the same primitive polynomial, as canonical
``a < b`` puts the +1 on the variable packed into the higher bits, so
``scale`` and ``num`` do not depend on where a linear factor is kept.
The generator coefficients are products of linear forms, and so are
most numerators a product meets, so a product joins two lists of atoms
and small parts where it would multiply and divide two expanded
numerators.  A part takes atom shape only where it is made, so only
there is it classified (`_split`): in ``RatFunc(...)``, for the new part
of a sum, for a quotient in `_cancel`, and for the one-part coefficient
`toy.witness_inverse` checks.  ``num`` is the atoms and
parts multiplied out on each read, and nothing keeps it: printing,
``to_json`` and ``hash`` read it, so neither shows in any printed form,
and ``==`` compares what is left of two numerators once the atoms and
parts they share are cancelled.  No ``RatFunc`` changes once it is
built.

Canonical factors are monic of degree one in ``x_a``, so two distinct
ones are non-associate primes, and a factor divides a product of atoms
and parts exactly when it equals an atom or divides a part.
Cancellation is one plain loop, ``_cancel``: each factor removes an
equal atom, a multiset lookup, or else is tried against the parts in
order and cancels from the first it divides, or is kept; a factor that
fails on a part fails on every quotient of it, so the order of the
factors does not matter.  A reduced operand already proves most factors
cannot cancel, and each operation hands ``_cancel`` only the rest
(Henrici's rule for fractions, Henrici, JACM 3, 1956; Knuth, TAOCP vol.
2, 4.5.1):

* ``*`` tries the factors of each denominator against the other
  operand's atoms and parts only;
* ``RatFunc.sum`` keeps the atoms and parts every operand shares and
  multiplies out the rest into one new part, on plain term maps:
  operands over one denominator add their numerators into one map,
  every product accumulating straight into its map, and a factor that
  several of these maps lack is multiplied into their sum once
  (`_lacking_sum`).  It tries against the new part only the factors
  whose top multiplicity in the lcm is reached by two or more operands;
  ``+`` is its sum of two, which tries only the factors with equal
  multiplicity in both denominators;
* ``shifted`` and ``permuted`` are ring automorphisms over the integers,
  map each atom as a factor, with no Taylor shift, and each part, and
  try none.

:class:`RatFunc` itself runs the full reduction, every factor against
the numerator as one part or atom, and is the constructor for outside
input.
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


def _split(p: Poly):
    """``(parts, lin)`` for a primitive polynomial p with a positive
    leading coefficient: ``([], [atom])`` when p is x_a + c or
    x_a - x_b + c (a < b) with an int c, ``([], [])`` when p is
    constant, else ``([p], [])``.  Canonical ``a < b`` puts the +1 on the
    variable packed into the higher bits, so the atom is p itself."""
    terms = p.terms
    ctx = p.ctx
    deg = max(terms) >> ctx._deg_offset
    if deg != 1 or len(terms) > 3:
        return ([p] if deg > 0 else []), []
    top = sorted([key for key in terms if key], reverse=True)
    if [terms[key] for key in top] in ([1], [1, -1]):
        a, *b = [ctx.vars[ctx._units.index(key)] for key in top]
        return [], [LinearFactor(a, b[0] if b else None, terms.get(0, 0))]
    return [p], []


def _cancel(parts, lin, factors, scale):
    """Divide the product of ``parts`` and the atoms ``lin`` by each of
    ``factors`` that divides it.

    A canonical factor is prime, and an atom is prime of the same
    canonical form, so a factor divides an atom exactly when it equals
    it.  Each factor first removes an equal atom, a multiset lookup;
    only if none matches is it tried against the parts in order through
    `Poly.exact_div_linear`, and it cancels from the first it divides,
    or is kept.  The screens there turn away most parts a factor does
    not divide: a difference in one scan of the part's kept top-degree
    terms, and (x_a + c) with an integral c by three remainders of the
    part's kept values at 0, (1, ..., 1) and (-1, ..., -1).
    Returns ``(scale, parts, lin, kept)``: the contents of the quotients
    folded into ``scale``, a quotient of atom shape moved to the atoms
    (`_split`) and a constant one dropped, and the factors that did not
    cancel in ``kept``.
    """
    parts, lin = list(parts), list(lin)
    kept = []
    for f in factors:
        if f in lin:
            lin.remove(f)
            continue
        for i, p in enumerate(parts):
            q = p.exact_div_linear(*f)
            if q is not None:
                content, q = q.content_primitive()
                scale *= content
                parts[i:i + 1], atoms = _split(q)
                lin += atoms
                break
        else:
            kept.append(f)
    return scale, parts, lin, kept


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


def _group_sums(ctx: Context, lacking, own, term_map, out: Optional[dict] = None):
    """Add to ``out`` (a fresh map when None; None when there is
    nothing to add) the sum over ``lacking``, pairs (group, {f: e}) of
    the operands over one denominator and the factors of the lcm it
    lacks, of each operand's own numerator (``own``) times prod(f^e);
    ``term_map`` gives the term map of a factor.

    Each group's products accumulate straight into ``out`` when it lacks
    nothing, else into a fresh map, which is multiplied by the factors
    it lacks into ``out``."""
    for group, missing in lacking:
        acc = None if missing else out
        for t in group:
            acc = _expand(ctx, *own(t), acc)
        if not missing:
            out = acc
        elif acc := Poly._from_packed(ctx, acc).terms:
            out = _expand(ctx, [acc, *[term_map(f) for f, e in missing.items()
                                       for _ in range(e)]], 1, out)
    return out


def _lacking_sum(ctx: Context, lacking, own, term_map, out: Optional[dict] = None):
    """`_group_sums`, but while two or more groups lack one factor, the
    factor the most groups lack is pulled out first: those groups are
    summed on their own, recursively, each lacking one power less, zero
    terms are dropped, and the sum is multiplied by the factor once.
    Only the lacked factors are read before a group is summed, so one
    group's sum and the partial sums of the pulled factors are held at
    a time."""
    while len(lacking) > 1:
        f, k = max(Counter(f for _, missing in lacking for f in missing).items(),
                   key=itemgetter(1))
        if k < 2:
            break
        inner, rest = [], []
        for group, missing in lacking:
            if f in missing:
                missing = {**missing, f: missing[f] - 1}
                if not missing[f]:
                    del missing[f]
                inner.append((group, missing))
            else:
                rest.append((group, missing))
        inner = _lacking_sum(ctx, inner, own, term_map)
        if inner := Poly._from_packed(ctx, inner or {}).terms:
            out = _expand(ctx, [inner, term_map(f)], 1, out)
        lacking = rest
    return _group_sums(ctx, lacking, own, term_map, out)


class RatFunc(Ring):
    """Reduced rational function with factored denominator."""

    __slots__ = ("ctx", "parts", "lin", "den", "scale")

    def __init__(self, num: Poly, den: Iterable[LinearFactor] = (), scale=1):
        """Full reduction of outside input into one part or one atom:
        every factor of ``den`` is tried against the numerator.  ``scale``
        is an int or a Fraction (a float raises TypeError) and is stored
        by ``_coeff``'s rule; zero has scale 0."""
        scale = _coeff(scale)
        ctx = num.ctx
        if num.is_zero or scale == 0:
            self._own(ctx, (), (), (), 0)
            return
        content, prim = num.content_primitive()
        scale, parts, lin, kept = _cancel(*_split(prim), den, scale * content)
        self._own(ctx, parts, lin, kept, scale)

    def _own(self, ctx: Context, parts, lin, den, scale):
        self.ctx = ctx
        self.parts = tuple(parts)
        self.lin = tuple(lin)
        self.den = tuple(sorted(den, key=LinearFactor.sort_key))
        self.scale = scale if type(scale) is int else _coeff(scale)

    @staticmethod
    def _from_parts(ctx: Context, parts, lin, den: Iterable[LinearFactor], scale) -> "RatFunc":
        """Trusted constructor for a value already in normal form but for
        the order of ``den`` and the type of ``scale``: each of ``parts``
        is primitive, nonconstant, not of atom shape (`_split`), with a
        positive leading coefficient, each of ``lin`` is an atom, no
        factor of ``den`` divides a part or equals an atom, and ``scale``
        is a nonzero int or Fraction.  Only sorts ``den`` and stores an
        integral ``scale`` as an int (a product of Fractions can be
        integral).  A single part may be an expanded numerator, which
        `num` then returns as it is."""
        out = object.__new__(RatFunc)
        out._own(ctx, parts, lin, den, scale)
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
        """The numerator expanded: the product of the parts and the atoms,
        multiplied out on each read and not kept; zero has the zero
        polynomial."""
        if self.scale == 0:
            return Poly.zero(self.ctx)
        return self._expanded(self.parts + self.lin)

    def _expanded(self, factors) -> Poly:
        """The product of ``factors``, parts and atoms, multiplied out."""
        return _product(self.ctx, [f.to_poly(self.ctx) if type(f) is LinearFactor else f
                                   for f in factors])

    @property
    def is_zero(self) -> bool:
        return self.scale == 0

    @property
    def is_poly(self) -> bool:
        return not self.den

    def __eq__(self, other):
        """Equal scales, factors and numerators.  Z[x] has no zero
        divisors, so the parts and atoms both numerators have are
        cancelled first, and only the rest is multiplied out (none, when
        they agree)."""
        other = self._promote(other)
        if other is None:
            return NotImplemented
        if self.scale != other.scale or self.den != other.den:
            return False
        mine, theirs = Counter(self.parts + self.lin), Counter(other.parts + other.lin)
        return (self._expanded((mine - theirs).elements())
                == self._expanded((theirs - mine).elements()))

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

        The parts and atoms every operand has are kept as they are; the
        rest is multiplied out on plain term maps into one new primitive
        part, or atom.  The operands are grouped by denominator, and each
        group is one loop over its members' other parts and atoms (times
        their integer scales), each product accumulating straight into a
        map (`_expand`): the running total when the group lacks no factor
        of the lcm, else a fresh map, which is multiplied by the factors
        the group lacks, a factor that several groups lack into their sum
        once (`_lacking_sum`).  Of two denominators one reaches each
        factor's top multiplicity, so no factor is lacked twice, and a
        sum over two (every ``+``) skips that count (`_group_sums`).  A
        factor f of top multiplicity m (in the lcm) is tried against the
        new part, at most m times, only if two operands reach m: were it
        one, every other cofactor would hold f, and f divides neither
        that operand's numerator nor its cofactor.  No factor is tried
        against a shared part or atom: every factor sits below some
        operand, and that operand has them among its own, none of which
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
        shared = Counter(terms[0].parts + terms[0].lin)
        for t in terms[1:]:
            if not shared:
                break
            shared &= Counter(t.parts + t.lin)
        g = math.lcm(*[t.scale.denominator for t in terms])
        linear: dict = {}  # atom or factor -> its term map

        def term_map(f):
            if type(f) is not LinearFactor:
                return f.terms
            m = linear.get(f)
            if m is None:
                m = linear[f] = f.to_poly(ctx).terms
            return m

        def own(t):
            # the term maps of the operand's parts and atoms outside the
            # shared ones, and its integer scale
            mine = (Counter(t.parts + t.lin) - shared).elements() if shared else t.parts + t.lin
            return [term_map(f) for f in mine], t.scale.numerator * (g // t.scale.denominator)

        # each group with the power of each factor of the lcm it lacks
        lacking = [(group, {f: e for f, (m, _) in top.items() if (e := m - d.get(f, 0))})
                   for group, d in zip(groups.values(), dens)]
        summed = _lacking_sum if len(groups) > 2 else _group_sums
        total = summed(ctx, lacking, own, term_map)
        total = Poly._from_packed(ctx, total or {})
        if total.is_zero:
            return RatFunc.zero(ctx)
        content, prim = total.content_primitive()
        tried, rest = [], []
        for f, (m, reached) in top.items():
            (tried if reached > 1 else rest).extend([f] * m)
        # content and g may both be ints, and int / int is a float
        scale, parts, lin, kept = _cancel(*_split(prim), tried,
                                          content if g == 1 else Fraction(content) / g)
        shared_parts = []
        for f in shared.elements():
            (lin if type(f) is LinearFactor else shared_parts).append(f)
        return RatFunc._from_parts(ctx, shared_parts + parts, lin, rest + kept, scale)

    def __neg__(self):
        return RatFunc._from_parts(self.ctx, self.parts, self.lin, self.den, -self.scale)

    def _mul(self, other: "RatFunc") -> "RatFunc":
        """Cross-cancel, then join the parts and the atoms.

        The factors of ``other.den`` are tried against the atoms and parts
        of ``self`` only, and those of ``self.den`` against those of
        ``other`` only: each operand is reduced and a linear factor is
        prime, so no factor divides a part or equals an atom over its own
        denominator.  The quotients stay primitive with positive leading
        coefficients, and the product's parts and atoms are the two
        lists joined, with no polynomial product.
        """
        if self.is_zero or other.is_zero:
            return RatFunc.zero(self.ctx)
        scale, p1, l1, kept1 = _cancel(self.parts, self.lin, other.den,
                                       self.scale * other.scale)
        scale, p2, l2, kept2 = _cancel(other.parts, other.lin, self.den, scale)
        return RatFunc._from_parts(self.ctx, p1 + p2, l1 + l2, kept1 + kept2, scale)

    # -- actions --------------------------------------------------------

    def shifted(self, shift: Mapping[VarId, int]) -> "RatFunc":
        """Apply x_v -> x_v - shift[v]; the factor class is closed under this.

        An integer shift is a ring automorphism of Z[x] that keeps the
        top-degree part, so each shifted part is still primitive with
        the same leading term and no atom shape, and no shifted factor
        divides it.  An atom is shifted as a factor is, in its constant,
        with no Taylor shift.  Nothing is divided; the shifted factors
        are only re-sorted.
        """
        if self.is_zero or not shift:
            return self
        parts = [p.subs_shift(shift) for p in self.parts]
        lin = [f.shifted(shift) for f in self.lin]
        den = [f.shifted(shift) for f in self.den]
        return RatFunc._from_parts(self.ctx, parts, lin, den, self.scale)

    def permuted(self, mapping: Mapping[VarId, VarId]) -> "RatFunc":
        """Rename variables by ``mapping``, a bijection within rows;
        ``Context.check_row_mapping`` refuses any other mapping with
        ValueError, through ``Poly.permute`` or, with no parts, at once.

        A renaming is a ring automorphism that keeps the coefficients,
        so each part stays primitive, of no atom shape, and no factor
        divides it; nothing is divided.  It can move the leading term,
        so the sign is renormalized: a part with a negative leading
        coefficient is negated, and so is the scale; an atom or a factor
        is re-oriented by `LinearFactor.permuted`, its sign folded into
        the scale.
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
        lin, den = [], []
        for factors, out in ((self.lin, lin), (self.den, den)):
            for f in factors:
                g, s = f.permuted(mapping)
                out.append(g)
                if s < 0:
                    scale = -scale
        return RatFunc._from_parts(self.ctx, parts, lin, den, scale)

    def evaluate(self, point: Mapping[VarId, Fraction]) -> Fraction:
        """The value at a point, always a Fraction: scale times the
        parts' and atoms' values over each factor's value, in plain
        Fraction arithmetic, which suffices as for `Poly.evaluate`.  With
        no parts and no atoms the numerator (zero or one) is evaluated,
        so an inexact coordinate raises TypeError there too; a factor
        that vanishes at the point raises ZeroDivisionError."""
        values = [p.evaluate(point) for p in self.parts] + [f.evaluate(point) for f in self.lin]
        val = self.scale * math.prod(values or [self.num.evaluate(point)], start=Fraction(1))
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
