"""Skew monoid ring of shift operators with rational-function coefficients.

Elements are finite sums  sum_mu  a_mu * mu  where mu ranges over the
free abelian group generated by one unit shift per shiftable variable
(the generator d_v sends x_v to x_v - 1 and fixes everything else) and
a_mu is a :class:`RatFunc`.  Coefficients are stored on the left; the
product twists the right factor's coefficients through the left
factor's shift:

    (a * mu) (b * nu) = (a * mu(b)) * (mu nu).

Products are formed by one kernel, ``SkewElement.sum_of_products``,
which sums a*b over a list of pairs (a, b) and reduces each shift key's
products once, by ``RatFunc.sum``.  A product is its case of one pair,
a commutator its case of two, (a, b) and (-b, a), and a Gelfand row
entry (``gln``) its case of rank pairs, so no partial product or
partial sum is reduced.  Any other sum is skew ``+``.

Row permutations act on everything: on coefficients by permuting the
variables of each row, and on shifts by conjugation, which permutes the
shift exponents within each row.  A row permutation is the variable
mapping that ``Poly.permute`` takes, and refuses with ValueError unless
it is a bijection within rows.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .polys import Context, Poly, Ring, VarId, _add_into
from .ratfunc import RatFunc

ShiftKey = Tuple[int, ...]


def _consecutive_cycles(ctx: Context, length: int) -> List[Dict[VarId, VarId]]:
    """The cycles x_{k,i} -> x_{k,i+1} -> ... -> x_{k,i+length-1} -> x_{k,i}
    of each row k, as variable mappings, rows in order."""
    return [{(row, i + j): (row, i + (j + 1) % length) for j in range(length)}
            for row in sorted(ctx.rows)
            for i in range(1, len(ctx.rows[row]) - length + 2)]


def sym_generators(ctx: Context):
    """Adjacent transpositions per row: they generate the product of
    symmetric groups acting on the rows."""
    return _consecutive_cycles(ctx, 2)


def alt_generators(ctx: Context):
    """Consecutive 3-cycles per row: they generate the product of
    alternating groups (rows of size < 3 contribute nothing)."""
    return _consecutive_cycles(ctx, 3)


class SkewElement(Ring):
    """Finite sum of shifts with left rational-function coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[ShiftKey, RatFunc]):
        self.ctx = ctx
        clean = {}
        for key, coeff in terms.items():
            if not coeff.is_zero:
                clean[key] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "SkewElement":
        return SkewElement(ctx, {})

    @staticmethod
    def identity_shift(ctx: Context) -> ShiftKey:
        return (0,) * ctx.shift_rank

    @staticmethod
    def from_coeff(coeff, ctx: Optional[Context] = None) -> "SkewElement":
        """Embed a rational function (or polynomial, or scalar) at the
        identity shift."""
        if isinstance(coeff, RatFunc):
            return SkewElement(coeff.ctx, {SkewElement.identity_shift(coeff.ctx): coeff})
        if isinstance(coeff, Poly):
            return SkewElement.from_coeff(RatFunc(coeff))
        if ctx is None:
            raise ValueError("scalar embedding needs an explicit context")
        return SkewElement.from_coeff(RatFunc.const(ctx, coeff))

    @staticmethod
    def one(ctx: Context) -> "SkewElement":
        return SkewElement.from_coeff(RatFunc.one(ctx))

    @staticmethod
    def shift_gen(ctx: Context, v: VarId, power: int = 1) -> "SkewElement":
        key = [0] * ctx.shift_rank
        key[ctx.shift_pos(v)] = power
        return SkewElement(ctx, {tuple(key): RatFunc.one(ctx)})

    @staticmethod
    def from_right(ctx: Context, terms: Mapping[ShiftKey, RatFunc]) -> "SkewElement":
        """Build from right-coefficient data: mu * alpha = mu(alpha) * mu."""
        out = {}
        for key, coeff in terms.items():
            out[key] = coeff.shifted(_shift_map(ctx, key))
        return SkewElement(ctx, out)

    # -- views -----------------------------------------------------------

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def right_coefficients(self) -> Dict[ShiftKey, RatFunc]:
        """Re-express each term as mu * alpha; round trips with from_right."""
        return {key: coeff.shifted(_shift_map(self.ctx, tuple(map(neg, key))))
                for key, coeff in self.terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def identity_coefficient(self) -> RatFunc:
        return self.terms.get(SkewElement.identity_shift(self.ctx), RatFunc.zero(self.ctx))

    # -- ring operations ---------------------------------------------------

    def _promote(self, other) -> Optional["SkewElement"]:
        if isinstance(other, SkewElement):
            return other
        if isinstance(other, (RatFunc, Poly, int, Fraction)):
            return SkewElement.from_coeff(other, self.ctx)
        return None

    def _add(self, other: "SkewElement") -> "SkewElement":
        return SkewElement(self.ctx, _add_into(dict(self.terms), other.terms))

    def __neg__(self):
        return SkewElement(self.ctx, {k: -c for k, c in self.terms.items()})

    @staticmethod
    def sum_of_products(ctx: Context, pairs: Iterable[tuple]) -> "SkewElement":
        """The sum of a*b over ``pairs`` (a, b) of two elements, each
        product term by term: (a1 mu1)(a2 mu2) = a1 mu1(a2) mu1 mu2.

        The term pairs (mu1, mu2) of every pair are first grouped by
        their shift key mu1 mu2; then each key's products are built and
        summed once, by ``RatFunc.sum``, before the next key's are built,
        so only one key's products are held at a time.  ``RatFunc.sum``
        tries only the factors that two products reach at their top
        multiplicity, where a chain of partial sums would try every
        factor of partial sums over equal denominators."""
        by_key: Dict[ShiftKey, list] = {}
        for a, b in pairs:
            for k1, a1 in a.terms.items():
                smap = _shift_map(ctx, k1)
                for k2, a2 in b.terms.items():
                    by_key.setdefault(tuple(map(add, k1, k2)), []).append((a1, a2, smap))
        return SkewElement(ctx, {
            key: RatFunc.sum(ctx, [a1 * a2.shifted(smap) for a1, a2, smap in ps])
            for key, ps in by_key.items()})

    def _mul(self, other: "SkewElement") -> "SkewElement":
        """The product: ``sum_of_products`` of the one pair (self, other)."""
        return SkewElement.sum_of_products(self.ctx, [(self, other)])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- evaluation -----------------------------------------------------

    def evaluate(self, a) -> RatFunc:
        """Apply the element to a field element: sum_mu mu(alpha_mu * a)
        with right coefficients alpha_mu."""
        a = SkewElement.from_coeff(a, self.ctx).identity_coefficient()
        return RatFunc.sum(self.ctx, [(alpha * a).shifted(_shift_map(self.ctx, key))
                                      for key, alpha in self.right_coefficients().items()])

    def coevaluate(self, a) -> RatFunc:
        """The transposed action: sum_mu alpha_mu * mu^{-1}(a)."""
        a = SkewElement.from_coeff(a, self.ctx).identity_coefficient()
        return RatFunc.sum(self.ctx, [alpha * a.shifted(_shift_map(self.ctx, tuple(map(neg, key))))
                                      for key, alpha in self.right_coefficients().items()])

    # -- group action ------------------------------------------------------

    def act(self, mapping: Mapping[VarId, VarId]) -> "SkewElement":
        """Automorphism induced by a row permutation ``mapping``:
        coefficients are permuted (first, so ``Poly.permute`` checks the
        mapping) and each shift is conjugated (its exponents move within
        their row).  Conjugation is a bijection on shift keys, so no two
        terms meet."""
        out: Dict[ShiftKey, RatFunc] = {}
        for key, coeff in self.terms.items():
            coeff = coeff.permuted(mapping)
            # conjugated shift: exponent at mapping(v) = old exponent at v
            new_key = [0] * len(key)
            for pos, m in enumerate(key):
                if m:
                    v = self.ctx.shift_vars[pos]
                    w = mapping.get(v, v)
                    new_key[self.ctx.shift_pos(w)] = m
            out[tuple(new_key)] = coeff
        return SkewElement(self.ctx, out)

    # -- i/o ------------------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for key in sorted(self.terms):
            shift = {self.ctx.var_key(self.ctx.shift_vars[p]): m
                     for p, m in enumerate(key) if m}
            terms.append({"shift": shift, "coeff": self.terms[key].to_json()})
        return {"terms": terms}

    def _shift_str(self, key: ShiftKey) -> str:
        parts = []
        for pos, m in enumerate(key):
            if m:
                name = self.ctx.shift_name(self.ctx.shift_vars[pos])
                parts.append(name if m == 1 else f"{name}^{m}")
        return "*".join(parts) if parts else "e"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms):
            pieces.append(f"[{self.terms[key]}] {self._shift_str(key)}")
        return "  +  ".join(pieces)

    __repr__ = __str__


def _shift_map(ctx: Context, key: ShiftKey) -> Dict[VarId, int]:
    return {ctx.shift_vars[p]: m for p, m in enumerate(key) if m}


def commutator(a, b):
    """a*b - b*a.  An operand with its own `commutator` method (a module
    `Matrix`, which brackets a diagonal operand in one pass) uses it.
    Where either operand is a skew element, both are promoted as `*`
    promotes them and the two products are one ``sum_of_products`` of
    the pairs (a, b) and (-b, a), so each shift key is summed once;
    negation only flips the sign of each coefficient's scale."""
    bracket = getattr(a, "commutator", None)
    if bracket is not None:
        return bracket(b)
    u = a if isinstance(a, SkewElement) else b
    if not isinstance(u, SkewElement):
        return a * b - b * a
    x, y = u._coerce(a), u._coerce(b)
    if x is None or y is None:
        raise TypeError(f"cannot bracket {type(a).__name__} with {type(b).__name__}")
    return SkewElement.sum_of_products(u.ctx, [(x, y), (-y, x)])


def is_invariant(u: SkewElement, group: str) -> bool:
    """Whether every generator of the chosen row-permutation group fixes u.

    group: "S" (product of symmetric groups) or "A" (product of
    alternating groups).  Generator checks suffice because the action is
    by automorphisms.
    """
    if group == "S":
        gens = sym_generators(u.ctx)
    elif group == "A":
        gens = alt_generators(u.ctx)
    else:
        raise ValueError(f"unknown group {group!r}; expected 'S' or 'A'")
    return all(u.act(g) == u for g in gens)
