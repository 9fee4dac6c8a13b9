"""Exact sparse polynomial arithmetic over the rationals.

Polynomials live in a small fixed variable universe described by a
:class:`Context`.  Two universes are used: the triangular family
``x_{ki}`` (one variable per index pair ``1 <= i <= k <= n``) and a
single variable ``x`` for rank-one shift algebras.  Every coefficient
is a :class:`fractions.Fraction`; there is no floating point anywhere.

Representation: ``terms`` maps a dense exponent tuple (one slot per
context variable, row-major order) to a nonzero coefficient.  The zero
polynomial is the empty map.  Graded lexicographic order with row-major
variable precedence fixes a unique printed form (and the sign of the
primitive part) for every polynomial; division does not depend on it.

Division is only ever by an affine-linear factor (x_a - x_b + c) or
(x_a + c), monic of degree one in x_a.  Quotient and remainder are
therefore unique, the remainder being the substitution x_a := x_b - c,
and one Horner pass over the powers of x_a computes both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Tuple

VarId = Tuple[int, int]


class Context:
    """A fixed, ordered variable universe plus its shiftable subset.

    ``triangle(n)`` has variables x_ki for 1 <= i <= k <= n; the shift
    lattice moves the variables of rows 1..n-1.  ``line()`` has the
    single variable x, which is itself shiftable.
    """

    __slots__ = ("kind", "n", "vars", "shift_vars", "rows", "_vpos", "_spos")

    def __init__(self, kind: str, n: int, vars: Tuple[VarId, ...],
                 shift_vars: Tuple[VarId, ...]):
        self.kind = kind
        self.n = n
        self.vars = vars
        self.shift_vars = shift_vars
        rows: dict[int, tuple[VarId, ...]] = {}
        for v in vars:
            rows.setdefault(v[0], ())
            rows[v[0]] += (v,)
        self.rows = rows
        self._vpos = {v: i for i, v in enumerate(vars)}
        self._spos = {v: i for i, v in enumerate(shift_vars)}

    @staticmethod
    def triangle(n: int) -> "Context":
        if n < 1:
            raise ValueError(f"triangle context needs n >= 1 (got n={n})")
        vars = tuple((k, i) for k in range(1, n + 1) for i in range(1, k + 1))
        shift_vars = tuple(v for v in vars if v[0] <= n - 1)
        return Context("triangle", n, vars, shift_vars)

    @staticmethod
    def line() -> "Context":
        return Context("line", 1, ((1, 1),), ((1, 1),))

    @property
    def shift_rank(self) -> int:
        return len(self.shift_vars)

    def var_pos(self, v: VarId) -> int:
        return self._vpos[v]

    def shift_pos(self, v: VarId) -> int:
        return self._spos[v]

    def var_name(self, v: VarId) -> str:
        if self.kind == "line":
            return "x"
        return "x%d%d" % v if v[0] < 10 and v[1] < 10 else "x%d_%d" % v

    def shift_name(self, v: VarId) -> str:
        if self.kind == "line":
            return "d"
        return "d%d%d" % v if v[0] < 10 and v[1] < 10 else "d%d_%d" % v

    def var_key(self, v: VarId) -> str:
        """Stable string key "k,i" used in JSON payloads."""
        return "%d,%d" % v

    def __eq__(self, other):
        return (isinstance(other, Context)
                and self.kind == other.kind and self.n == other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"Context({self.kind!r}, n={self.n})"


def _grlex_key(exps: Tuple[int, ...]):
    return (sum(exps), exps)


def _add_into(dst: dict, src: dict) -> dict:
    """Add the term map `src` into `dst` in place; zero sums are kept."""
    for e, v in src.items():
        t = dst.get(e)
        dst[e] = v if t is None else t + v
    return dst


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[Tuple[int, ...], Fraction]):
        self.ctx = ctx
        clean = {}
        for exps, coeff in terms.items():
            if coeff:
                clean[exps] = _as_fraction(coeff)
        self.terms = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "Poly":
        return Poly(ctx, {})

    @staticmethod
    def const(ctx: Context, value) -> "Poly":
        value = _as_fraction(value)
        if value == 0:
            return Poly.zero(ctx)
        return Poly(ctx, {(0,) * len(ctx.vars): value})

    @staticmethod
    def one(ctx: Context) -> "Poly":
        return Poly.const(ctx, 1)

    @staticmethod
    def var(ctx: Context, v: VarId) -> "Poly":
        exps = [0] * len(ctx.vars)
        exps[ctx.var_pos(v)] = 1
        return Poly(ctx, {tuple(exps): Fraction(1)})

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> Tuple[Tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ctx.vars), Fraction(0))

    def content_primitive(self) -> Tuple[Fraction, "Poly"]:
        """Split into content * primitive part.

        The primitive part has coprime integer coefficients and a
        positive leading coefficient, so it is a canonical representative
        of the polynomial up to rational scaling.
        """
        if not self.terms:
            return Fraction(0), self
        denom_lcm = 1
        for c in self.terms.values():
            denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
        numer_gcd = 0
        for c in self.terms.values():
            numer_gcd = math.gcd(numer_gcd, abs(c.numerator * (denom_lcm // c.denominator)))
        content = Fraction(numer_gcd, denom_lcm)
        if self.leading()[1] < 0:
            content = -content
        inv = 1 / content
        prim = Poly(self.ctx, {e: c * inv for e, c in self.terms.items()})
        return content, prim

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ValueError("polynomials from different variable universes")

    def _promote(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.ctx, other)
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                return Poly.zero(self.ctx)
            return Poly(self.ctx, {e: c * q for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Poly.one(self.ctx)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- substitutions -----------------------------------------------

    def subs_shift(self, shift: Mapping[VarId, int]) -> "Poly":
        """Substitute x_v -> x_v - shift[v] for every listed variable."""
        out = self
        for v, s in shift.items():
            if s:
                out = out._shift_one(self.ctx.var_pos(v), s)
        return out

    def _shift_one(self, pos: int, s: int) -> "Poly":
        out: dict = {}
        for exps, coeff in self.terms.items():
            e = exps[pos]
            if e == 0:
                out[exps] = out.get(exps, Fraction(0)) + coeff
                continue
            # (x - s)^e expanded exactly
            for j in range(e + 1):
                c = coeff * math.comb(e, j) * Fraction(-s) ** (e - j)
                key = exps[:pos] + (j,) + exps[pos + 1:]
                t = out.get(key, Fraction(0)) + c
                if t:
                    out[key] = t
                else:
                    out.pop(key, None)
        return Poly(self.ctx, out)

    def permute(self, mapping: Mapping[VarId, VarId]) -> "Poly":
        """Rename variables; the mapping must be a bijection within rows."""
        pos_map = {self.ctx.var_pos(a): self.ctx.var_pos(b)
                   for a, b in mapping.items()}
        out: dict = {}
        for exps, coeff in self.terms.items():
            new = list(exps)
            for src, dst in pos_map.items():
                new[dst] = exps[src]
            out[tuple(new)] = coeff
        return Poly(self.ctx, out)

    def evaluate(self, point: Mapping[VarId, Fraction]) -> Fraction:
        pos_vals = {self.ctx.var_pos(v): _as_fraction(q) for v, q in point.items()}
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for pos, e in enumerate(exps):
                if e:
                    val *= pos_vals[pos] ** e
            total += val
        return total

    # -- division by affine-linear factors ----------------------------

    def divmod_linear(self, a: VarId, b: Optional[VarId], c: Fraction):
        """Divide by (x_a - x_b + c) or (x_a + c); returns (quotient, remainder).

        The divisor is x_a - s with s = x_b - c (or s = -c), monic of
        degree one in x_a, so p = q*(x_a - s) + r has exactly one
        solution with r free of x_a: r = p(x_a := s).  One Horner pass
        finds it.  Write p = sum_k p_k x_a^k with every p_k free of x_a;
        walking k down from the top degree, q_{k-1} = p_k + s*q_k, and
        the k = 0 row p_0 + s*q_0 is the remainder.

        Requires a < b in row-major order when b is present, the
        canonical orientation of ``ratfunc.linear_factor``.
        """
        ctx = self.ctx
        pa = ctx.var_pos(a)
        pb = ctx.var_pos(b) if b is not None else None
        if pb is not None and pb <= pa:
            raise ValueError("divisor not in canonical orientation")
        neg_c = -_as_fraction(c)
        # rows[k] = p_k, keyed by exponent tuples with the x_a slot zeroed
        rows: dict = {}
        for exps, coeff in self.terms.items():
            row = rows.setdefault(exps[pa], {})
            row[exps[:pa] + (0,) + exps[pa + 1:]] = coeff
        quot: dict = {}
        carry: dict = {}  # s * q_k
        for k in range(max(rows, default=0), 0, -1):
            q = _add_into(rows.get(k, {}), carry)
            carry = {}
            for e, v in q.items():
                if not v:
                    continue
                quot[e[:pa] + (k - 1,) + e[pa + 1:]] = v
                if pb is not None:
                    key = e[:pb] + (e[pb] + 1,) + e[pb + 1:]
                    t = carry.get(key)
                    carry[key] = v if t is None else t + v
                if neg_c:
                    t = carry.get(e)
                    carry[e] = v * neg_c if t is None else t + v * neg_c
        rem = _add_into(rows.get(0, {}), carry)
        return Poly(ctx, quot), Poly(ctx, rem)

    def exact_div_linear(self, a: VarId, b: Optional[VarId], c: Fraction) -> Optional["Poly"]:
        """Quotient when (x_a - x_b + c) divides exactly, else None."""
        q, r = self.divmod_linear(a, b, c)
        return q if r.is_zero else None

    # -- rendering ----------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def _monomial_str(self, exps) -> str:
        parts = []
        for pos, e in enumerate(exps):
            if e:
                name = self.ctx.var_name(self.ctx.vars[pos])
                parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            mono = self._monomial_str(exps)
            mag = abs(coeff)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    __repr__ = __str__


# -- named polynomial families ------------------------------------------


def elementary_symmetric(ctx: Context, k: int, i: int) -> Poly:
    """e_ki, the i-th elementary symmetric polynomial in row k."""
    row = ctx.rows.get(k)
    if row is None or not (1 <= i <= len(row)):
        raise ValueError(f"elementary symmetric index ({k},{i}) out of range")
    import itertools
    out = Poly.zero(ctx)
    for subset in itertools.combinations(row, i):
        term = Poly.one(ctx)
        for v in subset:
            term = term * Poly.var(ctx, v)
        out = out + term
    return out


def vandermonde(ctx: Context, k: int) -> Poly:
    """prod_{i<j} (x_ki - x_kj) over the row-k variables."""
    row = ctx.rows.get(k)
    if row is None:
        raise ValueError(f"row {k} not in context")
    out = Poly.one(ctx)
    for i in range(len(row)):
        for j in range(i + 1, len(row)):
            out = out * (Poly.var(ctx, row[i]) - Poly.var(ctx, row[j]))
    return out


def shifted_vandermonde(ctx: Context, k: int, offsets) -> Poly:
    """Vandermonde of row k with consecutive differences offset by `offsets`.

    The factor on positions (i, j) picks up offsets[i] + ... + offsets[j-1],
    so any row shift of the plain Vandermonde is of this form.
    """
    row = ctx.rows.get(k)
    if row is None:
        raise ValueError(f"row {k} not in context")
    offsets = [Fraction(o) for o in offsets]
    if len(offsets) != len(row) - 1:
        raise ValueError("need one offset per consecutive pair in the row")
    out = Poly.one(ctx)
    for i in range(len(row)):
        for j in range(i + 1, len(row)):
            gap = sum(offsets[i:j], Fraction(0))
            out = out * (Poly.var(ctx, row[i]) - Poly.var(ctx, row[j]) + gap)
    return out
