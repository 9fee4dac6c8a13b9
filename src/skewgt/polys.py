"""Exact sparse polynomial arithmetic over the rationals.

Polynomials live in a small fixed variable universe described by a
:class:`Context`.  Two universes are used: the triangular family
``x_{ki}`` (one variable per index pair ``1 <= i <= k <= n``) and a
single variable ``x`` for rank-one shift algebras.  Coefficients are
exact rationals: every stored coefficient is an ``int`` when it is
integral and a :class:`fractions.Fraction` with denominator > 1
otherwise.  There is no floating point anywhere.

Representation: ``terms`` maps a packed monomial to a nonzero
coefficient (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  With v context
variables in row-major order and B = 2^16, the exponents (e_0, ...,
e_{v-1}) of total degree d pack into the int
``d*B^v + sum_i e_i*B^(v-1-i)``: one 16-bit field per variable below a
field for the total degree, the first variable most significant.  The
product of two monomials is the sum of their keys, and int order on keys
is graded lexicographic order with row-major variable precedence, which
fixes a unique printed form (and the sign of the primitive part) for
every polynomial; division does not depend on it.  The guard: no total
degree reaches B, so no field ever carries into its neighbour.  The
public constructor refuses such an exponent tuple, and ``*`` refuses a
product of that degree before it multiplies.  ``Context.pack`` and
``Context.unpack`` convert between keys and exponent tuples, and
``sorted_terms`` reads the terms as tuples.  The zero polynomial is the
empty map.  ``Poly._from_packed`` is the only place that drops zero
coefficients: sums, products, shifts and the public constructor
accumulate into a plain packed map and hand it over.

The operators ``+``, ``*``, ``-``, their reflections and ``**`` are
written once, on :class:`Ring`: it promotes the other operand into the
type, then calls the type's own ``_add`` or ``_mul``.  :class:`Poly`,
``RatFunc`` and ``SkewElement`` inherit them; only :class:`Poly` keeps
its own ``*``, whose scalar case skips promotion.

Since ``3`` and ``Fraction(3)`` agree under ``==``, ``hash`` and
``str``, storing ints shows in no printed form; it only spares integer
arithmetic the cost of Fraction.  The same rule (``_coeff``) holds for
every exact rational of the coefficient layer: the content returned by
``Poly.content_primitive``, ``RatFunc.scale`` and ``LinearFactor.c``.
Never divide two of them with ``/`` unless one is a Fraction:
``int / int`` is a float.

Evaluation at a point of exact rationals is the plain sum of the
terms, each exponent read from its field of the packed key, in int and
Fraction arithmetic.  Nothing hot evaluates: the module builders take
ladder values in closed form and evaluate only to check that form, once
per ladder summand (`gtmodules._realize`: 56 calls per benchmark pass
of the module jobs, none on the symbolic ones).

Division is only ever by an affine-linear factor (x_a - x_b + c) or
(x_a + c), monic of degree one in x_a.  Quotient and remainder are
therefore unique, the remainder being the substitution x_a := x_b - c,
and one Horner pass over the powers of x_a computes both.  Most trial
divisions fail, and `exact_div_linear` turns most failures away before
that pass: a difference (x_a - x_b + c) by the top-degree form alone,
which a multiple of it has as (x_a - x_b) times a form, so it vanishes
under x_a := x_b; (x_a + c) with an integral c by the remainder alone.
Shifts x_v -> x_v - s run Horner's scheme over the same rows of powers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

VarId = Tuple[int, int]

# Bits per field of a packed monomial, and the bound on total degree.
_WIDTH = 16
DEGREE_BOUND = 1 << _WIDTH
_MASK = DEGREE_BOUND - 1

# Longest entry a refusal message quotes whole.  A longer one is quoted
# by a prefix and its length, so a refused entry of any size gives a
# message of bounded size.
QUOTE_LIMIT = 40


def quote(text: str) -> str:
    """How every parser of outside text (the command line, `gln.element`,
    `toy`) names a refused entry: ``repr(text)``, or past QUOTE_LIMIT
    characters the repr of a prefix then ``... (N characters)``."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT // 2]!r}... ({len(text)} characters)"


class Context:
    """A fixed, ordered variable universe plus its shiftable subset.

    ``triangle(n)`` has variables x_ki for 1 <= i <= k <= n; the shift
    lattice moves the variables of rows 1..n-1.  ``line()`` has the
    single variable x, which is itself shiftable.
    """

    __slots__ = ("kind", "n", "vars", "shift_vars", "rows", "_vpos", "_spos",
                 "_offsets", "_units", "_deg_offset", "_key_limit", "_fields")

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
        # packed monomials: bit offset of each variable's field, the key
        # of each variable, and the offset of the total-degree field; a
        # key reaches _key_limit exactly when its degree reaches the bound
        nv = len(vars)
        self._offsets = tuple(_WIDTH * (nv - 1 - i) for i in range(nv))
        self._deg_offset = _WIDTH * nv
        self._units = tuple((1 << self._deg_offset) + (1 << o) for o in self._offsets)
        self._key_limit = DEGREE_BOUND << self._deg_offset
        # (bit offset, printed name) of each variable, for rendering
        self._fields = tuple(zip(self._offsets, map(self.var_name, vars)))

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

    def pack(self, exps) -> int:
        """The packed key of an exponent tuple, one int exponent per
        variable.  A wrong length, a negative or non-int exponent, or a
        total degree of DEGREE_BOUND or more raises ValueError."""
        if len(exps) != len(self.vars):
            raise ValueError(f"exponent tuple {exps!r} has {len(exps)} slots; "
                             f"the context has {len(self.vars)} variables")
        key = 0
        for e, offset in zip(exps, self._offsets):
            if type(e) is not int:
                raise ValueError(f"exponent tuple {exps!r} has a non-integer "
                                 f"exponent {e!r}")
            if e < 0:
                raise ValueError(f"exponent tuple {exps!r} has a negative exponent")
            key += e << offset
        deg = sum(exps)
        if deg >= DEGREE_BOUND:
            raise ValueError(f"exponent tuple {exps!r} has total degree {deg}; "
                             f"degrees stay below {DEGREE_BOUND}")
        return key + (deg << self._deg_offset)

    def unpack(self, key: int) -> Tuple[int, ...]:
        """The exponent tuple of a packed key."""
        return tuple((key >> offset) & _MASK for offset in self._offsets)

    def __eq__(self, other):
        return (isinstance(other, Context)
                and self.kind == other.kind and self.n == other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"Context({self.kind!r}, n={self.n})"


def _add_into(dst: dict, src: dict) -> dict:
    """Add the term map `src` into `dst` in place; zero sums are kept."""
    for e, v in src.items():
        t = dst.get(e)
        dst[e] = v if t is None else t + v
    return dst


def _coeff(x):
    """Normalize an exact rational: an int when integral, else a Fraction.
    Anything else, a float included, raises TypeError."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Ring:
    """The arithmetic operators of an exact ring type, built from the
    subclass's own ``_promote`` (the operand in its type, or None),
    ``_add`` and ``_mul`` (on an operand already promoted), unary ``-``,
    ``ctx`` and ``one(ctx)``.  An operand that does not promote gives
    ``NotImplemented``.  Addition commutes, so reflected ``+`` is ``+``;
    the skew product does not, so reflected ``*`` is ``other * self``.
    ``-``, reflected ``*`` and ``**`` apply ``+`` and ``*`` as operators,
    so a wrapper installed on the subclass sees every call.
    """

    __slots__ = ()

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._add(other)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._mul(other)

    def __rmul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other * self

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, k: int):
        """``one * self * ... * self`` with k factors, by repeated
        squaring (Knuth, TAOCP vol. 2, 4.6.3): about 2 log2(k) products
        instead of k.  Powers of one element commute, so the order of the
        products does not change the value, even in a ring that does not
        commute.  k = 0 gives ``one``, k = 1 gives ``self`` itself."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be nonnegative integers")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return type(self).one(self.ctx) if out is None else out


class Poly(Ring):
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[Tuple[int, ...], Fraction]):
        """Outside input: ``terms`` maps exponent tuples to exact
        rationals.  Each tuple is validated and packed (``Context.pack``)
        and each coefficient normalized (``_coeff``)."""
        self._own(ctx, {ctx.pack(exps): coeff if type(coeff) is int else _coeff(coeff)
                        for exps, coeff in terms.items()})

    @staticmethod
    def _from_packed(ctx: Context, terms: dict) -> "Poly":
        """Trusted constructor: ``terms``, a fresh map that the new
        polynomial may keep, takes packed keys of ``ctx`` to exact
        rationals, zeros allowed."""
        out = object.__new__(Poly)
        out._own(ctx, terms)
        return out

    def _own(self, ctx: Context, terms: dict):
        # The only zero filter of the polynomial layer.  A product or sum
        # of Fractions can be integral and is stored as an int.  A map of
        # ints only (most maps: primitive numerators) is scanned in C and
        # kept as it is when it holds no zero.
        self.ctx = ctx
        values = terms.values()
        if not set(map(type, values)) <= {int}:
            terms = {e: c if type(c) is int else _coeff(c)
                     for e, c in terms.items() if c}
        elif 0 in values:
            terms = {e: c for e, c in terms.items() if c}
        self.terms = terms

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "Poly":
        return Poly._from_packed(ctx, {})

    @staticmethod
    def const(ctx: Context, value) -> "Poly":
        return Poly._from_packed(ctx, {0: _coeff(value)})

    @staticmethod
    def one(ctx: Context) -> "Poly":
        return Poly.const(ctx, 1)

    @staticmethod
    def var(ctx: Context, v: VarId) -> "Poly":
        return Poly._from_packed(ctx, {ctx._units[ctx.var_pos(v)]: 1})

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(self.terms) >> self.ctx._deg_offset

    def leading(self) -> Tuple[Tuple[int, ...], Union[int, Fraction]]:
        """The grlex-largest term as (exponents, coefficient); the
        coefficient is an int or a Fraction."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms)
        return self.ctx.unpack(key), self.terms[key]

    def constant_term(self) -> Union[int, Fraction]:
        """The coefficient of the empty monomial, an int or a Fraction."""
        return self.terms.get(0, 0)

    def content_primitive(self) -> Tuple[Union[int, Fraction], "Poly"]:
        """Split into content * primitive part.

        The primitive part has coprime int coefficients and a positive
        leading coefficient, so it is a canonical representative of the
        polynomial up to rational scaling.  The content is stored as a
        coefficient is: an int when integral (0 for the zero
        polynomial), else a Fraction.
        """
        terms = self.terms
        if not terms:
            return 0, self
        lcm = math.lcm(*[c.denominator for c in terms.values()])
        if lcm != 1:
            terms = {e: c.numerator * (lcm // c.denominator) for e, c in terms.items()}
        g = math.gcd(*terms.values())
        if terms[max(terms)] < 0:
            g = -g
        prim = Poly._from_packed(self.ctx, {e: v // g for e, v in terms.items()})
        return (g if lcm == 1 else Fraction(g, lcm)), prim

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

    def _add(self, other: "Poly") -> "Poly":
        return Poly._from_packed(self.ctx, _add_into(dict(self.terms), other.terms))

    def __neg__(self):
        return Poly._from_packed(self.ctx, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _coeff(other)
            return Poly._from_packed(self.ctx, {e: c * q for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        ctx = self.ctx
        a, b = self.terms, other.terms
        # packed keys add without carries while the degree stays in bounds
        if a and b and max(a) + max(b) >= ctx._key_limit:
            deg = (max(a) >> ctx._deg_offset) + (max(b) >> ctx._deg_offset)
            raise ValueError(f"product of degree {deg}: degrees stay below "
                             f"{DEGREE_BOUND}")
        out: dict = {}
        get = out.get
        right = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in right:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return Poly._from_packed(ctx, out)

    __rmul__ = __mul__

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
        """x_v -> x_v - s for the variable at `pos`: a Taylor shift by
        t = -s, run as Horner's scheme over the rows of the powers of x_v
        (von zur Gathen & Gerhard, ISSAC 1997).  Write p = sum_j R_j x_v^j
        with every R_j free of x_v; for i = 0..d-1 and j = d-1 down to i,
        R_j += t*R_{j+1} leaves the rows of p(x_v + t).  That is d(d+1)/2
        row sums and no binomial coefficient.  A polynomial free of x_v
        is returned as it is.  No key leaves the degree bound: row j only
        ever receives terms of rows above it."""
        ctx = self.ctx
        offset, unit, mask = ctx._offsets[pos], ctx._units[pos], _MASK
        # rows[j]: the terms of R_j x_v^j, keyed by their packed keys
        buckets: dict = {}
        for key, coeff in self.terms.items():
            j = (key >> offset) & mask
            row = buckets.get(j)
            if row is None:
                buckets[j] = {key: coeff}
            else:
                row[key] = coeff
        d = max(buckets, default=0)
        if d == 0:
            return self
        t = -s
        rows = [buckets.get(j, {}) for j in range(d + 1)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                row = rows[j]
                get = row.get
                for key, v in rows[j + 1].items():
                    key -= unit
                    row[key] = get(key, 0) + t * v
        out = rows[0]
        for row in rows[1:]:
            out.update(row)
        return Poly._from_packed(ctx, out)

    def permute(self, mapping: Mapping[VarId, VarId]) -> "Poly":
        """Rename variables; the mapping must be a bijection within rows."""
        ctx = self.ctx
        moves = [(ctx._offsets[ctx.var_pos(a)], ctx._offsets[ctx.var_pos(b)])
                 for a, b in mapping.items()]
        # clear every target field, then copy each source field into its
        # target; a renaming keeps the total degree
        cleared = 0
        for _, dst in moves:
            cleared |= _MASK << dst
        keep = ~cleared
        out: dict = {}
        for key, coeff in self.terms.items():
            new = key & keep
            for src, dst in moves:
                new |= ((key >> src) & _MASK) << dst
            out[new] = coeff
        return Poly._from_packed(ctx, out)

    def evaluate(self, point: Mapping[VarId, Fraction]) -> Fraction:
        """The value at a point of exact rationals, always a Fraction:
        the plain sum of the terms, each exponent read from its packed
        field; only checks of closed forms evaluate, so no faster path
        is kept.  A coordinate that is not an int or a Fraction raises
        TypeError (``_coeff``); a variable the polynomial needs and the
        point lacks raises KeyError."""
        ctx = self.ctx
        vals = {ctx.var_pos(v): _coeff(q) for v, q in point.items()}
        total = 0
        for key, coeff in self.terms.items():
            for pos, offset in enumerate(ctx._offsets):
                if e := key >> offset & _MASK:
                    coeff *= vals[pos] ** e
            total += coeff
        return Fraction(total)

    # -- division by affine-linear factors ----------------------------

    def divmod_linear(self, a: VarId, b: Optional[VarId], c: Fraction):
        """Divide by (x_a - x_b + c) or (x_a + c); returns (quotient, remainder).

        The divisor is x_a - s with s = x_b - c (or s = -c), monic of
        degree one in x_a, so p = q*(x_a - s) + r has exactly one
        solution with r free of x_a: r = p(x_a := s).  One Horner pass
        finds it.  Write p = sum_k p_k x_a^k with every p_k free of x_a;
        walking k down from the top degree, q_{k-1} = p_k + s*q_k, and
        the k = 0 row p_0 + s*q_0 is the remainder.  No key leaves the
        degree bound: every quotient and remainder term has degree at
        most deg p.

        Requires a < b in row-major order when b is present, the
        canonical orientation of ``ratfunc.linear_factor``.
        """
        ctx = self.ctx
        pa = ctx.var_pos(a)
        pb = ctx.var_pos(b) if b is not None else None
        if pb is not None and pb <= pa:
            raise ValueError("divisor not in canonical orientation")
        neg_c = -_coeff(c)
        offset, unit_a = ctx._offsets[pa], ctx._units[pa]
        unit_b = ctx._units[pb] if pb is not None else 0
        # rows[k] = p_k, keyed by the packed keys with x_a^k divided out
        rows: dict = {}
        mask = _MASK
        for key, coeff in self.terms.items():
            k = (key >> offset) & mask
            rows.setdefault(k, {})[key - k * unit_a] = coeff
        quot: dict = {}
        for k in range(max(rows, default=0), 0, -1):
            q = rows[k]
            # q is q_{k-1} = p_k + s*q_k: add s*q_{k-1} into row k-1
            below = rows.setdefault(k - 1, {})
            up = (k - 1) * unit_a
            for e, v in q.items():
                if not v:
                    continue
                quot[e + up] = v
                if unit_b:
                    key = e + unit_b
                    t = below.get(key)
                    below[key] = v if t is None else t + v
                if neg_c:
                    t = below.get(e)
                    below[e] = v * neg_c if t is None else t + v * neg_c
        return Poly._from_packed(ctx, quot), Poly._from_packed(ctx, rows.get(0, {}))

    def exact_div_linear(self, a: VarId, b: Optional[VarId], c: Fraction) -> Optional["Poly"]:
        """Quotient when (x_a - x_b + c) or (x_a + c) divides exactly,
        else None.

        Most trial divisions fail, so each is screened first.  For a
        difference (x_a - x_b + c) the screen reads the top-degree form
        alone: if p = q*(x_a - x_b + c), the top form of p is
        (x_a - x_b) times the top form of q, so it vanishes under
        x_a := x_b (`_top_form_vanishes`).  The screen is exact, never
        refuses a true divisor, and does not depend on c.  For (x_a + c)
        with an integral c the remainder p(x_a := -c) is computed first,
        in one pass that builds no quotient, and a nonzero one returns
        None at once; a c that is not an integer would make every power
        of -c a Fraction, and goes straight to `divmod_linear`.
        """
        c = _coeff(c)
        if b is not None:
            if not self._top_form_vanishes(a, b):
                return None
        elif type(c) is int:
            ctx = self.ctx
            pa = ctx.var_pos(a)
            offset, unit, mask = ctx._offsets[pa], ctx._units[pa], _MASK
            # the remainder, keyed by the packed keys with x_a^k divided out
            root, powers = -c, [1]
            rem: dict = {}
            get = rem.get
            for key, coeff in self.terms.items():
                k = (key >> offset) & mask
                while len(powers) <= k:
                    powers.append(powers[-1] * root)
                key -= k * unit
                rem[key] = get(key, 0) + coeff * powers[k]
            if any(rem.values()):
                return None
        q, r = self.divmod_linear(a, b, c)
        return q if r.is_zero else None

    def _top_form_vanishes(self, a: VarId, b: VarId) -> bool:
        """Whether the top-degree form of p vanishes under x_a := x_b,
        as it does whenever (x_a - x_b + c) divides p, for any c.  The
        substitution moves x_a's field of each top key into x_b's field
        and keeps the total degree."""
        terms = self.terms
        if not terms:
            return True
        ctx = self.ctx
        # the smallest key of the top degree: every key at or above it
        top = max(terms) >> ctx._deg_offset << ctx._deg_offset
        off_a, off_b = ctx._offsets[ctx.var_pos(a)], ctx._offsets[ctx.var_pos(b)]
        form: dict = {}
        get = form.get
        for key, coeff in terms.items():
            if key >= top:
                e = key >> off_a & _MASK
                key += (e << off_b) - (e << off_a)
                form[key] = get(key, 0) + coeff
        return not any(form.values())

    # -- rendering ----------------------------------------------------

    def sorted_terms(self):
        """The terms as (exponent tuple, coefficient), grlex-largest
        first."""
        unpack = self.ctx.unpack
        return [(unpack(key), self.terms[key]) for key in sorted(self.terms, reverse=True)]

    def __str__(self):
        """grlex-largest term first, each monomial read from its packed
        key field by field."""
        if not self.terms:
            return "0"
        fields = self.ctx._fields
        pieces = []
        for i, key in enumerate(sorted(self.terms, reverse=True)):
            coeff = self.terms[key]
            mono = "*".join([name if e == 1 else f"{name}^{e}"
                             for offset, name in fields if (e := key >> offset & _MASK)])
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
    return shifted_vandermonde(ctx, k, [0] * (len(ctx.rows.get(k, ())) - 1))


def shifted_vandermonde(ctx: Context, k: int, offsets) -> Poly:
    """Vandermonde of row k with consecutive differences offset by `offsets`.

    The factor on positions (i, j) picks up offsets[i] + ... + offsets[j-1],
    so any row shift of the plain Vandermonde is of this form.  An offset
    that is not an int or a Fraction, a float included, raises TypeError.
    """
    row = ctx.rows.get(k)
    if row is None:
        raise ValueError(f"row {k} not in context")
    offsets = [_coeff(o) for o in offsets]
    if len(offsets) != len(row) - 1:
        raise ValueError("need one offset per consecutive pair in the row")
    out = Poly.one(ctx)
    for i in range(len(row)):
        for j in range(i + 1, len(row)):
            gap = sum(offsets[i:j])
            out = out * (Poly.var(ctx, row[i]) - Poly.var(ctx, row[j]) + gap)
    return out
