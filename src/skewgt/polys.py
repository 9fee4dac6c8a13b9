"""Exact sparse polynomial arithmetic over the rationals.

Polynomials live in a small fixed variable universe described by a
:class:`Context`.  Two universes are used: the triangular family
``x_{ki}`` (one variable per index pair ``1 <= i <= k <= n``), made by
``Context.triangle(n)``, and a single variable ``x`` for rank-one shift
algebras, made by ``Context.line()``.  Each universe is one object for
the life of the process, pickle and copy included, so two contexts are
compared by identity.  Coefficients are
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
public constructor refuses such an exponent tuple, and the one product
loop, ``_mul_terms``, refuses a product of that degree before it
multiplies; ``*`` (``Poly._mul``) and the sums of ``ratfunc`` run every
product through it, on plain term maps.  ``Context.pack`` and
``Context.unpack`` convert between keys and exponent tuples, and
``sorted_terms`` reads the terms as tuples.  The zero polynomial is the
empty map.  ``Poly._from_packed`` is the only place that drops zero
coefficients: sums, products, shifts and the public constructor
accumulate into a plain packed map and hand it over.

The operators ``+``, ``*``, ``-``, their reflections and ``**`` are
written once, on :class:`Ring`: it promotes the other operand into the
type, refuses it with ValueError when it is then of another universe,
and calls the type's own ``_add`` or ``_mul``.  :class:`Poly`,
``RatFunc`` and ``SkewElement`` inherit them all: a scalar factor is
promoted to a constant of the type like any other operand.

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
under x_a := x_b; (x_a + c) with an integral c by three kept integers,
the values of an integral p at 0, at (1, ..., 1) and at (-1, ..., -1),
which c, 1 + c and c - 1 divide whenever (x_a + c) does.  Shifts
x_v -> x_v - s run Horner's scheme on the coefficient list of each
x_v-free monomial.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

VarId = Tuple[int, int]

# Bits per field of a packed monomial, and the bound on total degree.
_WIDTH = 16
DEGREE_BOUND = 1 << _WIDTH
_MASK = DEGREE_BOUND - 1
# Variable fields per block of a packed key that `Poly.__str__` reads
# and memoizes as one: four fields are one 64-bit block.
_BLOCK = 4

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


def is_integer(text: str) -> bool:
    """Whether ``text`` is an integer as the parsers of outside text
    (the command line, `toy`) take one: an optional sign, then ASCII
    digits.  int() alone would also take any Unicode decimal digit, '_'
    between digits and surrounding whitespace."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdecimal()


class Context:
    """A fixed, ordered variable universe plus its shiftable subset.

    ``triangle(n)`` has variables x_ki for 1 <= i <= k <= n; the shift
    lattice moves the variables of rows 1..n-1.  ``line()`` has the
    single variable x, which is itself shiftable.  These two are the
    constructors: each builds its universe on the first call and returns
    that one object after, and ``__reduce__`` hands pickle, ``copy`` and
    ``deepcopy`` the same object, so a context equals and hashes by
    identity alone.
    """

    __slots__ = ("kind", "n", "vars", "shift_vars", "rows", "_vpos", "_spos",
                 "_offsets", "_units", "_deg_offset", "_key_limit", "_blocks")

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
        # rendering: the fields cut into blocks of _BLOCK, first variable
        # first, each block as (bit offset, mask, (offset within the
        # block, printed name) of each field)
        fields = list(zip(self._offsets, map(self.var_name, vars)))
        blocks = []
        for i in range(0, nv, _BLOCK):
            block = fields[i:i + _BLOCK]
            low = block[-1][0]
            blocks.append((low, (1 << _WIDTH * len(block)) - 1,
                           tuple((offset - low, name) for offset, name in block)))
        self._blocks = tuple(blocks)

    # n is positional only: the cache would key triangle(n=3) apart
    # from triangle(3) and build a second object of one universe
    @staticmethod
    @functools.cache
    def triangle(n: int, /) -> "Context":
        if n < 1:
            raise ValueError(f"triangle context needs n >= 1 (got n={n})")
        vars = tuple((k, i) for k in range(1, n + 1) for i in range(1, k + 1))
        shift_vars = tuple(v for v in vars if v[0] <= n - 1)
        return Context("triangle", n, vars, shift_vars)

    @staticmethod
    @functools.cache
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

    def check_row_mapping(self, mapping: Mapping[VarId, VarId]):
        """Refuse with ValueError a variable mapping that is not a
        bijection within the rows of this context's variables."""
        if mapping.keys() != set(mapping.values()):
            raise ValueError(f"{mapping!r} is not a bijection of its variables")
        if any(v[0] != w[0] for v, w in mapping.items()):
            raise ValueError(f"{mapping!r} moves a variable to another row")
        if not mapping.keys() <= self._vpos.keys():
            raise ValueError(f"{mapping!r} names a variable outside {self!r}")

    def __reduce__(self):
        return (Context.line, ()) if self.kind == "line" else (Context.triangle, (self.n,))

    def __repr__(self):
        return f"Context({self.kind!r}, n={self.n})"


def _add_into(dst: dict, src: dict) -> dict:
    """Add the term map `src` into `dst` in place; zero sums are kept."""
    for e, v in src.items():
        t = dst.get(e)
        dst[e] = v if t is None else t + v
    return dst


def _mul_terms(ctx: Context, a: dict, b: dict, out: Optional[dict] = None) -> dict:
    """Add the product of the packed term maps `a` and `b` into `out`, or
    into a fresh map when `out` is None, and return it; zero sums are
    kept, as in `_add_into`.  The one product loop of the polynomial
    layer: the shorter operand runs the rows, and a fresh map takes its
    first row in one comprehension, as no two of that row's keys meet.
    A product of total degree DEGREE_BOUND or more raises ValueError
    before anything is added, as packed keys add without carries only
    below it."""
    if not a or not b:
        return {} if out is None else out
    if len(a) > len(b):
        a, b = b, a
    top_a, top_b = max(a), max(b)
    if top_a + top_b >= ctx._key_limit:
        deg = (top_a >> ctx._deg_offset) + (top_b >> ctx._deg_offset)
        raise ValueError(f"product of degree {deg}: degrees stay below {DEGREE_BOUND}")
    right = list(b.items())
    rows = iter(a.items())
    if out is None:
        e1, c1 = next(rows)
        out = {e1 + e2: c1 * c2 for e2, c2 in right}
    get = out.get
    for e1, c1 in rows:
        for e2, c2 in right:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return out


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
    ``NotImplemented``; one whose promoted ``ctx`` is another universe
    raises ValueError (``_coerce``, the one place an operand of another
    universe is refused).  Addition commutes, so reflected ``+`` is ``+``;
    the skew product does not, so reflected ``*`` is ``other * self``.
    ``-``, reflected ``*`` and ``**`` apply ``+`` and ``*`` as operators,
    so a wrapper installed on the subclass sees every call.
    """

    __slots__ = ()

    def _coerce(self, other):
        """``other`` promoted into the type (``_promote``), or None when
        it does not promote.  The one check of the universe rule: an
        operand whose promoted ``ctx`` is not this value's raises
        ValueError, whatever its type.  The operators, ``==`` of
        ``RatFunc`` and ``SkewElement`` and ``skew.commutator`` promote
        through it."""
        other = self._promote(other)
        if other is not None and other.ctx is not self.ctx:
            raise ValueError(f"operands from different universes: "
                             f"{self.ctx!r} and {other.ctx!r}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._mul(other)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __sub__(self, other):
        other = self._coerce(other)
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
        commute.  Each product is ``base * out``: ``out`` holds the lower
        power, and the skew product shifts the coefficients of its right
        operand, so the smaller operand is the one shifted.  k = 0 gives
        ``one``, k = 1 gives ``self`` itself."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("powers must be nonnegative integers")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else base * out
            k >>= 1
            if k:
                base = base * base
        return type(self).one(self.ctx) if out is None else out


class Poly(Ring):
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("ctx", "terms", "_top", "_values")

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
        # kept as it is when it holds no zero.  A polynomial is never
        # changed after this, so the top-degree terms and the screen's
        # values are filled in on first use and kept.
        self.ctx = ctx
        self._top = self._values = None
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

    def _promote(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.ctx, other)
        return None

    def _add(self, other: "Poly") -> "Poly":
        return Poly._from_packed(self.ctx, _add_into(dict(self.terms), other.terms))

    def __neg__(self):
        return Poly._from_packed(self.ctx, {e: -c for e, c in self.terms.items()})

    def _mul(self, other: "Poly") -> "Poly":
        return Poly._from_packed(self.ctx, _mul_terms(self.ctx, self.terms, other.terms))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.ctx, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
        t = -s, run as Horner's scheme (von zur Gathen & Gerhard, ISSAC
        1997) on plain coefficient lists.  Write p = sum_m m * C_m(x_v)
        over the x_v-free monomials m, and C_m = sum_j a_j x_v^j; for
        i = 0..d-1 and j = d-1 down to i, a_j += t*a_{j+1} leaves the
        coefficients of C_m(x_v + t).  That is d(d+1)/2 multiply-adds per
        column and no binomial coefficient.  A polynomial free of x_v is
        returned as it is.  No key leaves the degree bound: a term only
        ever moves to a lower power of x_v."""
        ctx = self.ctx
        offset, unit, mask = ctx._offsets[pos], ctx._units[pos], _MASK
        # columns[m]: the coefficients of x_v^0, x_v^1, ... of C_m, keyed
        # by the packed key of m
        columns: dict = {}
        for key, coeff in self.terms.items():
            j = key >> offset & mask
            base = key - j * unit
            col = columns.get(base)
            if col is None:
                col = columns[base] = [0] * (j + 1)
            elif len(col) <= j:
                col.extend([0] * (j + 1 - len(col)))
            col[j] = coeff
        if all(len(col) == 1 for col in columns.values()):
            return self
        t = -s
        out: dict = {}
        for base, col in columns.items():
            d = len(col) - 1
            for i in range(d):
                acc = col[d]
                for j in range(d - 1, i - 1, -1):
                    acc = col[j] = col[j] + t * acc
            for j, coeff in enumerate(col):
                out[base + j * unit] = coeff
        return Poly._from_packed(ctx, out)

    def permute(self, mapping: Mapping[VarId, VarId]) -> "Poly":
        """Rename variables by ``mapping``, fixing those it leaves out.  A
        mapping that is not a bijection within the rows of the context
        would write two fields into one packed key, so it raises
        ValueError (``Context.check_row_mapping``)."""
        ctx = self.ctx
        ctx.check_row_mapping(mapping)
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

        Most trial divisions fail, so each is screened first, and only a
        pair the screen passes goes to `divmod_linear`.  For a difference
        (x_a - x_b + c) the screen reads the top-degree form alone: if
        p = q*(x_a - x_b + c), the top form of p is (x_a - x_b) times the
        top form of q, so it vanishes under x_a := x_b
        (`_top_form_vanishes`).  That screen is exact and does not depend
        on c.  For (x_a + c) with an integral c and a p with int
        coefficients, q has int coefficients too (Gauss's lemma: the
        divisor is monic), so evaluating p = q*(x_a + c) at 0, at
        (1, ..., 1) and at (-1, ..., -1) shows that c divides p(0), 1 + c
        divides p(1, ..., 1) and c - 1 divides p(-1, ..., -1), a zero
        divisor meaning the value is 0 (`_screen_values`).  Three
        remainders of kept integers, so a failing trial costs O(1); the
        screen never refuses a true divisor, and the few failures it
        passes are refused by the division.  A c that is not an integer,
        or a p with a Fraction coefficient, is not screened.
        """
        c = _coeff(c)
        if b is not None:
            if not self._top_form_vanishes(a, b):
                return None
        elif type(c) is int:
            values = self._values
            if values is None:
                values = self._values = self._screen_values()
            if values:
                at_zero, at_ones, at_minus_ones = values
                if (at_zero % c if c else at_zero) \
                        or (at_ones % (c + 1) if c != -1 else at_ones) \
                        or (at_minus_ones % (c - 1) if c != 1 else at_minus_ones):
                    return None
        q, r = self.divmod_linear(a, b, c)
        return q if r.is_zero else None

    def _screen_values(self) -> tuple:
        """(p(0), p(1, ..., 1), p(-1, ..., -1)) for a p with int
        coefficients, else (): the integers `exact_div_linear` screens a
        factor (x_a + c) on.  A term's value at (-1, ..., -1) is its
        coefficient times (-1)^(total degree), the degree read from the
        packed key's degree field."""
        terms = self.terms
        if not set(map(type, terms.values())) <= {int}:
            return ()
        shift = self.ctx._deg_offset
        at_ones = sum(terms.values())
        odd = sum([coeff for key, coeff in terms.items() if key >> shift & 1])
        return terms.get(0, 0), at_ones, at_ones - 2 * odd

    def _top_form_vanishes(self, a: VarId, b: VarId) -> bool:
        """Whether the top-degree form of p vanishes under x_a := x_b,
        as it does whenever (x_a - x_b + c) divides p, for any c.  The
        substitution moves x_a's field of each top key into x_b's field
        and keeps the total degree.  The top-degree terms are picked out
        on the first call and kept, so each later trial scans only them."""
        ctx, top = self.ctx, self._top
        if top is None:
            # the smallest key of the top degree: every key at or above it
            low = max(self.terms, default=0) >> ctx._deg_offset << ctx._deg_offset
            top = self._top = [(key, coeff) for key, coeff in self.terms.items() if key >= low]
        off_a, off_b = ctx._offsets[ctx.var_pos(a)], ctx._offsets[ctx.var_pos(b)]
        form: dict = {}
        get = form.get
        for key, coeff in top:
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
        """grlex-largest term first.  A monomial's text is its blocks'
        texts joined by ``*``, each block of the packed key read as one
        int and its text built once per call (`_block_text`).

        The memo lives for one call.  Kept on the context, it raised the
        peak of ten `X2+` factors at n = 3 from 115 to 131-156 MB (fresh
        processes, Python 3.11) for about 140 kB of strings, most likely
        because they pin the allocator pools of the short-lived objects
        they were made among; a memo per call is as fast."""
        terms = self.terms
        if not terms:
            return "0"
        blocks = [(offset, mask, {}, fields) for offset, mask, fields in self.ctx._blocks]
        pieces = []
        for i, key in enumerate(sorted(terms, reverse=True)):
            coeff = terms[key]
            texts = []
            for offset, mask, memo, fields in blocks:
                if b := key >> offset & mask:
                    text = memo.get(b)
                    if text is None:
                        text = memo[b] = _block_text(fields, b)
                    texts.append(text)
            mag = abs(coeff)
            if texts:
                mono = "*".join(texts)
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    __repr__ = __str__


def _block_text(fields, block: int) -> str:
    """The text of one block of a packed key: each nonzero field of
    ``fields``, (offset within the block, printed name), as ``name`` or
    ``name^e``, joined by ``*``."""
    return "*".join([name if e == 1 else f"{name}^{e}"
                     for offset, name in fields if (e := block >> offset & _MASK)])


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
