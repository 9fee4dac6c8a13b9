"""Explicit modules on Gelfand-Tsetlin pattern bases.

Finite-dimensional modules are built on the integral interlacing
patterns under a fixed dominant top row; the ladder generators act by
the shift coefficients taken at each pattern, the diagonal generators
by row sums, and each row Vandermonde acts diagonally with a sign
choice per distinct row filling.

The single bridge between pattern entries and the engine variables is
the staircase substitution

    x_ki = lambda_ki - i + 1,

which is forced by requiring the diagonal generator of row 2 to return
the second weight entry on highest-weight patterns.  The Vandermonde
eigenvalue on a row is the product of the staircase-shifted differences
lambda_ki - lambda_kj + j - i over i < j; its square always agrees with
the evaluated square of the Vandermonde polynomial.

Pattern entries are exact rationals stored like polynomial coefficients:
an `int` when integral (every entry of a finite module) and a `Fraction`
otherwise.  The builder runs on ints: it scales the point by L, the lcm
of its entries' denominators (1 for a finite module), so each basis
vector is an int key and a move adds +-L (see `_realize`).  A ladder
coefficient a(k, i, +-) is a product of linear factors in the staircase
entries of rows k and k+-1, so it is taken in closed form
(`gln.a_value`) on the scaled rows as an int numerator and denominator,
L^2 times the true value for + and the true value for -, reduced once
(`_ladder_value`); the symbolic `gln.a_coeff` is evaluated at the true
pattern once per summand, to check it.  Row sums and Vandermonde
eigenvalues are read off the keys over L and L^(k(k-1)/2).  So a build
makes Fractions only for the basis patterns and that check; every
matrix value read through `Matrix.entry` is a `Fraction`.

Both kinds of module come from one builder over a basis of patterns:
the interlacing patterns under a top row, or a regular pattern moved by
every shift in a window.  Builders refuse modules whose dimension
exceeds `MAX_CHECK_DIM` before enumerating a basis; `gt --json` refuses
those above `MAX_MODULE_DIM` before building.

Matrices are exact and sparse: a `Matrix` is a list of rows, each a dict
from column to a nonzero `int` numerator, over one `int` denominator in
lowest terms (as a `RatFunc` keeps an `int` numerator), so products and
sums run on ints with one gcd pass per result.  They have the operators
`*`, `+`, `-` and `c * a` of skew elements, so the reports run the
relation catalogues of `relations` and hold no relation of their own;
each compares a relation's two sides (the generic one on the interior
columns, `columns_equal`) and builds no difference.
A ladder matrix has at most k nonzeros per column, so products, sums
and the relation reports cost time in proportion to the stored entries,
not to dim^2.  The Gelfand-Tsetlin subalgebra acts diagonally, so a
bracket with X_kk or V_k is one pass over the other operand's entries
(`Matrix.commutator`), read off the diagonal numerators the builder
keeps on each of them (`Matrix.diag`).  Any other bracket adds both
products into one set of rows with one gcd pass, as
`SkewElement.sum_of_products` does.
The kernels loop over each row's stored entries and skip empty rows:
most ladder rows hold one or two.  A ladder coefficient, which reads
two adjacent rows, is computed and scaled to its family's denominator
once per distinct filling of those rows.
The JSON export writes every row in full, one row at a time, from the
stored numerators, each reduced over `den` with one gcd; the text of an
empty row is built once per matrix and written again for every empty
row, and a `--json` file is written through a 256 KiB buffer.

Ladder terms whose target leaves the interlacing polytope are dropped.
Some of those dropped terms carry nonzero coefficients (only crossings
of the row read by the numerator are killed by it); the classical
cancellations make every verified relation hold on the surviving
matrix, which the relation report checks exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .polys import Context, VarId, _coeff
from .relations import (IdentityResult, VerificationReport, gln_catalogue, gln_weights,
                        single_shift_catalogue)
from .skew import commutator
from . import gln

Pattern = Tuple[Tuple[Union[int, Fraction], ...], ...]

# Largest module the builders accept, and so the largest `gt --check`.
# The dimension is known from the input alone (Weyl formula, window
# size), so a larger module is refused before any pattern is enumerated.
# Set from a ~10 s job limit: on a 2-core machine, `gt --check` on the
# largest module under it takes 1.3-2.3 s at ranks 4-7 and 2.7-3.7 s
# at ranks 8-9, at 92-153 MB peaks (fresh process, Python 3.11; the
# report has about 5 n^2 entries).
MAX_CHECK_DIM = 10_000

# Largest module `gt --json` exports, checked before the build: the
# export writes every matrix densely, about 25 matrices of dim^2 cells
# at rank 4 (6.5 MB at dimension 140).
MAX_MODULE_DIM = 500


def check_module_dim(dim: int) -> None:
    if dim > MAX_CHECK_DIM:
        raise ValueError(f"module dimension {dim} exceeds the budget "
                         f"of {MAX_CHECK_DIM}")


def normalize_pattern(rows: Sequence[Sequence]) -> Pattern:
    """Rows as tuples of exact rationals: an int when integral, else a
    Fraction.  An entry that is not an int or a Fraction, a float
    included, raises TypeError."""
    out = []
    for k, row in enumerate(rows, start=1):
        if len(row) != k:
            raise ValueError("pattern rows must have lengths 1, 2, ..., n")
        out.append(tuple(_coeff(v) for v in row))
    return tuple(out)


def staircase(p: Pattern, k: int) -> Tuple[Union[int, Fraction], ...]:
    """Row k of the staircase point, (x_k1, ..., x_kk) with
    x_ki = lambda_ki - i + 1; empty for k = 0."""
    return tuple(v - i for i, v in enumerate(p[k - 1])) if k else ()


def pattern_point(p: Pattern) -> Dict[VarId, Union[int, Fraction]]:
    """The staircase point as a map {(k, i): x_ki} over every row."""
    return {(k, i): x for k in range(1, len(p) + 1)
            for i, x in enumerate(staircase(p, k), start=1)}


def _check_dominant(top: Sequence[int]) -> Tuple[int, ...]:
    top = tuple(_coeff(v) for v in top)
    if not top:
        raise ValueError("empty top row")
    if any(type(v) is not int for v in top):
        raise ValueError("top row must be integral")
    if any(top[i] < top[i + 1] for i in range(len(top) - 1)):
        raise ValueError(f"top row {top} is not weakly decreasing")
    return top


def _rows_below(row: Tuple[int, ...]):
    """All integral rows interlacing directly under the given row."""
    return itertools.product(*(range(row[i + 1], row[i] + 1)
                               for i in range(len(row) - 1)))


def enumerate_patterns(top: Sequence[int]) -> List[Pattern]:
    """All integral interlacing patterns under the dominant top row,
    in a fixed canonical order."""
    return _chains(row_fillings(top))


def _chains(fillings: Dict[int, List[Tuple[int, ...]]]) -> List[Pattern]:
    """The patterns of `row_fillings`' walk, in a fixed canonical order:
    each chain of rows grows by the next row's fillings that interlace
    its lowest row, so no row is expanded again."""
    chains = [(row,) for row in fillings[len(fillings)]]
    for k in range(len(fillings) - 1, 0, -1):
        chains = [(lower,) + chain for chain in chains for lower in fillings[k]
                  if all(hi >= v >= lo for v, hi, lo in zip(lower, chain[0], chain[0][1:]))]
    chains.sort(key=lambda p: sum(p, ()))
    return chains


def weyl_dim(top: Sequence[int]) -> int:
    """The dimension of the module under `top`, by the Weyl dimension
    formula, so a builder can size a module before it enumerates the
    basis."""
    top = _check_dominant(top)
    n = len(top)
    dim = Fraction(1)
    for i, j in itertools.combinations(range(n), 2):
        dim *= Fraction(top[i] - top[j] + j - i, j - i)
    if dim.denominator != 1:
        raise ValueError(f"Weyl dimension of {top} is not an integer: {dim}")
    return int(dim)


def row_fillings(top: Sequence[int]) -> Dict[int, List[Tuple[int, ...]]]:
    """{k: the distinct possible row-k vectors under the dominant top
    row, sorted} for every row k = 1..n, from one walk down the rows.
    A top row whose module exceeds the budget is refused before the
    walk; no row has more fillings than the module has patterns."""
    top = _check_dominant(top)
    check_module_dim(weyl_dim(top))
    frontier = {top}
    fillings = {len(top): [top]}
    for k in range(len(top) - 1, 0, -1):
        frontier = {lower for row in frontier for lower in _rows_below(row)}
        fillings[k] = sorted(frontier)
    return fillings


class SignData:
    """One sign per distinct row filling, for every row 2..n:
    `rows[k][filling]` is +1 or -1.  `fillings` is the `row_fillings`
    walk the signs were chosen on, which the module's basis comes from.
    Two sign choices are equal when both fields are; being mutable,
    they are not hashable."""

    __slots__ = ("rows", "fillings")

    def __init__(self, rows: Dict[int, Dict[Tuple[int, ...], int]],
                 fillings: Dict[int, List[Tuple[int, ...]]]):
        self.rows = rows
        self.fillings = fillings

    def __eq__(self, other):
        if type(other) is not SignData:
            return NotImplemented
        return self.rows == other.rows and self.fillings == other.fillings

    @staticmethod
    def from_vectors(fillings: Dict[int, List[Tuple[int, ...]]],
                     vectors: Optional[Dict[int, Sequence[int]]] = None) -> "SignData":
        """Signs per row k = 2..n as vectors aligned with the sorted
        `fillings[k]` of `row_fillings`; a row without one gets all plus.
        No V_k reads a row outside 2..n, so a vector there is refused."""
        n = len(fillings)
        vectors = vectors or {}
        if set(vectors) - set(range(2, n + 1)):
            raise ValueError(f"signs are chosen on rows 2..{n}, got rows "
                             f"{sorted(vectors)}")
        rows = {}
        for k in range(2, n + 1):
            vec = vectors.get(k, [1] * len(fillings[k]))
            if len(vec) != len(fillings[k]):
                raise ValueError(
                    f"row {k} needs {len(fillings[k])} signs, got {len(vec)}")
            if any(s not in (1, -1) for s in vec):
                raise ValueError("signs must be +1 or -1")
            rows[k] = dict(zip(fillings[k], vec))
        return SignData(rows, fillings)

    @property
    def is_all_plus(self) -> bool:
        return all(s == 1 for row in self.rows.values() for s in row.values())


def _vandermonde(x: Sequence) -> Union[int, Fraction]:
    """prod_{i<j} (x_i - x_j), one factor at a time."""
    val = 1
    for i, j in itertools.combinations(range(len(x)), 2):
        val *= x[i] - x[j]
    return val


def squared_vandermonde(k: int, p: Pattern) -> Union[int, Fraction]:
    """prod_{i<j} (x_ki - x_kj)^2 at the staircase point of a pattern,
    read off its row k, one factor at a time: the value of
    `polys.vandermonde(ctx, k)` squared, without expanding its k! terms."""
    return _vandermonde(staircase(p, k)) ** 2


# ----------------------------------------------------------------------
# exact sparse matrices: int numerators over one denominator per matrix

class Matrix(list):
    """Rows of int numerators over one positive int denominator `den`,
    each a plain dict {column: numerator} in which an absent column is a
    zero entry; in lowest terms: gcd(den, every entry) = 1, no zero is
    stored, and the zero matrix has den 1, so `==` compares `den` and the
    rows.  `m.entry(i, j)` reads one value as a Fraction.  Operators:
    `a * b`, `a + b`, `a += b`, `a - b`, `c * a` and `a * c`; operands
    of different sizes raise ValueError.  Each operator calls the
    module-level `mat_*` function, looked up at call time, so a wrapper
    installed on those names sees every call.

    No `Matrix` is changed once built: every operator and builder
    returns a new one, and its rows are filled before it is wrapped.
    `diag` holds the diagonal numerators of a matrix built diagonal
    (`diagonal`, and every X_kk and V_k of `_realize`), and is None on
    any other, diagonal or not."""

    __slots__ = ("den", "diag")

    def __init__(self, rows=(), den: int = 1):
        super().__init__(rows)
        self.den = den
        self.diag: Optional[List[int]] = None

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self[i].get(j, 0), self.den)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.den == other.den \
            and list.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        return mat_scale(other, self)

    __rmul__ = __mul__

    def __add__(self, other):
        return mat_add(self, other)

    __iadd__ = __add__

    def __sub__(self, other):
        return mat_sub(self, other)

    def commutator(self, other: "Matrix") -> "Matrix":
        """self*other - other*self.  With a diagonal operand D, entry
        (i, j) of [D, B] is (d_i - d_j) b_ij: one pass over B's stored
        entries; D is an operand that carries its `diag`.  Otherwise both
        products are added into one set of rows over their shared
        denominator self.den * other.den, the second negated, with one
        gcd pass at the end: no product matrix and no difference is
        built."""
        if len(self) != len(other):
            raise ValueError(f"matrix sizes differ: {len(self)} and {len(other)}")
        for d, b, sign in ((self, other, 1), (other, self, -1)):
            diag = d.diag
            if diag is not None:
                if sign < 0:
                    diag = [-v for v in diag]
                rows = []
                for di, row in zip(diag, b):
                    out = {}
                    if row:
                        for j, x in row.items():
                            dj = diag[j]
                            if di != dj:
                                out[j] = (di - dj) * x
                    rows.append(out)
                return _lowest(rows, self.den * other.den)
        rows = [{} for _ in self]
        _mul_into(rows, self, other, 1)
        _mul_into(rows, other, self, -1)
        return _lowest(rows, self.den * other.den)


def from_values(rows: Iterable[Dict[int, Union[int, Fraction]]]) -> Matrix:
    """The matrix of one {column: exact rational} dict per row.  Over
    the lcm of the denominators it is already in lowest terms."""
    rows = list(rows)
    try:
        den = lcm(*(v.denominator for row in rows for v in row.values()))
    except AttributeError:
        # a float has no exact denominator; refuse it as `Poly` does
        raise TypeError("matrix values must be int or Fraction") from None
    out = Matrix((), den)
    for row in rows:
        numerators = {}
        for j, v in row.items():
            if v:
                numerators[j] = v.numerator * (den // v.denominator)
        out.append(numerators)
    return out


def _lowest(rows: List[dict], den: int) -> Matrix:
    """Freshly built rows over den, divided in place by their gcd with
    den; zero gets den 1."""
    if den != 1:
        g = gcd(den, *itertools.chain.from_iterable(map(dict.values, rows)))
        if g != 1:
            den //= g
            for row in rows:
                for j in row:
                    row[j] //= g
    return Matrix(rows, den)


def zeros(n: int) -> Matrix:
    return Matrix({} for _ in range(n))


def diagonal(values: Sequence[Union[int, Fraction]]) -> Matrix:
    return _keep_diagonal(from_values({i: v} for i, v in enumerate(values)))


def _keep_diagonal(m: Matrix) -> Matrix:
    """m, built diagonal, with its diagonal numerators kept in `diag`."""
    m.diag = [row.get(i, 0) for i, row in enumerate(m)]
    return m


def _mul_into(rows: List[dict], a: Matrix, b: Matrix, sign: int) -> None:
    """Add sign * (the numerators of a*b) into rows, row by row; an
    entry that cancels is deleted."""
    for ai, row in zip(a, rows):
        if ai:
            for k, c in ai.items():
                c *= sign
                for j, x in b[k].items():
                    if j in row:
                        v = row[j] + c * x
                        if v:
                            row[j] = v
                        else:
                            del row[j]
                    else:
                        row[j] = c * x


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b):
        raise ValueError(f"matrix sizes differ: {len(a)} and {len(b)}")
    rows = [{} for _ in a]
    _mul_into(rows, a, b, 1)
    return _lowest(rows, a.den * b.den)


def _combine(a: Matrix, b: Matrix, negate: bool) -> Matrix:
    if len(a) != len(b):
        raise ValueError(f"matrix sizes differ: {len(a)} and {len(b)}")
    # both operands over the lcm of their denominators
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    if negate:
        sb = -sb
    rows = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        if sa != 1:
            for j in row:
                row[j] *= sa
        for j, x in rb.items():
            x *= sb
            if j in row:
                x += row[j]
                if not x:
                    del row[j]
                    continue
            row[j] = x
        rows.append(row)
    return _lowest(rows, den)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return _combine(a, b, False)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return _combine(a, b, True)


def mat_scale(c, a: Matrix) -> Matrix:
    c = _coeff(c)
    if not c:
        return zeros(len(a))
    num = c.numerator
    rows = []
    for row in a:
        out = {}
        if row:
            for j, x in row.items():
                out[j] = num * x
        rows.append(out)
    return _lowest(rows, a.den * c.denominator)


class ModuleRealization:
    """A basis of patterns plus exact matrices for every generator."""

    __slots__ = ("n", "basis", "matrices", "top", "signs", "interior")

    def __init__(self, n: int, basis: List[Pattern], matrices: Dict[str, Matrix],
                 top: Optional[Tuple[int, ...]] = None,
                 signs: Optional[SignData] = None,
                 interior: Optional[List[int]] = None):
        self.n = n
        self.basis = basis
        self.matrices = matrices
        self.top = top
        self.signs = signs
        self.interior = interior

    @property
    def dim(self) -> int:
        return len(self.basis)

    def spectrum(self, name: str) -> List[Fraction]:
        m = self.matrices[name]
        return [m.entry(i, i) for i in range(self.dim)]

    def to_json(self) -> dict:
        """The module export.  `"matrices"` holds the `Matrix` objects
        themselves, which `cli._render_json` writes as dense rows of
        value strings straight from their sparse rows; ``json.dumps``
        would not write them in that form."""
        body = {
            "n": self.n,
            "dim": self.dim,
            "basis": [[[str(v) for v in row] for row in p] for p in self.basis],
            "matrices": dict(self.matrices),
        }
        if self.top is not None:
            body["top"] = list(self.top)
        if self.interior is not None:
            body["interior"] = self.interior
        return body


def _rows(lo: int, hi: int) -> slice:
    """The slice of rows lo..hi of a pattern's entries laid out flat; a
    key holds rows 1..n-1, as row n is the same in every basis pattern."""
    return slice(lo * (lo - 1) // 2, hi * (hi + 1) // 2)


def _ladder_value(rows, i: int, sign: int, square: int) -> Tuple[int, int]:
    """(num, den) in lowest terms, den > 0, of a(k, i, sign) at a point,
    from `gln.a_value` on its two staircase rows scaled by L: a(k, i, +)
    has two more numerator factors than denominator factors, so its den
    takes L^2 = square before the one gcd."""
    num, den = gln.a_value(*rows, i, sign)
    den *= square if sign > 0 else 1
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _check(ctx: Context, k: int, i: int, sign: int, p: Pattern,
           value: Union[int, Fraction]) -> None:
    """ArithmeticError unless the closed-form value of a(k, i, sign) at p
    equals the symbolic `gln.a_coeff` evaluated at p's staircase point."""
    expected = gln.a_coeff(ctx, k, i, sign).evaluate(pattern_point(p))
    if value != expected:
        raise ArithmeticError(f"a({k},{i},{sign:+d}) at {p}: closed form gives {value}, "
                              f"a_coeff gives {expected}")


def _realize(n: int, basis: List[Pattern], keys: List[Tuple[int, ...]],
             top: Tuple[int, ...], scale: int, signs: Optional[SignData]) -> Dict[str, Matrix]:
    """Exact matrices of every generator on a basis of patterns, built
    from ints on the lattice scaled by an int L (1 for a finite module):
    `keys[j]` holds L times each entry of rows 1..n-1 of `basis[j]` in
    `shift_vars` order, and `top` L times the top row.  Each ladder
    summand A_ki moves entry (k, i) by one, so A_ki+- adds +-L at
    `shift_pos((k, i))`, with its coefficient a(k, i, +-) taken at the
    source; targets outside the basis are dropped.  A source's k
    summands of X_k+- reach k distinct targets, so X_k+- is filled in
    the same pass, with no matrix sum.  X_kk is a row-sum difference over
    L, and V_k the Vandermonde of the scaled staircase row over
    L^(k(k-1)/2); both keep their diagonal numerators in `diag`.
    a(k, i, +-) reads rows k and k+-1 only, and V_k
    row k only, so each is computed once per distinct slice of the keys
    over those rows, a(k, i, +-) in closed form (`_ladder_value`).  That
    is checked against the symbolic `gln.a_coeff` (`_check`), the one
    reader of `basis`, at the first source where the summand's value is
    nonzero (at the first basis vector if it is zero at every source),
    since a wrong coefficient that keeps a vanishing factor agrees on 0.
    A value's numerator is scaled once per slice to the lcm of the value
    denominators of its (k, +-) family, and A_ki+- and X_k+- are filled
    from it and put into lowest terms by `_lowest`."""
    index = {key: j for j, key in enumerate(keys)}
    matrices: Dict[str, Matrix] = {}
    # row k of each basis vector; the top row is in no key
    row_k = [[key[span] or top for key in keys] for span in [_rows(k, k) for k in range(1, n + 1)]]
    sums = [[0] * len(keys)] + [list(map(sum, rows)) for rows in row_k]
    for k in range(1, n + 1):
        matrices[f"X{k}{k}"] = _keep_diagonal(_lowest(
            [{j: x} if x else {} for j, x in enumerate(map(int.__sub__, sums[k], sums[k - 1]))],
            scale))
    for k in range(2, n + 1):
        values = {row: (1 if signs is None else signs.rows[k][row])
                  * _vandermonde([v - scale * i for i, v in enumerate(row)])
                  for row in dict.fromkeys(row_k[k - 1])}
        matrices[f"V{k}"] = _keep_diagonal(_lowest([{j: values[row]} if values[row] else {}
                                                    for j, row in enumerate(row_k[k - 1])],
                                                   scale ** (k * (k - 1) // 2)))

    ctx = Context.triangle(n)
    for k in range(1, n):
        for sign, tag in ((1, "+"), (-1, "-")):
            src, move = k + sign, sign * scale
            span = _rows(min(k, src), max(k, src))
            parts = [key[span] for key in keys]
            # scaled staircase rows k and k+-1 of one key per distinct part
            points = {part: [[v - scale * i for i, v in enumerate((key + top)[_rows(r, r)])]
                             for r in (k, src)]
                      for part, key in dict(zip(parts, keys)).items()}
            summands = []
            for i in range(1, k + 1):
                pos = ctx.shift_pos((k, i))
                memo, moves, checked = {}, [], False
                for j, key in enumerate(keys):
                    ti = index.get(key[:pos] + (key[pos] + move,) + key[pos + 1:])
                    if ti is not None:
                        part = parts[j]
                        if part not in memo:
                            value = memo[part] = _ladder_value(points[part], i, sign, scale ** 2)
                            if value[0] and not checked:
                                _check(ctx, k, i, sign, basis[j], Fraction(*value))
                                checked = True
                        moves.append((ti, j, part))
                if not checked:
                    value = _ladder_value(points[parts[0]], i, sign, scale ** 2)
                    _check(ctx, k, i, sign, basis[0], Fraction(*value))
                summands.append((memo, moves))
            den = lcm(*(d for memo, _ in summands for _, d in memo.values()))
            ladder = [{} for _ in keys]
            for i, (memo, moves) in enumerate(summands, start=1):
                scaled = {part: num * (den // d) for part, (num, d) in memo.items() if num}
                rows = [{} for _ in keys]
                for ti, j, part in moves:
                    num = scaled.get(part)
                    if num is not None:
                        rows[ti][j] = ladder[ti][j] = num
                matrices[f"A{k}{i}{tag}"] = _lowest(rows, den)
            matrices[f"X{k}{tag}"] = _lowest(ladder, den)
    return matrices


def build_module(top: Sequence[int], signs: Optional[SignData] = None) -> ModuleRealization:
    """Finite-dimensional module on the interlacing patterns below `top`;
    without sign data every V_k takes the plus sign.  The basis comes
    from the row walk the sign data was chosen on, or else a new one."""
    top = _check_dominant(top)
    fillings = row_fillings(top) if signs is None else signs.fillings
    n = len(top)
    if fillings[len(fillings)] != [top]:
        raise ValueError(f"sign data chosen under another top row than {top}")
    basis = _chains(fillings)
    keys = [sum(p[:-1], ()) for p in basis]
    return ModuleRealization(n=n, basis=basis, matrices=_realize(n, basis, keys, top, 1, signs),
                             top=top, signs=signs)


def module_relation_report(mod: ModuleRealization) -> VerificationReport:
    """Exact matrix checks of the defining relations on a finite module.

    `gln_catalogue` and V_k^2 = the evaluated squared Vandermonde run
    for every sign choice; `single_shift_catalogue` for the all-plus
    choice, the construction the classification produces, and at rank 3
    only: it holds at ranks 4 and 5 too, but its keys would change the
    `gt --top` outputs recorded in `perfbench/reference.json`.

    Each side is a `Matrix` in canonical form, so a relation holds when
    `lhs == rhs`; no difference is built.  The squared Vandermonde is
    evaluated once per distinct row filling, as a product of its factors
    (`squared_vandermonde`), so a rank-9 report does not expand the 9!
    terms of V_9.
    """
    n = mod.n
    if n < 2:
        raise ValueError(f"the relation report needs a top row of length "
                         f"n >= 2 (got n={n})")
    rep = VerificationReport(f"module:{'-'.join(map(str, mod.top or ()))}")
    M = mod.matrices

    def squares(k):
        one = {p[k - 1]: p for p in mod.basis}
        values = {row: squared_vandermonde(k, p) for row, p in one.items()}
        return diagonal([values[p[k - 1]] for p in mod.basis])

    squared = (("module", f"module:V{k}sq-consistency",
                f"V{k} eigenvalue squares match the evaluated squared Vandermonde",
                M[f"V{k}"] * M[f"V{k}"], squares(k)) for k in range(2, n + 1))
    all_plus = mod.signs is None or mod.signs.is_all_plus
    rank3 = single_shift_catalogue(3, M) if n == 3 and all_plus else ()
    for _, key, anchor, lhs, rhs in itertools.chain(gln_catalogue(n, M),
                                                    squared, rank3):
        rep.add(IdentityResult(key, anchor, lhs == rhs))
    return rep


# ----------------------------------------------------------------------
# generic modules on a shifted lattice window

def _on_lattice(p: Pattern) -> Tuple[int, Tuple[Tuple[int, ...], ...], bool]:
    """(L, p times L, whether p is regular) for L the lcm of p's
    denominators: a staircase difference on rows 1..n-1 is an integer
    exactly when L divides the scaled difference."""
    scale = lcm(*(v.denominator for row in p for v in row))
    point = tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in p)
    return scale, point, all((a - b) % scale for row in point[:-1]
                             for a, b in itertools.combinations(row, 2))


def is_regular_point(rows: Sequence[Sequence], n: int) -> bool:
    return _on_lattice(normalize_pattern(rows)[:n])[2]


def generic_dim(n: int, radius: int) -> int:
    """Size of the window of shifts with entries in [-radius, radius]:
    one entry per variable of rows 1..n-1."""
    return (2 * radius + 1) ** (n * (n - 1) // 2)


def build_generic_module(rows: Sequence[Sequence], radius: int) -> ModuleRealization:
    """Module on the window of lattice shifts around a regular point.

    Basis vectors are the staircase point moved by every shift vector
    with entries bounded by the radius; generators act by evaluated
    coefficients and targets outside the window are truncated.  The
    interior indices are those whose immediate neighbors all stay in
    the window, so quadratic relations hold there exactly.
    """
    p = normalize_pattern(rows)
    n = len(p)
    if radius < 0:
        raise ValueError("window radius must be nonnegative")
    check_module_dim(generic_dim(n, radius))
    scale, point, regular = _on_lattice(p)
    if not regular:
        raise ValueError("point is not regular: some staircase row "
                         "difference is an integer")
    # each entry of rows 1..n-1 over the window, in lexicographic order
    window = range(-radius, radius + 1)
    keys = list(itertools.product(*([v + scale * m for m in window]
                                    for v in sum(point[:-1], ()))))
    spans = [_rows(k, k) for k in range(1, n)]
    basis = [tuple(e[span] for span in spans) + p[-1:]
             for e in itertools.product(*([v + m for m in window] for v in sum(p[:-1], ())))]
    interior = [i for i, w in enumerate(itertools.product(window, repeat=len(keys[0])))
                if all(abs(m) <= radius - 1 for m in w)] if radius >= 1 else []
    return ModuleRealization(n=n, basis=basis, interior=interior,
                             matrices=_realize(n, basis, keys, point[-1], scale, None))


def columns_equal(a: Matrix, b: Matrix, cols: Iterable[int]) -> bool:
    """Whether a and b agree on the columns cols, read off their stored
    entries, each cross-multiplied by the other's `den`, up to the first
    mismatch: no difference is built."""
    cols = set(cols)
    da, db = a.den, b.den
    for ra, rb in zip(a, b):
        for j, x in ra.items():
            if j in cols and x * db != rb.get(j, 0) * da:
                return False
        for j in rb:
            if j in cols and j not in ra:
                return False
    return True


def generic_module_report(mod: ModuleRealization) -> VerificationReport:
    """[X_k+, X_k-] = X_kk - X_{k+1,k+1}, then `relations.gln_weights`,
    each two sides compared on the interior columns (`columns_equal`),
    where the window truncates no term of either side."""
    if mod.n < 2:
        raise ValueError(f"the generic relation report needs a point with "
                         f"n >= 2 rows (got n={mod.n})")
    if not mod.interior:
        raise ValueError("the generic relation report needs a window with "
                         "interior vectors (radius >= 1)")
    rep = VerificationReport("generic-module")
    M = mod.matrices
    cols = mod.interior
    ladders = ((f"[X{k}+,X{k}-]", f"[X{k}+, X{k}-] = X{k}{k} - X{k + 1}{k + 1}",
                commutator(M[f"X{k}+"], M[f"X{k}-"]), M[f"X{k}{k}"] - M[f"X{k + 1}{k + 1}"])
               for k in range(1, mod.n))
    for bracket, anchor, lhs, rhs in itertools.chain(ladders, gln_weights(mod.n, M)):
        rep.add(IdentityResult(f"generic:{bracket}", f"{anchor} on interior vectors",
                               columns_equal(lhs, rhs, cols)))
    return rep
