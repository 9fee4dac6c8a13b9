"""Explicit modules on Gelfand-Tsetlin pattern bases.

Finite-dimensional modules are built on the integral interlacing
patterns under a fixed dominant top row; the ladder generators act by
the evaluated shift coefficients, the diagonal generators by row sums,
and each row Vandermonde acts diagonally with a sign choice per
distinct row filling.

The single bridge between pattern entries and the engine variables is
the staircase substitution

    x_ki = lambda_ki - i + 1,

which is forced by requiring the diagonal generator of row 2 to return
the second weight entry on highest-weight patterns.  The Vandermonde
eigenvalue on a row is the product of the staircase-shifted differences
lambda_ki - lambda_kj + j - i over i < j; its square always agrees with
the evaluated square of the Vandermonde polynomial.

Ladder terms whose target leaves the interlacing polytope are dropped.
Some of those dropped terms carry nonzero coefficients (only crossings
of the row read by the numerator are killed by it); the classical
cancellations make every verified relation hold on the surviving
matrix, which the relation report checks exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .polys import VarId, vandermonde
from .relations import ALPHA, IdentityResult, VerificationReport, verify_predicate
from . import gln

Pattern = Tuple[Tuple[Fraction, ...], ...]
Matrix = List[List[Fraction]]


def normalize_pattern(rows: Sequence[Sequence]) -> Pattern:
    out = []
    for k, row in enumerate(rows, start=1):
        if len(row) != k:
            raise ValueError("pattern rows must have lengths 1, 2, ..., n")
        out.append(tuple(Fraction(v) for v in row))
    return tuple(out)


def is_interlaced(p: Pattern) -> bool:
    """Integral interlacing: upper[i] >= lower[i] >= upper[i+1]."""
    for k in range(len(p) - 1):
        lower, upper = p[k], p[k + 1]
        for i in range(len(lower)):
            if not (upper[i] >= lower[i] >= upper[i + 1]):
                return False
    return True


def pattern_point(p: Pattern) -> Dict[VarId, Fraction]:
    """Staircase evaluation point x_ki = lambda_ki - i + 1."""
    return {(k, i): p[k - 1][i - 1] - i + 1
            for k in range(1, len(p) + 1) for i in range(1, k + 1)}


def _check_dominant(top: Sequence[int]) -> Tuple[int, ...]:
    top = tuple(top)
    if not top:
        raise ValueError("empty top row")
    for v in top:
        if int(v) != v:
            raise ValueError("top row must be integral")
    top = tuple(int(v) for v in top)
    if any(top[i] < top[i + 1] for i in range(len(top) - 1)):
        raise ValueError(f"top row {top} is not weakly decreasing")
    return top


def _rows_below(row: Tuple[int, ...]):
    """All integral rows interlacing directly under the given row."""
    ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
    for choice in itertools.product(*ranges):
        yield tuple(choice)


def enumerate_patterns(top: Sequence[int]) -> List[Pattern]:
    """All integral interlacing patterns under the dominant top row,
    in a fixed canonical order."""
    top = _check_dominant(top)
    chains = [(top,)]
    for _ in range(len(top) - 1):
        chains = [(lower,) + chain for chain in chains
                  for lower in _rows_below(chain[0])]
    pats = [normalize_pattern(chain) for chain in chains]
    pats.sort(key=lambda p: sum(p, ()))
    return pats


def weyl_dim(top: Sequence[int]) -> int:
    """Weyl dimension formula; used as an order-of-battle check against
    plain enumeration."""
    top = _check_dominant(top)
    n = len(top)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(top[i] - top[j] + j - i, j - i)
    if dim.denominator != 1:
        raise ValueError(f"Weyl dimension of {top} is not an integer: {dim}")
    return int(dim)


def row_fillings(top: Sequence[int], k: int) -> List[Tuple[int, ...]]:
    """Distinct possible row-k vectors under the top row, sorted."""
    top = _check_dominant(top)
    n = len(top)
    if not (1 <= k <= n):
        raise ValueError(f"row {k} out of range for n={n}")
    frontier = {top}
    for size in range(n - 1, k - 1, -1):
        frontier = {lower for row in frontier for lower in _rows_below(row)}
    return sorted(frontier)


def count_row_fillings(top: Sequence[int], k: int) -> int:
    return len(row_fillings(top, k))


@dataclass
class SignData:
    """One sign per distinct row filling, for every row 2..n."""

    top: Tuple[int, ...]
    rows: Dict[int, Dict[Tuple[int, ...], int]]

    @staticmethod
    def all_plus(top: Sequence[int]) -> "SignData":
        top = _check_dominant(top)
        rows = {k: {f: 1 for f in row_fillings(top, k)}
                for k in range(2, len(top) + 1)}
        return SignData(top, rows)

    @staticmethod
    def from_vectors(top: Sequence[int], vectors: Dict[int, Sequence[int]]) -> "SignData":
        """Signs per row as vectors aligned with the sorted fillings."""
        top = _check_dominant(top)
        data = SignData.all_plus(top)
        for k, vec in vectors.items():
            fillings = row_fillings(top, k)
            if len(vec) != len(fillings):
                raise ValueError(
                    f"row {k} needs {len(fillings)} signs, got {len(vec)}")
            if any(s not in (1, -1) for s in vec):
                raise ValueError("signs must be +1 or -1")
            data.rows[k] = dict(zip(fillings, vec))
        return data

    def sign(self, k: int, filling: Tuple[int, ...]) -> int:
        return self.rows[k][tuple(int(v) for v in filling)]

    @property
    def is_all_plus(self) -> bool:
        return all(s == 1 for row in self.rows.values() for s in row.values())


def act_vandermonde(k: int, p: Pattern, signs: SignData) -> Fraction:
    """Diagonal Vandermonde eigenvalue on a pattern: the chosen sign for
    the row filling times prod_{i<j} (lambda_ki - lambda_kj + j - i)."""
    row = p[k - 1]
    val = Fraction(signs.sign(k, row))
    for i in range(len(row)):
        for j in range(i + 1, len(row)):
            val *= row[i] - row[j] + (j - i)
    return val


def _xkk_value(k: int, p: Pattern) -> Fraction:
    total = sum(p[k - 1], Fraction(0))
    if k >= 2:
        total -= sum(p[k - 2], Fraction(0))
    return total


def act_generator(name: str, p: Pattern) -> List[Tuple[Fraction, Pattern]]:
    """Formal sum produced by a named generator on one pattern.

    Ladder generators return evaluated coefficients toward patterns with
    one entry moved by one; targets outside the interlacing polytope are
    dropped.  Diagonal generators return the pattern itself with its
    eigenvalue.  Vandermonde actions carry sign data and live in
    :func:`act_vandermonde`.
    """
    n = len(p)
    ctx = gln.triangle(n)
    point = pattern_point(p)
    if name.startswith("X") and name[-1] in "+-":
        k = int(name[1:-1])
        sign = 1 if name[-1] == "+" else -1
        out = []
        for i in range(1, k + 1):
            target = _moved(p, k, i, sign)
            if not is_interlaced(target):
                continue
            try:
                coeff = gln.a_coeff(ctx, k, i, sign).evaluate(point)
            except ZeroDivisionError as exc:
                raise ZeroDivisionError(
                    f"{name} at pattern {p}: {exc}") from exc
            if coeff:
                out.append((coeff, target))
        return out
    if name.startswith("X") and name[1:] and name[1] == name[-1] and len(name) == 3:
        k = int(name[1])
        return [(_xkk_value(k, p), p)]
    raise ValueError(f"unknown generator action {name!r}")


def _moved(p: Pattern, k: int, i: int, delta: int) -> Pattern:
    row = list(p[k - 1])
    row[i - 1] += delta
    return p[:k - 1] + (tuple(row),) + p[k:]


# ----------------------------------------------------------------------
# exact dense matrices

def zeros(n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(n)]


def eye(n: int) -> Matrix:
    m = zeros(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = zeros(n)
    for i in range(n):
        ai = a[i]
        for k in range(n):
            c = ai[k]
            if c:
                bk = b[k]
                oi = out[i]
                for j in range(n):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def mat_is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_comm(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


@dataclass
class ModuleRealization:
    """A basis of patterns plus exact matrices for every generator."""

    n: int
    basis: List[Pattern]
    matrices: Dict[str, Matrix]
    top: Optional[Tuple[int, ...]] = None
    signs: Optional[SignData] = None
    interior: Optional[List[int]] = None
    base_point: Optional[Dict[VarId, Fraction]] = None
    radius: Optional[int] = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self, name: str) -> Matrix:
        return self.matrices[name]

    def spectrum(self, name: str) -> List[Fraction]:
        m = self.matrices[name]
        return [m[i][i] for i in range(self.dim)]

    def to_json(self) -> dict:
        body = {
            "n": self.n,
            "dim": self.dim,
            "basis": [[[str(v) for v in row] for row in p] for p in self.basis],
            "matrices": {name: [[str(v) for v in row] for row in m]
                         for name, m in sorted(self.matrices.items())},
        }
        if self.top is not None:
            body["top"] = list(self.top)
        if self.interior is not None:
            body["interior"] = self.interior
        return body


def build_module(top: Sequence[int], signs: Optional[SignData] = None) -> ModuleRealization:
    """Finite-dimensional module on the interlacing patterns below `top`."""
    top = _check_dominant(top)
    n = len(top)
    if signs is None:
        signs = SignData.all_plus(top)
    basis = enumerate_patterns(top)
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)
    matrices: Dict[str, Matrix] = {}

    for k in range(1, n + 1):
        m = zeros(dim)
        for j, p in enumerate(basis):
            m[j][j] = _xkk_value(k, p)
        matrices[f"X{k}{k}"] = m
    for k in range(2, n + 1):
        m = zeros(dim)
        for j, p in enumerate(basis):
            m[j][j] = act_vandermonde(k, p, signs)
        matrices[f"V{k}"] = m

    ctx = gln.triangle(n)
    for k in range(1, n):
        for sign, tag in ((1, "+"), (-1, "-")):
            total = zeros(dim)
            for i in range(1, k + 1):
                single = zeros(dim)
                coeff_fn = gln.a_coeff(ctx, k, i, sign)
                for j, p in enumerate(basis):
                    target = _moved(p, k, i, sign)
                    ti = index.get(target)
                    if ti is None:
                        continue
                    c = coeff_fn.evaluate(pattern_point(p))
                    if c:
                        single[ti][j] = c
                matrices[f"A{k}{i}{tag}"] = single
                total = mat_add(total, single)
            matrices[f"X{k}{tag}"] = total
    return ModuleRealization(n=n, basis=basis, matrices=matrices,
                             top=top, signs=signs)


def _vandermonde_consistency(mod: ModuleRealization) -> List[IdentityResult]:
    """Squares of the diagonal Vandermonde actions must equal the
    Vandermonde polynomial squared, evaluated at the staircase points."""
    out = []
    ctx = gln.triangle(mod.n)
    for k in range(2, mod.n + 1):
        vk = vandermonde(ctx, k)
        spectrum = mod.spectrum(f"V{k}")
        ok = all(spectrum[j] ** 2 == vk.evaluate(pattern_point(p)) ** 2
                 for j, p in enumerate(mod.basis))
        out.append(verify_predicate(
            f"module:V{k}sq-consistency",
            f"V{k} eigenvalue squares match the evaluated squared Vandermonde",
            ok))
    return out


def module_relation_report(mod: ModuleRealization) -> VerificationReport:
    """Exact matrix checks of the defining relations on a finite module.

    The staircase/ladder relations of the enveloping algebra are checked
    for every sign choice; the relations that involve row Vandermondes
    in a nontrivial way hold (and are checked) for the all-plus choice,
    which is the construction the classification produces.
    """
    n = mod.n
    if n < 2:
        raise ValueError(f"the relation report needs a top row of length "
                         f"n >= 2 (got n={n})")
    rep = VerificationReport(f"module:{'-'.join(map(str, mod.top or ()))}")
    M = mod.matrices
    dim = mod.dim

    def chk(key, anchor, residual):
        rep.add(verify_predicate(key, anchor, mat_is_zero(residual)))

    for k in range(1, n):
        for l in range(1, n):
            res = mat_comm(M[f"X{k}+"], M[f"X{l}-"])
            if k == l:
                res = mat_sub(res, mat_sub(M[f"X{k}{k}"], M[f"X{k + 1}{k + 1}"]))
            chk(f"chevalley:[X{k}+,X{l}-]",
                f"[X{k}+, X{l}-] is {'the Cartan difference' if k == l else 'zero'}",
                res)
    for k in range(1, n + 1):
        for l in range(1, n):
            for sign, tag in ((1, "+"), (-1, "-")):
                weight = (1 if k == l else 0) - (1 if k == l + 1 else 0)
                res = mat_sub(mat_comm(M[f"X{k}{k}"], M[f"X{l}{tag}"]),
                              mat_scale(sign * weight, M[f"X{l}{tag}"]))
                chk(f"chevalley:[X{k}{k},X{l}{tag}]",
                    f"diagonal commutation with X{l}{tag}", res)
    for k in range(1, n):
        for l in range(1, n):
            if abs(k - l) == 1:
                for tag in "+-":
                    a, b = M[f"X{k}{tag}"], M[f"X{l}{tag}"]
                    chk(f"serre:X{k}{tag}:X{l}{tag}",
                        f"[X{k}{tag}, [X{k}{tag}, X{l}{tag}]] = 0",
                        mat_comm(a, mat_comm(a, b)))
            elif k != l:
                for tag in "+-":
                    chk(f"commute:X{k}{tag}:X{l}{tag}",
                        f"[X{k}{tag}, X{l}{tag}] = 0",
                        mat_comm(M[f"X{k}{tag}"], M[f"X{l}{tag}"]))

    gen_names = sorted(M)
    for name in gen_names:
        chk(f"central:V{n}:{name}", f"top Vandermonde commutes with {name}",
            mat_comm(M[f"V{n}"], M[name]))

    rep.results.extend(_vandermonde_consistency(mod))

    if n == 3 and mod.signs is not None and mod.signs.is_all_plus:
        cartan = ["X11", "X22", "X33", "V2", "V3"]
        for (k, i), row in ALPHA.items():
            for sign, tag in ((1, "+"), (-1, "-")):
                A = M[f"A{k}{i}{tag}"]
                for h in cartan:
                    chk(f"weight:{h}:A{k}{i}{tag}",
                        f"[{h}, A{k}{i}{tag}] = {sign * row[h]} A{k}{i}{tag}",
                        mat_sub(mat_comm(M[h], A), mat_scale(sign * row[h], A)))
        for sign, tag in ((1, "+"), (-1, "-")):
            other = "-" if tag == "+" else "+"
            chk(f"opposite:A21{tag}:A22{other}", "opposite-sign summands commute",
                mat_comm(M[f"A21{tag}"], M[f"A22{other}"]))
            for i in (1, 2):
                chk(f"opposite:A11{tag}:A2{i}{other}", "opposite-sign summands commute",
                    mat_comm(M[f"A11{tag}"], M[f"A2{i}{other}"]))
                A1 = M[f"A11{tag}"]
                chk(f"serre:A11{tag}:A2{i}{tag}",
                    f"[A11{tag}, [A11{tag}, A2{i}{tag}]] = 0",
                    mat_comm(A1, mat_comm(A1, M[f"A2{i}{tag}"])))
            chk(f"braid:V2:{tag}",
                f"A22{tag} V2 A21{tag} = A21{tag} V2 A22{tag}",
                mat_sub(mat_mul(mat_mul(M[f"A22{tag}"], M["V2"]), M[f"A21{tag}"]),
                        mat_mul(mat_mul(M[f"A21{tag}"], M["V2"]), M[f"A22{tag}"])))
        chk("ladder:A11", "[A11+, A11-] = X11 - X22",
            mat_sub(mat_comm(M["A11+"], M["A11-"]),
                    mat_sub(M["X11"], M["X22"])))
        chk("ladder:row2", "[A21+, A21-] + [A22+, A22-] = X22 - X33",
            mat_sub(mat_add(mat_comm(M["A21+"], M["A21-"]),
                            mat_comm(M["A22+"], M["A22-"])),
                    mat_sub(M["X22"], M["X33"])))
    return rep


# ----------------------------------------------------------------------
# generic modules on a shifted lattice window

def is_regular_point(rows: Sequence[Sequence], n: int) -> bool:
    p = normalize_pattern(rows)
    point = pattern_point(p)
    for k in range(1, n):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                diff = point[(k, i)] - point[(k, j)]
                if diff.denominator == 1:
                    return False
    return True


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
    if not is_regular_point(rows, n):
        raise ValueError("point is not regular: some staircase row "
                         "difference is an integer")
    ctx = gln.triangle(n)
    base = pattern_point(p)
    rank = ctx.shift_rank
    offsets = sorted(itertools.product(range(-radius, radius + 1), repeat=rank))
    index = {w: i for i, w in enumerate(offsets)}
    dim = len(offsets)

    def point_at(w) -> Dict[VarId, Fraction]:
        out = dict(base)
        for pos, m in enumerate(w):
            if m:
                v = ctx.shift_vars[pos]
                out[v] = out[v] + m
        return out

    matrices: Dict[str, Matrix] = {}
    for k in range(1, n + 1):
        poly = gln.gen_Xkk(ctx, k).identity_coefficient()
        m = zeros(dim)
        for j, w in enumerate(offsets):
            m[j][j] = poly.evaluate(point_at(w))
        matrices[f"X{k}{k}"] = m
    for k in range(2, n + 1):
        vk = vandermonde(ctx, k)
        m = zeros(dim)
        for j, w in enumerate(offsets):
            m[j][j] = vk.evaluate(point_at(w))
        matrices[f"V{k}"] = m
    for k in range(1, n):
        for sign, tag in ((1, "+"), (-1, "-")):
            total = zeros(dim)
            for i in range(1, k + 1):
                single = zeros(dim)
                coeff_fn = gln.a_coeff(ctx, k, i, sign)
                pos = ctx.shift_pos((k, i))
                for j, w in enumerate(offsets):
                    target = list(w)
                    target[pos] += sign
                    ti = index.get(tuple(target))
                    if ti is None:
                        continue
                    c = coeff_fn.evaluate(point_at(w))
                    if c:
                        single[ti][j] = c
                matrices[f"A{k}{i}{tag}"] = single
                total = mat_add(total, single)
            matrices[f"X{k}{tag}"] = total

    interior = [i for i, w in enumerate(offsets)
                if all(abs(m) <= radius - 1 for m in w)] if radius >= 1 else []
    basis = []
    for w in offsets:
        moved = point_at(w)
        basis.append(tuple(tuple(moved[(k, i)] + i - 1 for i in range(1, k + 1))
                           for k in range(1, n + 1)))
    return ModuleRealization(n=n, basis=basis, matrices=matrices,
                             interior=interior, base_point=base, radius=radius)


def columns_zero(m: Matrix, cols: Sequence[int]) -> bool:
    return all(not m[r][c] for c in cols for r in range(len(m)))


def generic_module_report(mod: ModuleRealization) -> VerificationReport:
    """Ladder commutators against Cartan differences on interior columns."""
    rep = VerificationReport("generic-module")
    M = mod.matrices
    cols = mod.interior or []
    for k in range(1, mod.n):
        res = mat_sub(mat_comm(M[f"X{k}+"], M[f"X{k}-"]),
                      mat_sub(M[f"X{k}{k}"], M[f"X{k + 1}{k + 1}"]))
        rep.add(verify_predicate(
            f"generic:[X{k}+,X{k}-]",
            f"[X{k}+, X{k}-] = X{k}{k} - X{k + 1}{k + 1} on interior vectors",
            columns_zero(res, cols)))
    for k in range(1, mod.n + 1):
        for l in range(1, mod.n):
            for sign, tag in ((1, "+"), (-1, "-")):
                weight = (1 if k == l else 0) - (1 if k == l + 1 else 0)
                res = mat_sub(mat_comm(M[f"X{k}{k}"], M[f"X{l}{tag}"]),
                              mat_scale(sign * weight, M[f"X{l}{tag}"]))
                rep.add(verify_predicate(
                    f"generic:[X{k}{k},X{l}{tag}]",
                    f"diagonal commutation with X{l}{tag} on interior vectors",
                    columns_zero(res, cols)))
    return rep


def example_nonsemisimple(alpha) -> ModuleRealization:
    """Two copies of the trivial rank-2 module glued by a nondiagonal
    Vandermonde action [[1, alpha], [0, -1]]; its square is the identity
    and the first coordinate line is a submodule."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero; zero gives the split action")
    trivial = normalize_pattern([(0,), (0, 0)])
    matrices = {
        "X1+": zeros(2), "X1-": zeros(2),
        "X11": zeros(2), "X22": zeros(2),
        "V2": [[Fraction(1), alpha], [Fraction(0), Fraction(-1)]],
    }
    return ModuleRealization(n=2, basis=[trivial, trivial], matrices=matrices,
                             top=(0, 0))


def nonsemisimple_report(mod: ModuleRealization) -> VerificationReport:
    rep = VerificationReport("nonsemisimple")
    v2 = mod.matrices["V2"]
    rep.add(verify_predicate(
        "v2-squared-identity", "the glued Vandermonde action squares to the identity",
        mat_is_zero(mat_sub(mat_mul(v2, v2), eye(2)))))
    closed = all(mod.matrices[name][1][0] == 0 for name in sorted(mod.matrices))
    rep.add(verify_predicate(
        "first-line-submodule", "the first coordinate line is closed under all generators",
        closed))
    return rep
