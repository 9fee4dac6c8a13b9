"""Mechanical verification of the identity catalogue.

Each identity is an exact equality of skew-ring elements; a check
either passes or fails with the nonzero difference attached as a
witness.  Elements are canonical, so `verify_identity` decides by `==`
and builds the difference only on a mismatch, as the module report
compares matrices: one decision rule on both backends.  A vanishing
bracket [a, b] = 0 is therefore written as the pair (a*b, b*a), which
spares the subtraction; its witness, a*b - b*a, is the bracket.  The
entries of the catalogues with a diagonal operand (the weights and V_n
central) keep the bracket, which a module matrix takes in one pass
(`gtmodules.Matrix.commutator`).  Suites are pure functions and their
reports are rendered in a fixed order, so output is reproducible byte
for byte.

The defining relations are written once for every rank, over any
elements with `*`, `+`, `-` and scalar multiples: the ladder relations
in `gln_catalogue`, the families iii-ix among the single-shift summands
A_ki± in `single_shift_catalogue`.  Both run on skew elements and on
the matrices of a module (`gtmodules.module_relation_report`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional

from .polys import Context, Poly, elementary_symmetric, vandermonde
from .ratfunc import RatFunc, linear_factor
from .skew import SkewElement, commutator, sym_generators
from . import gln


class IdentityResult:
    __slots__ = ("key", "anchor", "ok", "witness")

    def __init__(self, key: str, anchor: str, ok: bool,
                 witness: Optional[SkewElement] = None):
        self.key = key
        self.anchor = anchor
        self.ok = ok
        self.witness = witness

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


class VerificationReport:
    def __init__(self, suite: str, results: Optional[List[IdentityResult]] = None):
        self.suite = suite
        self.results = results or []

    def add(self, result: IdentityResult):
        self.results.append(result)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def table(self) -> str:
        lines = [f"suite {self.suite}: {sum(r.ok for r in self.results)}"
                 f"/{len(self.results)} identities passed"]
        width = max((len(r.key) for r in self.results), default=0)
        for r in self.results:
            lines.append(f"  [{r.status}] {r.key.ljust(width)}  {r.anchor}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        results = []
        for r in self.results:
            entry = {"id": r.key, "status": r.status, "anchor": r.anchor}
            if not r.ok and r.witness is not None:
                entry["witness"] = r.witness.to_json()
            results.append(entry)
        return {"suite": self.suite, "results": results}


def verify_identity(key: str, anchor: str, lhs: SkewElement, rhs: SkewElement) -> IdentityResult:
    """Decide lhs == rhs exactly; a failure carries lhs - rhs.

    Skew elements are canonical, so equal values compare equal and a
    passing identity builds no difference.  Only on a mismatch is
    lhs - rhs built and decided by `is_zero`, so an operand kept in a
    form that is not canonical cannot give a false fail; a failure keeps
    the difference as its witness."""
    if lhs == rhs:
        return IdentityResult(key, anchor, True)
    diff = lhs - rhs
    ok = diff.is_zero
    return IdentityResult(key, anchor, ok, None if ok else diff)


def verify_predicate(key: str, anchor: str, ok: bool) -> IdentityResult:
    return IdentityResult(key, anchor, bool(ok))


# ----------------------------------------------------------------------
# rank 2

def suite_gl2(n: int = 2) -> VerificationReport:
    """The rank-2 catalogue: centrality of V_2, its square as a Gelfand
    combination, the generalized Weyl algebra presentation, and the
    sign action of the row-2 swap."""
    if n < 2:
        raise ValueError(f"suite gl2 needs n >= 2 (got n={n})")
    ctx = Context.triangle(n)
    rep = VerificationReport("gl2")
    x = lambda k, i: Poly.var(ctx, (k, i))

    X1p, X1m = gln.gen_X(ctx, 1, +1), gln.gen_X(ctx, 1, -1)
    X11, X22 = gln.gen_Xkk(ctx, 1), gln.gen_Xkk(ctx, 2)
    V2 = gln.gen_V(ctx, 2)

    for name, u in (("X1+", X1p), ("X1-", X1m), ("X11", X11), ("X22", X22)):
        rep.add(verify_identity(
            f"center:V2:{name}", f"V2 commutes with {name}", V2 * u, u * V2))

    c21 = gln.gelfand_invariant_image(ctx, 2, 1)
    c22 = gln.gelfand_invariant_image(ctx, 2, 2)
    rep.add(verify_identity(
        "gelfand:c21", "degree-1 Gelfand invariant image is x21 + x22 + 1",
        c21, SkewElement.from_coeff(x(2, 1) + x(2, 2) + 1)))
    rep.add(verify_identity(
        "gelfand:c22", "degree-2 Gelfand invariant image",
        c22, SkewElement.from_coeff(x(2, 1) ** 2 + x(2, 2) ** 2 + x(2, 1) + x(2, 2))))
    rep.add(verify_identity(
        "center:V2sq", "V2 squared equals -c21^2 + 2 c22 + 1",
        V2 * V2, -(c21 * c21) + 2 * c22 + 1))

    e11 = elementary_symmetric(ctx, 1, 1)
    e21 = elementary_symmetric(ctx, 2, 1)
    e22 = elementary_symmetric(ctx, 2, 2)
    t = -e22 + e11 * e21 - e11 ** 2
    sigma_t = t.subs_shift({(1, 1): 1})
    rep.add(verify_identity(
        "gwa:yx", "lowering then raising gives t = -e22 + e11 e21 - e11^2",
        X1m * X1p, SkewElement.from_coeff(t)))
    rep.add(verify_identity(
        "gwa:xy", "raising then lowering gives the shifted t",
        X1p * X1m, SkewElement.from_coeff(sigma_t)))

    gammas = [("e11", e11), ("e21", e21), ("e22", e22), ("V2", vandermonde(ctx, 2))]
    for name, gamma in gammas:
        for sign, gen, tag in ((+1, X1p, "X1+"), (-1, X1m, "X1-")):
            twisted = gamma.subs_shift({(1, 1): sign})
            rep.add(verify_identity(
                f"gwa:twist:{tag}:{name}",
                f"{tag} moves {name} across by the shift of the first row",
                gen * SkewElement.from_coeff(gamma),
                SkewElement.from_coeff(twisted) * gen))

    swap = {(2, 1): (2, 2), (2, 2): (2, 1)}
    for name, u in (("X1+", X1p), ("X1-", X1m), ("X11", X11), ("X22", X22)):
        rep.add(verify_identity(
            f"swap-fixes:{name}", f"row-2 swap fixes {name}", u.act(swap), u))
    rep.add(verify_identity(
        "swap-negates:V2", "row-2 swap negates V2", V2.act(swap), -V2))
    return rep


# ----------------------------------------------------------------------
# rank n

def _weight(H, X, w: int, zero):
    """[H, X] = w X for a weight w of -1, 0 or 1 as `(lhs, rhs)`, with no
    multiple of X built: w = -1 is written [X, H] = X."""
    if w == 1:
        return commutator(H, X), X
    if w == -1:
        return commutator(X, H), X
    return commutator(H, X), zero


def gln_weights(n: int, E):
    """The diagonal weights of the ladder generators as
    `(bracket, anchor, lhs, rhs)`: [X_kk, X_l±] = ±w X_l±, where w is
    +1 for k = l, -1 for k = l + 1 and 0 otherwise."""
    zero = 0 * E["X11"]
    for k in range(1, n + 1):
        for l in range(1, n):
            for sign, tag in ((1, "+"), (-1, "-")):
                weight = (1 if k == l else 0) - (1 if k == l + 1 else 0)
                yield (f"[X{k}{k},X{l}{tag}]", f"diagonal commutation with X{l}{tag}",
                       *_weight(E[f"X{k}{k}"], E[f"X{l}{tag}"], sign * weight, zero))


def gln_catalogue(n: int, E):
    """The rank-n relations over a name -> element map, as `(family,
    key, anchor, lhs, rhs)`: [X_k+, X_l-], the weights, Serre and far
    commutation, and V_n central over E."""
    zero = 0 * E["X11"]
    for k, l in itertools.product(range(1, n), repeat=2):
        yield ("chevalley", f"chevalley:[X{k}+,X{l}-]",
               f"[X{k}+, X{l}-] is {'the Cartan difference' if k == l else 'zero'}",
               commutator(E[f"X{k}+"], E[f"X{l}-"]),
               E[f"X{k}{k}"] - E[f"X{k + 1}{k + 1}"] if k == l else zero)
    for bracket, anchor, lhs, rhs in gln_weights(n, E):
        yield ("chevalley", f"chevalley:{bracket}", anchor, lhs, rhs)
    for k, l in itertools.permutations(range(1, n), 2):
        for tag in "+-":
            a, b = E[f"X{k}{tag}"], E[f"X{l}{tag}"]
            if abs(k - l) == 1:
                ab = commutator(a, b)
                yield ("serre", f"serre:X{k}{tag}:X{l}{tag}",
                       f"[X{k}{tag}, [X{k}{tag}, X{l}{tag}]] = 0", a * ab, ab * a)
            else:
                yield ("commute", f"commute:X{k}{tag}:X{l}{tag}",
                       f"[X{k}{tag}, X{l}{tag}] = 0", a * b, b * a)
    for name in sorted(E):
        yield ("central", f"central:V{n}:{name}", f"top Vandermonde commutes with {name}",
               commutator(E[f"V{n}"], E[name]), zero)


def cartan_names(n: int) -> List[str]:
    """What family iii weighs the A_ki under: X11..Xnn, V2 and V_n."""
    return [f"X{j}{j}" for j in range(1, n + 1)] + list(dict.fromkeys(("V2", f"V{n}")))


def single_shift_catalogue(n: int, E):
    """Families iii-ix among the A_ki±, over the cells 1 <= i <= k <= n-1
    in row-major order, as `(family, key, anchor, lhs, rhs)` like
    `gln_catalogue`: iii the weights (under X_jj, δ_jk - δ_j,k+1; under
    V2, ±1 for A21/A22; under V_n, 0), iv/v opposite signs commute on
    distinct cells of one row / of two rows, vi/vii sum_i [A_ki+, A_ki-]
    = X_kk - X_k+1,k+1, viii Serre between rows k-1 and k, and ix the
    V2 braid (with V_k, k >= 3, it fails)."""
    cells = [(k, i) for k in range(1, n) for i in range(1, k + 1)]
    zero = 0 * E["X11"]
    for k, i in cells:
        for sign, tag in ((+1, "+"), (-1, "-")):
            A = E[f"A{k}{i}{tag}"]
            for h in cartan_names(n):
                if h[0] == "X":
                    w = sign * ((h == f"X{k}{k}") - (h == f"X{k + 1}{k + 1}"))
                else:
                    w = sign * (3 - 2 * i) if h == "V2" and k == 2 else 0
                yield ("iii", f"weight:{h}:A{k}{i}{tag}",
                       f"[{h}, A{k}{i}{tag}] = {w} A{k}{i}{tag}", *_weight(E[h], A, w, zero))

    for family, same_row in (("iv", True), ("v", False)):
        for (l, i), (k, j) in itertools.combinations(cells, 2):
            if (l == k) == same_row:
                for a, b in ((f"A{l}{i}+", f"A{k}{j}-"), (f"A{l}{i}-", f"A{k}{j}+")):
                    yield (family, f"opposite:{a}:{b}", f"{a} commutes with {b}",
                           E[a] * E[b], E[b] * E[a])

    for k in range(1, n):
        brackets = [commutator(E[f"A{k}{i}+"], E[f"A{k}{i}-"]) for i in range(1, k + 1)]
        yield ("vi" if k == 1 else "vii", "ladder:A11" if k == 1 else f"ladder:row{k}",
               " + ".join(f"[A{k}{i}+, A{k}{i}-]" for i in range(1, k + 1))
               + f" = X{k}{k} - X{k + 1}{k + 1}",
               sum(brackets[1:], brackets[0]), E[f"X{k}{k}"] - E[f"X{k + 1}{k + 1}"])

    for k in range(2, n):
        for i, j, tag in itertools.product(range(1, k), range(1, k + 1), "+-"):
            a, b = f"A{k - 1}{i}{tag}", f"A{k}{j}{tag}"
            ab = commutator(E[a], E[b])
            yield ("viii", f"serre:{a}:{b}", f"[{a}, [{a}, {b}]] = 0", E[a] * ab, ab * E[a])

    if n >= 3:
        for tag in "+-":
            a, b = E[f"A21{tag}"], E[f"A22{tag}"]
            yield ("ix", f"braid:V2:{tag}", f"A22{tag} V2 A21{tag} = A21{tag} V2 A22{tag}",
                   b * E["V2"] * a, a * E["V2"] * b)


# ----------------------------------------------------------------------
# rank 3

def suite_gl3() -> VerificationReport:
    """The rank-3 catalogue: all nine relation families among the
    single-shift generators, both signs and all indices, plus the
    ladder/V2 commutator and cross-checks through matrix-unit images."""
    ctx = Context.triangle(3)
    rep = VerificationReport("gl3")
    gen_order = ["X11", "X22", "X33", "A11+", "A11-", "A21+", "A21-",
                 "A22+", "A22-", "V2", "V3"]
    E = {name: gln.element(ctx, name) for name in gen_order}

    for name in gen_order:
        rep.add(verify_identity(
            f"i:central:V3:{name}", f"V3 commutes with {name}",
            E["V3"] * E[name], E[name] * E["V3"]))

    for a, b in itertools.combinations(cartan_names(3), 2):
        rep.add(verify_identity(f"ii:cartan:{a}:{b}", f"{a} and {b} commute",
                                E[a] * E[b], E[b] * E[a]))

    for family, key, anchor, lhs, rhs in single_shift_catalogue(3, E):
        rep.add(verify_identity(f"{family}:{key}", anchor, lhs, rhs))

    for sign, tag in ((+1, "+"), (-1, "-")):
        X2 = gln.gen_X(ctx, 2, sign)
        rep.add(verify_identity(
            f"ladder-defect:X2{tag}",
            f"[V2, X2{tag}] = {sign}(A21{tag} - A22{tag})",
            commutator(E["V2"], X2),
            Fraction(sign) * (E[f"A21{tag}"] - E[f"A22{tag}"])))
        rep.add(verify_identity(
            f"half-sum:A21{tag}", f"A21{tag} is half of X2{tag} plus its V2 defect",
            Fraction(1, 2) * (X2 + Fraction(sign) * commutator(E["V2"], X2)),
            E[f"A21{tag}"]))

    # the same ladder identities recomputed purely from matrix-unit images
    Eij = lambda i, j: gln.matrix_unit_image(ctx, i, j)
    for i, j in ((1, 2), (2, 3), (1, 3)):
        rep.add(verify_identity(
            f"cross:e{i}{j}-e{j}{i}", f"[E{i}{j}, E{j}{i}] = E{i}{i} - E{j}{j} from unit images",
            commutator(Eij(i, j), Eij(j, i)), Eij(i, i) - Eij(j, j)))
    for tag, (i, j), (k, l) in (("+", (1, 2), (2, 3)), ("-", (2, 1), (3, 2))):
        a = Eij(i, j)
        ab = commutator(a, Eij(k, l))
        rep.add(verify_identity(
            f"cross:serre:{tag}", f"[E{i}{j}, [E{i}{j}, E{k}{l}]] = 0 from unit images",
            a * ab, ab * a))
    return rep


def suite_invariants() -> VerificationReport:
    """Non-polynomial central coefficients at rank 3: the rational
    product of the row-2 summands and the symmetric fourfold product."""
    ctx = Context.triangle(3)
    rep = VerificationReport("invariants")
    x = lambda k, i: Poly.var(ctx, (k, i))

    prod = gln.gen_A(ctx, 2, 1, +1) * gln.gen_A(ctx, 2, 1, -1)
    f1, _ = linear_factor((2, 2), (2, 1), Fraction(1))
    f2, _ = linear_factor((2, 2), (2, 1), Fraction(0))
    num = (x(1, 1) - x(2, 1))
    for j in range(1, 4):
        num = num * (x(3, j) - x(2, 1) + 1)
    display = RatFunc(num, [f1, f2], Fraction(-1))
    rep.add(verify_identity(
        "product:display", "A21+ A21- equals the reduced rational function",
        prod, SkewElement.from_coeff(display)))
    rep.add(verify_predicate(
        "product:identity-support", "A21+ A21- is a pure coefficient",
        prod.support() == frozenset({SkewElement.identity_shift(ctx)})))
    rep.add(verify_predicate(
        "product:not-gammatilde", "A21+ A21- has a true denominator",
        not gln.membership(prod, "GammaTilde")))
    rep.add(verify_predicate(
        "product:in-localized", "A21+ A21- lies in the localized coefficient ring",
        gln.membership(prod, "S_localized")))

    four = (gln.gen_A(ctx, 2, 1, +1) * gln.gen_A(ctx, 2, 1, -1)
            * gln.gen_A(ctx, 2, 2, +1) * gln.gen_A(ctx, 2, 2, -1))
    numf = Poly.one(ctx)
    for w in ((2, 1), (2, 2)):
        for j in range(1, 4):
            numf = numf * (x(3, j) - Poly.var(ctx, w) + 1)
    numf = numf * (x(1, 1) - x(2, 1)) * (x(1, 1) - x(2, 2))
    g1, s1 = linear_factor((2, 2), (2, 1), Fraction(1))
    g2, s2 = linear_factor((2, 1), (2, 2), Fraction(1))
    g3, s3 = linear_factor((2, 2), (2, 1), Fraction(0))
    g4, s4 = linear_factor((2, 1), (2, 2), Fraction(0))
    displayf = RatFunc(numf, [g1, g2, g3, g4], Fraction(s1 * s2 * s3 * s4))
    rep.add(verify_identity(
        "fourfold:display", "the fourfold product equals the displayed function",
        four, SkewElement.from_coeff(displayf)))
    for idx, g in enumerate(sym_generators(ctx)):
        rep.add(verify_identity(
            f"fourfold:sym-invariant:{idx}",
            "the fourfold product is fixed by a symmetric generator",
            four.act(g), four))
    rep.add(verify_predicate(
        "fourfold:identity-support", "the fourfold product is a pure coefficient",
        four.support() == frozenset({SkewElement.identity_shift(ctx)})))
    rep.add(verify_predicate(
        "fourfold:denominator", "its reduced denominator is nonempty",
        len(four.identity_coefficient().den) > 0))
    rep.add(verify_predicate(
        "fourfold:outside-polynomial-invariants",
        "hence it avoids the polynomial invariant ring",
        not gln.membership(four, "Gamma")))
    return rep


def suite_localized() -> VerificationReport:
    """Rewritten braid relations once V2 plus or minus 1 is invertible."""
    ctx = Context.triangle(3)
    rep = VerificationReport("localized")
    V2_poly = vandermonde(ctx, 2)

    for sign, tag in ((+1, "+"), (-1, "-")):
        A21 = gln.gen_A(ctx, 2, 1, sign)
        A22 = gln.gen_A(ctx, 2, 2, sign)
        f, s = linear_factor((2, 1), (2, 2), Fraction(sign))
        coeff_comm = RatFunc(Poly.const(ctx, 2 * sign), [f], Fraction(s))
        rep.add(verify_identity(
            f"rewrite:commutator:{tag}",
            f"[A21{tag}, A22{tag}] = ({2 * sign}/(V2{tag}1)) A21{tag} A22{tag}",
            commutator(A21, A22),
            SkewElement.from_coeff(coeff_comm) * (A21 * A22)))
        coeff_swap = RatFunc(V2_poly - sign, [f], Fraction(s))
        rep.add(verify_identity(
            f"rewrite:swap:{tag}",
            f"A22{tag} A21{tag} = ((V2{'-' if sign > 0 else '+'}1)/(V2{tag}1)) A21{tag} A22{tag}",
            A22 * A21,
            SkewElement.from_coeff(coeff_swap) * (A21 * A22)))
        one = RatFunc.one(ctx)
        rep.add(verify_identity(
            f"rewrite:consistency:{tag}",
            "the two rewrites differ by the ring identity 1 - (V2-s)/(V2+s) = 2s/(V2+s)",
            SkewElement.from_coeff(one - coeff_swap),
            SkewElement.from_coeff(coeff_comm)))
    return rep


# Every suite by name, with the rank it is fixed at; None marks gl2,
# which runs at any n >= 2 (default 2).  `run_suites` looks up
# `suite_<name>` at call time, so a wrapper installed on a suite
# function sees every run.
SUITES: Dict[str, Optional[int]] = {
    "gl2": None, "gl3": 3, "invariants": 3, "localized": 3,
}


def run_suites(names, n: Optional[int] = None) -> List[VerificationReport]:
    """Run the named suites in order.  Every name and its rank are
    checked against `n` before any suite runs."""
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        rank = SUITES[name]
        if rank is not None and n not in (None, rank):
            raise ValueError(f"suite {name} runs at n={rank} only (got --n {n})")
    reports = []
    for name in names:
        suite = globals()[f"suite_{name}"]
        reports.append(suite() if SUITES[name] else suite(2 if n is None else n))
    return reports
