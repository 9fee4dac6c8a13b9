"""Mechanical verification of the identity catalogue.

Each identity is an exact equality of skew-ring elements; a check
either passes or fails with the nonzero difference attached as a
witness.  Suites are pure functions and their reports are rendered in a
fixed order, so output is reproducible byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .polys import Context, Poly, elementary_symmetric, vandermonde
from .ratfunc import RatFunc, linear_factor
from .skew import RowPermutation, SkewElement, commutator, sym_generators
from . import gln


@dataclass
class IdentityResult:
    key: str
    anchor: str
    ok: bool
    witness: Optional[SkewElement] = None
    seconds: float = 0.0

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

    @property
    def failures(self) -> List[IdentityResult]:
        return [r for r in self.results if not r.ok]

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
    """Decide lhs == rhs exactly; a failure carries lhs - rhs."""
    start = time.monotonic()
    diff = lhs - rhs
    ok = diff.is_zero
    return IdentityResult(key, anchor, ok, None if ok else diff,
                          time.monotonic() - start)


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
    ctx = gln.triangle(n)
    rep = VerificationReport("gl2")
    x = lambda k, i: Poly.var(ctx, (k, i))

    X1p, X1m = gln.gen_X(ctx, 1, +1), gln.gen_X(ctx, 1, -1)
    X11, X22 = gln.gen_Xkk(ctx, 1), gln.gen_Xkk(ctx, 2)
    V2 = gln.gen_V(ctx, 2)
    zero = SkewElement.zero(ctx)

    for name, u in (("X1+", X1p), ("X1-", X1m), ("X11", X11), ("X22", X22)):
        rep.add(verify_identity(
            f"center:V2:{name}", f"V2 commutes with {name}",
            commutator(V2, u), zero))

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

    swap = RowPermutation.transposition(ctx, 2, 1, 2)
    for name, u in (("X1+", X1p), ("X1-", X1m), ("X11", X11), ("X22", X22)):
        rep.add(verify_identity(
            f"swap-fixes:{name}", f"row-2 swap fixes {name}", u.act(swap), u))
    rep.add(verify_identity(
        "swap-negates:V2", "row-2 swap negates V2", V2.act(swap), -V2))
    return rep


# ----------------------------------------------------------------------
# rank 3

# weight of A_ij under the commutative elements, as displayed column order
# (X11, X22, X33, V2, V3)
ALPHA = {
    (1, 1): {"X11": 1, "X22": -1, "X33": 0, "V2": 0, "V3": 0},
    (2, 1): {"X11": 0, "X22": 1, "X33": -1, "V2": 1, "V3": 0},
    (2, 2): {"X11": 0, "X22": 1, "X33": -1, "V2": -1, "V3": 0},
}


def _gl3_elements(ctx: Context):
    elems = {
        "X11": gln.gen_Xkk(ctx, 1),
        "X22": gln.gen_Xkk(ctx, 2),
        "X33": gln.gen_Xkk(ctx, 3),
        "V2": gln.gen_V(ctx, 2),
        "V3": gln.gen_V(ctx, 3),
    }
    for (k, i) in ((1, 1), (2, 1), (2, 2)):
        for sign, tag in ((+1, "+"), (-1, "-")):
            elems[f"A{k}{i}{tag}"] = gln.gen_A(ctx, k, i, sign)
    return elems


def suite_gl3() -> VerificationReport:
    """The rank-3 catalogue: all nine relation families among the
    single-shift generators, both signs and all indices, plus the
    ladder/V2 commutator and cross-checks through matrix-unit images."""
    ctx = gln.triangle(3)
    rep = VerificationReport("gl3")
    zero = SkewElement.zero(ctx)
    E = _gl3_elements(ctx)
    cartan = ["X11", "X22", "X33", "V2", "V3"]
    signs = ((+1, "+"), (-1, "-"))

    gen_order = ["X11", "X22", "X33", "A11+", "A11-", "A21+", "A21-",
                 "A22+", "A22-", "V2", "V3"]
    for name in gen_order:
        rep.add(verify_identity(
            f"i:central:V3:{name}", f"V3 commutes with {name}",
            commutator(E["V3"], E[name]), zero))

    for aidx, a in enumerate(cartan):
        for b in cartan[aidx + 1:]:
            rep.add(verify_identity(
                f"ii:cartan:{a}:{b}", f"{a} and {b} commute",
                commutator(E[a], E[b]), zero))

    for (k, i), row in ALPHA.items():
        for sign, tag in signs:
            A = E[f"A{k}{i}{tag}"]
            for h in cartan:
                rep.add(verify_identity(
                    f"iii:weight:{h}:A{k}{i}{tag}",
                    f"[{h}, A{k}{i}{tag}] = {sign * row[h]} A{k}{i}{tag}",
                    commutator(E[h], A), Fraction(sign * row[h]) * A))

    for sign, tag in signs:
        other = "-" if tag == "+" else "+"
        rep.add(verify_identity(
            f"iv:opposite:A21{tag}:A22{other}",
            f"A21{tag} commutes with A22{other}",
            commutator(E[f"A21{tag}"], E[f"A22{other}"]), zero))
    for i in (1, 2):
        for sign, tag in signs:
            other = "-" if tag == "+" else "+"
            rep.add(verify_identity(
                f"v:opposite:A11{tag}:A2{i}{other}",
                f"A11{tag} commutes with A2{i}{other}",
                commutator(E[f"A11{tag}"], E[f"A2{i}{other}"]), zero))

    rep.add(verify_identity(
        "vi:ladder:A11", "[A11+, A11-] = X11 - X22",
        commutator(E["A11+"], E["A11-"]), E["X11"] - E["X22"]))
    rep.add(verify_identity(
        "vii:ladder:row2", "[A21+, A21-] + [A22+, A22-] = X22 - X33",
        commutator(E["A21+"], E["A21-"]) + commutator(E["A22+"], E["A22-"]),
        E["X22"] - E["X33"]))

    for i in (1, 2):
        for sign, tag in signs:
            A1 = E[f"A11{tag}"]
            rep.add(verify_identity(
                f"viii:serre:A11{tag}:A2{i}{tag}",
                f"[A11{tag}, [A11{tag}, A2{i}{tag}]] = 0",
                commutator(A1, commutator(A1, E[f"A2{i}{tag}"])), zero))

    for sign, tag in signs:
        rep.add(verify_identity(
            f"ix:braid:V2:{tag}",
            f"A22{tag} V2 A21{tag} = A21{tag} V2 A22{tag}",
            E[f"A22{tag}"] * E["V2"] * E[f"A21{tag}"],
            E[f"A21{tag}"] * E["V2"] * E[f"A22{tag}"]))

    for sign, tag in signs:
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
    rep.add(verify_identity(
        "cross:e12-e21", "[E12, E21] = E11 - E22 from unit images",
        commutator(Eij(1, 2), Eij(2, 1)), Eij(1, 1) - Eij(2, 2)))
    rep.add(verify_identity(
        "cross:e23-e32", "[E23, E32] = E22 - E33 from unit images",
        commutator(Eij(2, 3), Eij(3, 2)), Eij(2, 2) - Eij(3, 3)))
    rep.add(verify_identity(
        "cross:e13-e31", "[E13, E31] = E11 - E33 from unit images",
        commutator(Eij(1, 3), Eij(3, 1)), Eij(1, 1) - Eij(3, 3)))
    rep.add(verify_identity(
        "cross:serre:+", "[E12, [E12, E23]] = 0 from unit images",
        commutator(Eij(1, 2), commutator(Eij(1, 2), Eij(2, 3))), zero))
    rep.add(verify_identity(
        "cross:serre:-", "[E21, [E21, E32]] = 0 from unit images",
        commutator(Eij(2, 1), commutator(Eij(2, 1), Eij(3, 2))), zero))
    return rep


def _fourfold(ctx: Context) -> SkewElement:
    return (gln.gen_A(ctx, 2, 1, +1) * gln.gen_A(ctx, 2, 1, -1)
            * gln.gen_A(ctx, 2, 2, +1) * gln.gen_A(ctx, 2, 2, -1))


def suite_invariants() -> VerificationReport:
    """Non-polynomial central coefficients at rank 3: the rational
    product of the row-2 summands and the symmetric fourfold product."""
    ctx = gln.triangle(3)
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

    four = _fourfold(ctx)
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
    ctx = gln.triangle(3)
    rep = VerificationReport("localized")
    V2_poly = vandermonde(ctx, 2)

    for sign, tag in ((+1, "+"), (-1, "-")):
        A21 = gln.gen_A(ctx, 2, 1, sign)
        A22 = gln.gen_A(ctx, 2, 2, sign)
        f, s = linear_factor((2, 1), (2, 2), Fraction(sign))
        inv_vs = RatFunc(Poly.one(ctx), [f], Fraction(s))  # 1/(V2 + sign)
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


SUITES: dict = {
    "gl2": lambda n=None: suite_gl2(2 if n is None else n),
    "gl3": lambda n=3: suite_gl3(),
    "invariants": lambda n=3: suite_invariants(),
    "localized": lambda n=3: suite_localized(),
}


def run_suites(names, n: Optional[int] = None) -> List[VerificationReport]:
    reports = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        reports.append(SUITES[name](n) if name == "gl2" else SUITES[name]())
    return reports
