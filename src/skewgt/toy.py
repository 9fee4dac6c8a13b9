"""Rank-one shift algebra over one variable, with centralizer witnesses.

Over C[x] with the single shift d (d sends x to x-1), fix a polynomial
f with f(0) != 0 and set

    X = d * f(x)/x        Y = d^{-1}.

The algebra generated by C[x], X, Y contains 1/(x+c) for every integer
c, and the containment is effective: each inverse is produced as an
explicit word in X and Y, cleared by a polynomial multiple, and finished
with one exact linear division.  `witness_inverse` builds that word,
performs the division, and checks the result against the target, all in
exact arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Tuple

from .polys import Context, Poly, _coeff, is_integer, quote
from .ratfunc import LinearFactor, RatFunc, _split
from .skew import SkewElement

X_VAR = (1, 1)

# Largest exponent of x in `f` and largest |c| in a target 1/(x+c) the
# parsers accept; a larger value is refused before any work starts.
# The two bound different costs, so they stay two budgets: |c| sets how
# many shifted copies of f a witness multiplies and how many parts
# `_cancel` tries against each other, the degree only how large each
# copy is.  With both lifted, a linear f with c = 192 takes 0.055 s and
# f = x^24 + x + 1 with c = 24 0.047 s, but x^192 + x + 1 with c = 1
# 0.007 s; with 32 and 32 a witness takes 0.26 s, with 64 and 64 about
# 20 s, nearly all of it multiplying out the cleared numerator, of degree
# up to 64*65, to divide it (in-process, 2-core VM, Python 3.11).
MAX_DEGREE = 24
MAX_TRANSLATE = 24


class ToySpec:
    """The defining polynomial; its constant term must not vanish."""

    __slots__ = ("f",)

    def __init__(self, f: Poly):
        if f.ctx.kind != "line":
            raise ValueError("f must live in the one-variable context")
        if f.constant_term() == 0:
            raise ValueError("f(0) must be nonzero")
        self.f = f


def build_toy(spec: ToySpec) -> Tuple[SkewElement, SkewElement]:
    """The pair (X, Y) = (d * f(x)/x, d^{-1})."""
    ctx = spec.f.ctx
    fx_over_x = RatFunc(spec.f, [LinearFactor(X_VAR, None, 0)])
    X = SkewElement.from_right(ctx, {(1,): fx_over_x})
    Y = SkewElement(ctx, {(-1,): RatFunc.one(ctx)})
    return X, Y


def _translate(c) -> int:
    """The integer translate c of a target 1/(x+c).  A float raises
    TypeError and a non-integral rational ValueError."""
    c = _coeff(c)
    if type(c) is not int:
        raise ValueError(f"target translate {c} is not an integer")
    return c


def target_ratfunc(ctx: Context, c: int) -> RatFunc:
    """1/(x + c)."""
    return RatFunc(Poly.one(ctx), [LinearFactor(X_VAR, None, _translate(c))])


def _multiplicity(p: Poly, c: int) -> int:
    """Multiplicity of (x + c) in p."""
    m = 0
    while True:
        q = p.exact_div_linear(X_VAR, None, c)
        if q is None:
            return m
        p = q
        m += 1


class WitnessTrace:
    """How an inverse was extracted: the word, the clearing polynomial,
    the division data, and the verified result."""

    __slots__ = ("target_c", "word", "multiplicity", "clear_poly", "quotient",
                 "constant", "witness")

    def __init__(self, target_c: int, word: str, multiplicity: int, clear_poly: Poly,
                 quotient: Poly, constant: Fraction, witness: SkewElement):
        self.target_c = target_c
        self.word = word
        self.multiplicity = multiplicity
        self.clear_poly = clear_poly
        self.quotient = quotient
        self.constant = constant
        self.witness = witness

    def describe(self) -> str:
        """The witness as text; a non-integral constant is parenthesized,
        (1/(1/2)), so the factor cannot be read as (1/1)/2."""
        constant = str(self.constant)
        if "/" in constant:
            constant = f"({constant})"
        return (f"1/(x{self.target_c:+d})" if self.target_c else "1/x") + \
            f" = (1/{constant}) * ( ({self.clear_poly}) * {self.word}" \
            f" - ({self.quotient}) )"


def witness_inverse(spec: ToySpec, c: int) -> WitnessTrace:
    """Produce 1/(x+c) as an explicit algebra element and verify it.

    The word is Y^{c+1}(XY)^m X^{c+1} for c >= 0 and X^{-c}(YX)^m Y^{-c}
    for c <= -1 (printed YX for c = 0 and XY for c = -1).  Over the
    shifts j in range(c), or range(c+1, 0) when c < 0, the clearing
    polynomial is the product of the (x+j) and m is the exact
    multiplicity of (x+c) in the product of the f(x+j).  Since x+c is
    prime, m is the sum over j of its multiplicity in f(x+j), which is
    that of x+c-j in f; the product is never expanded.
    """
    c = _translate(c)
    ctx = spec.f.ctx
    X, Y = build_toy(spec)
    x = Poly.var(ctx, X_VAR)
    clear = Poly.one(ctx)
    m = 0
    for j in (range(c) if c >= 0 else range(c + 1, 0)):
        clear = clear * (x + j)
        m += _multiplicity(spec.f, c - j)
    if c >= 0:
        word = "YX" if c == 0 else f"Y^{c + 1}(XY)^{m}X^{c + 1}"
        element = (Y ** (c + 1)) * ((X * Y) ** m) * (X ** (c + 1))
    else:
        word = "XY" if c == -1 else f"X^{-c}(YX)^{m}Y^{-c}"
        element = (X ** -c) * ((Y * X) ** m) * (Y ** -c)

    target = target_ratfunc(ctx, c)
    cleared = SkewElement.from_coeff(clear) * element
    if cleared.support() != frozenset({(0,)}):
        raise ArithmeticError("witness word is not a pure coefficient")
    coeff = cleared.identity_coefficient()
    if coeff.den != target.den:
        raise ArithmeticError(
            f"cleared coefficient should have exactly one factor x{c:+d} "
            f"below, got {coeff}")
    num = coeff.num
    quotient, remainder = num.divmod_linear(X_VAR, None, c)
    if remainder.degree() > 0:
        raise ArithmeticError("division remainder is not a constant")
    constant = coeff.scale * remainder.constant_term()
    if constant == 0:
        raise ArithmeticError("division left no constant term to solve for")
    quotient_poly = quotient * coeff.scale
    # the check reuses the one expansion, a valid single part or atom:
    # it is primitive with a positive leading coefficient, and x+c does
    # not divide it, as the constant is nonzero
    cleared = SkewElement.from_coeff(RatFunc._from_parts(
        ctx, *_split(num), coeff.den, coeff.scale))
    witness = Fraction(1, 1) / constant * (
        cleared - SkewElement.from_coeff(quotient_poly))

    if witness != SkewElement.from_coeff(target):
        raise ArithmeticError(f"witness for 1/(x+{c}) failed to verify")
    return WitnessTrace(c, word, m, clear, quotient_poly, constant, witness)


# One signed term of `parse_univariate`: a coefficient (an integer or
# a/b), `x` or `x^k`, or a coefficient times one of those, optionally
# written with `*`.
_TERM_RE = re.compile(r"([+-])(?:([0-9]+(?:/[0-9]+)?)(?:\*(?=x))?)?(x(?:\^([0-9]+))?)?")


def parse_univariate(ctx: Context, text: str) -> Poly:
    """Parse '3x^3 + x + 5' style univariate polynomials (also with '*'
    before x and '**' for '^').  Input that is not a sum of such terms
    is refused, never reread."""
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise ValueError("empty polynomial")
    if s[0] not in "+-":
        s = "+" + s
    terms: dict = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not (m and (m.group(2) or m.group(3))):
            raise ValueError(f"cannot parse polynomial {quote(text)}: "
                             f"bad term at {quote(s[pos:])}")
        sign, coeff, xpart, exponent = m.groups()
        power = int(exponent) if exponent else (1 if xpart else 0)
        if power > MAX_DEGREE:
            raise ValueError(f"power x^{power} exceeds the degree "
                             f"budget of {MAX_DEGREE}")
        if not coeff:
            value = 1
        elif "/" not in coeff:
            value = int(coeff)
        else:
            try:
                value = Fraction(coeff)
            except ZeroDivisionError:
                raise ValueError(f"cannot parse polynomial {quote(text)}: bad coefficient "
                                 f"{quote(coeff)}: expected a nonzero denominator") from None
        terms[(power,)] = terms.get((power,), 0) + (value if sign == "+" else -value)
        pos = m.end()
    return Poly(ctx, terms)


def parse_inverse_target(text: str) -> int:
    """Parse '1/x', '1/(x-2)', '1/(x+3)' to the integer translate c."""
    s = text.replace(" ", "")
    if s == "1/x":
        return 0
    if s.startswith("1/(x") and s.endswith(")"):
        body = s[4:-1]
        if body == "":
            return 0
        if body[0] in "+-" and is_integer(body):
            c = int(body)
            if abs(c) > MAX_TRANSLATE:
                raise ValueError(f"target translate {c:+d} exceeds the "
                                 f"budget of |c| <= {MAX_TRANSLATE}")
            return c
    raise ValueError(f"cannot parse inverse target {quote(text)}: expected 1/x "
                     f"or 1/(x+c) with an integer c")
