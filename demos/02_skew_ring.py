"""The skew ring of shifts: twisted products, coefficient sides,
evaluation, and the supports of the ladder pair.
"""

from skewgt import Context, Poly, RatFunc, SkewElement, commutator

ctx = Context.triangle(2)
x11 = Poly.var(ctx, (1, 1))

d11 = SkewElement.shift_gen(ctx, (1, 1))
u = SkewElement.from_coeff(x11) * d11
print("u = x11 * d11 squared twists the coefficient:")
print("  u^2 =", u * u)

print("left vs right coefficient form of u:")
print("  left :", dict(u.terms))
print("  right:", u.right_coefficients())

print()
print("evaluation applies shifted right coefficients:")
w = SkewElement.from_right(ctx, {(1,): RatFunc(x11)})
print("  (d11 . x11) applied to x11 gives", w.evaluate(x11))

from skewgt import gln
X1p = gln.gen_X(ctx, 1, +1)
X1m = gln.gen_X(ctx, 1, -1)
print()
print("the ladder commutator collapses to a pure coefficient:")
print("  [X1+, X1-] =", commutator(X1p, X1m))

sup = X1p.support() | X1m.support()
print("supports of the ladder pair:", sorted(sup))
print("they are the signed unit vectors, so they generate the full shift lattice:",
      sup == {(1,), (-1,)})
