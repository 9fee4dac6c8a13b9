"""The named elements: shift coefficients, ladders, Vandermondes,
single-shift summands, matrix-unit images, Gelfand invariant images,
and the membership tests for the coefficient rings.
"""

from skewgt import Context, gln, is_invariant
from skewgt.skew import commutator

ctx = Context.triangle(3)

print("a(2,1,-) =", gln.a_coeff(ctx, 2, 1, -1))
print("X2+ =", gln.gen_X(ctx, 2, +1))
print("X22 =", gln.gen_Xkk(ctx, 2))
print()

A21p = gln.gen_A(ctx, 2, 1, +1)
A21m = gln.gen_A(ctx, 2, 1, -1)
print("A21+ summand:", A21p)
print()

print("sum of summands rebuilds the ladder:",
      gln.gen_A(ctx, 2, 1, +1) + gln.gen_A(ctx, 2, 2, +1) == gln.gen_X(ctx, 2, +1))

E13 = gln.matrix_unit_image(ctx, 1, 3)
E31 = gln.matrix_unit_image(ctx, 3, 1)
print("[E13, E31] == E11 - E33:",
      commutator(E13, E31) == gln.gen_Xkk(ctx, 1) - gln.gen_Xkk(ctx, 3))

print("Gelfand invariant image c22 (rank 2):",
      gln.gelfand_invariant_image(ctx, 2, 2))
print()

prod = A21p * A21m
print("A21+ A21- is a non-polynomial pure coefficient:")
print(" ", prod.identity_coefficient())
print("  in the polynomial invariants ring:", gln.membership(prod, "Gamma"))
print("  in the alternating invariants ring:", gln.membership(prod, "GammaTilde"))
print("  in the localized coefficient ring:", gln.membership(prod, "S_localized"))
print()

print("invariance of the generators (alternating product of row groups):")
for name in gln.generator_names(3):
    u = gln.element(ctx, name)
    print(f"  {name:4s} alternating: {is_invariant(u, 'A')!s:5s}"
          f"  symmetric: {is_invariant(u, 'S')}")
