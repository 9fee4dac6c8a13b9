"""The rank-one shift algebra and its effective centralizer.

For f with nonzero constant term, the algebra generated by C[x],
X = d f(x)/x and Y = d^{-1} contains every 1/(x+c): the witness is an
explicit balanced word, a polynomial multiple, and one linear division,
all verified exactly.
"""

from skewgt import toy
from skewgt.polys import Context, Poly

ctx = Context.line()
x = Poly.var(ctx, toy.X_VAR)

for f in (x + 2, x ** 2 + 1, 3 * x ** 3 + x + 5):
    spec = toy.ToySpec(f)
    X, Y = toy.build_toy(spec)
    print(f"f = {f}")
    print("  Y X =", (Y * X).identity_coefficient())
    for c in (0, 1, 2, -2):
        trace = toy.witness_inverse(spec, c)
        print(f"  {trace.describe()}   [word {trace.word}, m={trace.multiplicity}]")
    print()
