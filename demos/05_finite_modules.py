"""Finite-dimensional modules on pattern bases.

Builds the eight-dimensional module with top row (2,1,0), shows the
diagonal spectra, checks every relation as an exact matrix identity,
and flips the sign of the row-2 Vandermonde on two row fillings.
"""

from skewgt import gtmodules as gt

top = (2, 1, 0)
mod = gt.build_module(top)
fillings = gt.row_fillings(top)
print(f"top row {top}: dimension {mod.dim} "
      f"(Weyl formula gives {gt.weyl_dim(top)})")
print("row fillings:", {k: len(fillings[k]) for k in (2, 3)})
print("V2 spectrum:", [str(v) for v in mod.spectrum("V2")])
print("V3 spectrum:", [str(v) for v in mod.spectrum("V3")])
print()

report = gt.module_relation_report(mod)
print(report.table())
print()

print("a sign flip changes the Vandermonde action only:")
signs = gt.SignData.from_vectors(fillings, {2: [1, -1, 1, -1]})
flipped = gt.build_module(top, signs)
print("V2 spectrum now:", [str(v) for v in flipped.spectrum("V2")])
