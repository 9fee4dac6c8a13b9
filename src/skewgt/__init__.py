"""Exact symbolic engine for shift skew rings attached to gl_n.

Sparse rational polynomial arithmetic, the skew monoid ring of integer
shifts with its symmetric and alternating row actions, the named
generator zoo, mechanical relation suites, explicit pattern modules,
and a rank-one shift algebra with effective centralizer witnesses.
"""

from .polys import Context, Poly, elementary_symmetric, shifted_vandermonde, vandermonde
from .ratfunc import LinearFactor, RatFunc, linear_factor
from .skew import SkewElement, alt_generators, commutator, is_invariant, sym_generators
from . import gln, gtmodules, relations, toy

__all__ = [
    "Context", "Poly", "elementary_symmetric", "vandermonde", "shifted_vandermonde",
    "LinearFactor", "RatFunc", "linear_factor",
    "SkewElement", "commutator", "is_invariant",
    "sym_generators", "alt_generators",
    "gln", "gtmodules", "relations", "toy",
]

__version__ = "0.1.0"
