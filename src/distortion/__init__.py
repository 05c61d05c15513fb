"""Exact machinery for certifying subgroup distortion in mapping class groups.

Submodules:
  exact      arbitrary-precision integer linear algebra, Smith normal form,
             cyclotomic splitting, partial-hyperbolicity test
  symplectic the group Sp(2g,Z): the form, and the one kernel that applies
             Dehn twists, behind transvections and twist words
  exterior   the third exterior power, the omega-embedding H -> wedge^3 H,
             Johnson-style target modules and their relative variants
  mapclass   Dehn-twist words acting on homology and the generalized word
             problem for homologically specified subgroups
  engine     equivariant data, growing-vector tests, hyperbolic-word search,
             witness certificates and upper-bound curves
  oracle     brute-force ground truth: word metrics in semidirect products
             and closure orders of finite matrix groups
  cli        command-line front end
"""

__version__ = "0.1.0"

from . import exact, symplectic, exterior, mapclass, engine, oracle  # noqa: F401,E402
