"""Relativistic Cosserat mechanics toolkit.

Layers, bottom up: Minkowski algebra (`minkowski`), the Poincare group and its
Lie algebra (`poincare`, `algebra`), lattice exterior calculus (`lattice`,
`deformation`), jet kinematics and balance laws (`kinematics`, `dynamics`),
and the two physical examples (`dirac`, `weyssenhoff`).  `suites` and `cli`
drive the verification batteries; `suites` is imported only where a suite runs.
"""

from . import (algebra, deformation, dirac, dynamics, kinematics, lattice,
               minkowski, poincare, weyssenhoff)

__all__ = ["algebra", "deformation", "dirac", "dynamics", "kinematics",
           "lattice", "minkowski", "poincare", "suites", "weyssenhoff"]

__version__ = "0.1.0"
