"""Relativistic Cosserat mechanics toolkit.

Layers, bottom up: Minkowski algebra (`minkowski`), the Poincare group and its
Lie algebra (`poincare`, `algebra`), lattice exterior calculus (`lattice`,
`deformation`), jet kinematics and balance laws (`kinematics`, `dynamics`),
and the two physical examples (`dirac`, `weyssenhoff`).  `suites` and `cli`
drive the verification batteries.  Importing the package loads no submodule:
each is imported where it is used, so `suites` loads only where a suite runs.
"""

__all__ = ["algebra", "deformation", "dirac", "dynamics", "kinematics",
           "lattice", "minkowski", "poincare", "suites", "weyssenhoff"]

__version__ = "0.1.0"
