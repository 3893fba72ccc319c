"""Displacement fields and the nabla ladder: deformation, dislocation, incompatibility.

An iso(1,3)-valued k-form is a pair (translation part, Lorentz part).  The
Lie-algebra-valued wedge uses the matrix-product pairing, matching the index
structure w^mu_k ^ w^k_nu, not the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import FormField, Lattice, ext_d, read_grid, wedge, write_grid
from .minkowski import lorentz_adjoint, require_lorentz


@dataclass
class AlgebraForm:
    """iso(1,3)-valued form: vector-valued tra(nslation) and matrix-valued lor(entz) parts."""

    tra: FormField
    lor: FormField

    def __post_init__(self):
        if self.tra.lattice != self.lor.lattice or self.tra.degree != self.lor.degree:
            raise ValueError("translation and Lorentz parts must share lattice and degree")
        if self.tra.value_shape != (4,) or self.lor.value_shape != (4, 4):
            raise ValueError("translation part must be vector-valued, Lorentz part matrix-valued")

    @property
    def lattice(self) -> Lattice:
        return self.tra.lattice

    @property
    def degree(self) -> int:
        return self.tra.degree

    def interior_max(self) -> float:
        return float(np.maximum(self.tra.interior_max(), self.lor.interior_max()))

    @classmethod
    def zeros(cls, lattice: Lattice, degree: int) -> "AlgebraForm":
        return cls(FormField.zeros(lattice, degree, (4,)), FormField.zeros(lattice, degree, (4, 4)))


class GroupField:
    """Poincare displacement field g(rho) = (a(rho), L(rho)) with Lorentz-valid L everywhere."""

    def __init__(self, lattice: Lattice, a: np.ndarray, L: np.ndarray):
        a = np.asarray(a, dtype=float)
        L = np.asarray(L, dtype=float)
        if a.shape != lattice.shape + (4,) or L.shape != lattice.shape + (4, 4):
            raise ValueError("field arrays do not match the lattice")
        require_lorentz(L, "L field")
        self.lattice = lattice
        self.a = a
        self.L = L

    @classmethod
    def from_function(cls, lattice: Lattice, fn) -> "GroupField":
        """Sample fn(coords) -> (a, L) on the lattice through `Lattice.sample`."""
        a, L = lattice.sample(fn, [(4,), (4, 4)])
        return cls(lattice, a, L)


def nabla_group(g: GroupField) -> AlgebraForm:
    """Eulerian deformation E = dg g^-1 of a group field, jets (a_b, L_b) by stencils.

    w_b = L_b L~ and xi_b = a_b - w_b a; the jet axis is the 1-form component axis.
    """
    aj, Lj = g.lattice.jets(g.a), g.lattice.jets(g.L)
    om = Lj @ lorentz_adjoint(g.L)[..., None, :, :]
    xi = aj - (om @ g.a[..., None, :, None])[..., 0]
    return AlgebraForm(FormField(g.lattice, 1, xi), FormField(g.lattice, 1, om))


def dislocation(E: AlgebraForm) -> AlgebraForm:
    """Dislocation (d xi - w ^ xi, d w - w ^ w) of E = (xi, w); it vanishes if E = nabla g."""
    if E.lattice.p < 2:
        raise ValueError("dislocation requires a body of dimension >= 2")
    if E.degree != 1:
        raise ValueError("nabla on forms is defined here for the degree-1 deformation")
    tra = ext_d(E.tra)
    tra.data -= wedge(E.lor, E.tra).data
    lor = ext_d(E.lor)
    lor.data -= wedge(E.lor, E.lor).data
    return AlgebraForm(tra, lor)


def incompatibility(Om: AlgebraForm, E: AlgebraForm) -> AlgebraForm:
    """Incompatibility 3-form of a 2-form Om relative to the deformation E."""
    if Om.lattice.p < 3:
        raise ValueError("incompatibility requires a body of dimension >= 3")
    if Om.lattice != E.lattice:
        raise ValueError("2-form and deformation live on different lattices")
    if Om.degree != 2 or E.degree != 1:
        raise ValueError("expected a 2-form and a deformation 1-form")
    xi, om = E.tra, E.lor
    psi_t = ext_d(Om.tra) + wedge(Om.lor, xi) - wedge(om, Om.tra)
    psi_l = ext_d(Om.lor) + wedge(Om.lor, om) - wedge(om, Om.lor)
    return AlgebraForm(psi_t, psi_l)


def closedness_residual(E: AlgebraForm) -> float:
    """Interior max-norm of d^E; near zero iff E is closed (Lagrangian integrability)."""
    if E.lattice.p < 2:
        raise ValueError("closedness needs a 2-form, so p >= 2")
    return float(np.maximum(ext_d(E.tra).interior_max(), ext_d(E.lor).interior_max()))


def write_algebra_form(path, E: AlgebraForm):
    write_grid(path, "algebra-form", E.lattice, {"degree": E.degree},
               {"translation": E.tra.data, "lorentz": E.lor.data})


def read_algebra_form(path) -> AlgebraForm:
    lat, meta, (tra, lor) = read_grid(path, "algebra-form", ["translation", "lorentz"])
    return AlgebraForm(FormField(lat, meta["degree"], tra), FormField(lat, meta["degree"], lor))


def write_group_field(path, g: GroupField):
    write_grid(path, "group", g.lattice, {}, {"a": g.a, "L": g.L})


def read_group_field(path) -> GroupField:
    lat, _, (a, L) = read_grid(path, "group", ["a", "L"])
    return GroupField(lat, a, L)
