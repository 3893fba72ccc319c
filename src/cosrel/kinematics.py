"""Kinematical states as 1-jet sections and the deformation action of displacement fields.

A state stores, per lattice point: position x^mu, frame e^mu_nu, and the jet
slots x^mu_a, e^mu_{nu a} (a = material direction, leading jet axis in storage).
Non-integrable sections are first-class: no operation re-derives jets from points.
"""

from __future__ import annotations

import numpy as np

from .lattice import Lattice, read_grid, write_grid
from .minkowski import ETA, lorentz_adjoint, lorentz_defect


def _check_lorentz_field(e: np.ndarray, tol: float, what: str):
    defect = lorentz_defect(e)
    if not defect <= tol:
        raise ValueError(f"{what} is not Lorentz everywhere: defect {defect:.3e}")


class KinematicalState:
    """1-jet section (x, e, x_a, e_a) over the body lattice."""

    def __init__(self, lattice: Lattice, x, e, xj, ej, tol: float = 1e-8):
        p = lattice.p
        x = np.asarray(x, dtype=float)
        e = np.asarray(e, dtype=float)
        xj = np.asarray(xj, dtype=float)
        ej = np.asarray(ej, dtype=float)
        if x.shape != lattice.shape + (4,) or e.shape != lattice.shape + (4, 4) \
                or xj.shape != lattice.shape + (p, 4) or ej.shape != lattice.shape + (p, 4, 4):
            raise ValueError("state arrays do not match the lattice")
        _check_lorentz_field(e, tol, "frame field")
        self.lattice = lattice
        self.x, self.e, self.xj, self.ej = x, e, xj, ej

    def copy(self) -> "KinematicalState":
        return KinematicalState(self.lattice, self.x.copy(), self.e.copy(),
                                self.xj.copy(), self.ej.copy())


class DisplacementField:
    """Jet-valued Poincare displacement section (a, L, a_a, L_a)."""

    def __init__(self, lattice: Lattice, a, L, aj, Lj, tol: float = 1e-8):
        p = lattice.p
        a = np.asarray(a, dtype=float)
        L = np.asarray(L, dtype=float)
        aj = np.asarray(aj, dtype=float)
        Lj = np.asarray(Lj, dtype=float)
        if a.shape != lattice.shape + (4,) or L.shape != lattice.shape + (4, 4) \
                or aj.shape != lattice.shape + (p, 4) or Lj.shape != lattice.shape + (p, 4, 4):
            raise ValueError("displacement arrays do not match the lattice")
        _check_lorentz_field(L, tol, "displacement Lorentz field")
        self.lattice = lattice
        self.a, self.L, self.aj, self.Lj = a, L, aj, Lj


class EulerianDisplacement:
    """Per point and material direction: (xi^mu_a, w^mu_{nu a}) in iso(1,3)."""

    def __init__(self, lattice: Lattice, xi: np.ndarray, omega: np.ndarray):
        self.lattice = lattice
        self.xi = np.asarray(xi, dtype=float)
        self.omega = np.asarray(omega, dtype=float)

    def antisymmetry_defect(self) -> float:
        low = np.einsum("ij,...ajk->...aik", ETA, self.omega)
        return float(np.abs(low + np.swapaxes(low, -1, -2)).max())


def prolong(lattice: Lattice, fn, tol: float = 1e-8) -> KinematicalState:
    """Build a state from an analytic object fn(point) -> (x, e); jets by stencils."""
    x, e = lattice.sample(fn, [(4,), (4, 4)])
    return KinematicalState(lattice, x, e, lattice.jets(x), lattice.jets(e), tol=tol)


def is_integrable(s: KinematicalState, tol: float = 1e-6) -> tuple[bool, float]:
    """Compare stored jets with stencil derivatives of the point coordinates."""
    res_x = np.abs(s.xj - s.lattice.jets(s.x)).max()
    res_e = np.abs(s.ej - s.lattice.jets(s.e)).max()
    residual = float(max(res_x, res_e))
    return residual <= tol, residual


def identity_displacement(lattice: Lattice) -> DisplacementField:
    p = lattice.p
    L = np.broadcast_to(np.eye(4), lattice.shape + (4, 4)).copy()
    return DisplacementField(lattice, np.zeros(lattice.shape + (4,)), L,
                             np.zeros(lattice.shape + (p, 4)), np.zeros(lattice.shape + (p, 4, 4)))


def constant_displacement(lattice: Lattice, a, L) -> DisplacementField:
    """Rigid displacement: one Poincare element applied at every point, zero jets."""
    p = lattice.p
    af = np.broadcast_to(np.asarray(a, dtype=float), lattice.shape + (4,)).copy()
    Lf = np.broadcast_to(np.asarray(L, dtype=float), lattice.shape + (4, 4)).copy()
    return DisplacementField(lattice, af, Lf,
                             np.zeros(lattice.shape + (p, 4)), np.zeros(lattice.shape + (p, 4, 4)))


def displacement_from_function(lattice: Lattice, fn, jets_fn=None, tol: float = 1e-8) -> DisplacementField:
    """Sample fn(point) -> (a, L); jets from jets_fn(point) -> (a_a, L_a) or stencils."""
    a, L = lattice.sample(fn, [(4,), (4, 4)])
    if jets_fn is None:
        aj, Lj = lattice.jets(a), lattice.jets(L)
    else:
        aj, Lj = lattice.sample(jets_fn, [(lattice.p, 4), (lattice.p, 4, 4)])
    return DisplacementField(lattice, a, L, aj, Lj, tol=tol)


def deform(chi: DisplacementField, s0: KinematicalState, tol: float = 1e-8) -> KinematicalState:
    """Left action of the displacement on the state, jets by the differentiated action."""
    if chi.lattice != s0.lattice:
        raise ValueError("displacement and state live on different lattices")
    x = chi.a + np.einsum("...ij,...j->...i", chi.L, s0.x)
    e = np.einsum("...ij,...jk->...ik", chi.L, s0.e)
    xj = chi.aj + np.einsum("...aij,...j->...ai", chi.Lj, s0.x) \
        + np.einsum("...ij,...aj->...ai", chi.L, s0.xj)
    ej = np.einsum("...aij,...jk->...aik", chi.Lj, s0.e) \
        + np.einsum("...ij,...ajk->...aik", chi.L, s0.ej)
    return KinematicalState(s0.lattice, x, e, xj, ej, tol=tol)


def compose_displacements(c2: DisplacementField, c1: DisplacementField,
                          tol: float = 1e-8) -> DisplacementField:
    """Pointwise jet-group product: the displacement acting like c2 after c1."""
    if c2.lattice != c1.lattice:
        raise ValueError("displacements live on different lattices")
    a = c2.a + np.einsum("...ij,...j->...i", c2.L, c1.a)
    L = np.einsum("...ij,...jk->...ik", c2.L, c1.L)
    aj = c2.aj + np.einsum("...aij,...j->...ai", c2.Lj, c1.a) \
        + np.einsum("...ij,...aj->...ai", c2.L, c1.aj)
    Lj = np.einsum("...aij,...jk->...aik", c2.Lj, c1.L) \
        + np.einsum("...ij,...ajk->...aik", c2.L, c1.Lj)
    return DisplacementField(c2.lattice, a, L, aj, Lj, tol=tol)


def eulerian_of(chi: DisplacementField) -> EulerianDisplacement:
    """(xi_a, w_a) = dg g^-1 slots built from the stored jets: w_a = L_a L~, xi_a = a_a - w_a a."""
    Linv = lorentz_adjoint(chi.L)
    omega = np.einsum("...aij,...jk->...aik", chi.Lj, Linv)
    xi = chi.aj - np.einsum("...aij,...j->...ai", omega, chi.a)
    return EulerianDisplacement(chi.lattice, xi, omega)


def eulerian_deform(chi: DisplacementField, s0: KinematicalState,
                    tol: float = 1e-8) -> KinematicalState:
    """Deformed state computed in the co-deformed frame; algebraically equal to deform()."""
    if chi.lattice != s0.lattice:
        raise ValueError("displacement and state live on different lattices")
    eu = eulerian_of(chi)
    x = chi.a + np.einsum("...ij,...j->...i", chi.L, s0.x)
    e = np.einsum("...ij,...jk->...ik", chi.L, s0.e)
    xj = eu.xi + np.einsum("...aij,...j->...ai", eu.omega, x) \
        + np.einsum("...ij,...aj->...ai", chi.L, s0.xj)
    ej = np.einsum("...aij,...jk->...aik", eu.omega, e) \
        + np.einsum("...ij,...ajk->...aik", chi.L, s0.ej)
    return KinematicalState(s0.lattice, x, e, xj, ej, tol=tol)


_STATE_ARRAYS = ("x", "e", "xj", "ej")


def write_state(path, s: KinematicalState):
    write_grid(path, "state", s.lattice, {}, {name: getattr(s, name) for name in _STATE_ARRAYS})


def read_state(path) -> KinematicalState:
    lat, _, arrays = read_grid(path, "state", _STATE_ARRAYS)
    return KinematicalState(lat, *arrays)
