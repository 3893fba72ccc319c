"""Kinematical states as 1-jet sections and the deformation action of displacement fields.

A state stores, per lattice point: position x^mu, frame e^mu_nu, and the jet
slots x^mu_a, e^mu_{nu a} (a = material direction, leading jet axis in storage).
Non-integrable sections are first-class: no operation re-derives jets from points.
"""

from __future__ import annotations

import numpy as np

from .deformation import AlgebraForm, maurer_cartan
from .lattice import Lattice, read_grid, write_grid
from .minkowski import require_lorentz


def jet_slot_shapes(lattice: Lattice) -> tuple:
    """Shapes of the four 1-jet slot arrays: lattice axes, then (4,), (4, 4), (p, 4), (p, 4, 4)."""
    p = lattice.p
    return tuple(lattice.shape + tail for tail in ((4,), (4, 4), (p, 4), (p, 4, 4)))


def jet_slots(lattice: Lattice, x, e, xj, ej, what: str) -> tuple:
    """The four 1-jet slots as float arrays; any wrong shape is refused."""
    slots = tuple(np.asarray(arr, dtype=float) for arr in (x, e, xj, ej))
    if any(arr.shape != shape for arr, shape in zip(slots, jet_slot_shapes(lattice))):
        raise ValueError(f"{what} arrays do not match the lattice")
    return slots


def jet_action(g: tuple, s: tuple) -> tuple:
    """(a, L, a_a, L_a) . (x, e, x_a, e_a): the left action, jets by the Leibniz rule."""
    a, L, aj, Lj = g
    x, e, xj, ej = s
    return (a + np.einsum("...ij,...j->...i", L, x),
            np.einsum("...ij,...jk->...ik", L, e),
            aj + np.einsum("...aij,...j->...ai", Lj, x) + np.einsum("...ij,...aj->...ai", L, xj),
            np.einsum("...aij,...jk->...aik", Lj, e) + np.einsum("...ij,...ajk->...aik", L, ej))


class KinematicalState:
    """1-jet section (x, e, x_a, e_a) over the body lattice."""

    def __init__(self, lattice: Lattice, x, e, xj, ej, tol: float = 1e-8):
        x, e, xj, ej = jet_slots(lattice, x, e, xj, ej, "state")
        require_lorentz(e, tol, "frame field")
        self.lattice = lattice
        self.x, self.e, self.xj, self.ej = x, e, xj, ej


class DisplacementField:
    """Jet-valued Poincare displacement section (a, L, a_a, L_a)."""

    def __init__(self, lattice: Lattice, a, L, aj, Lj, tol: float = 1e-8):
        a, L, aj, Lj = jet_slots(lattice, a, L, aj, Lj, "displacement")
        require_lorentz(L, tol, "displacement Lorentz field")
        self.lattice = lattice
        self.a, self.L, self.aj, self.Lj = a, L, aj, Lj


def prolong(lattice: Lattice, fn) -> KinematicalState:
    """Build a state from an analytic object fn(coords) -> (x, e); jets by stencils."""
    x, e = lattice.sample(fn, [(4,), (4, 4)])
    return KinematicalState(lattice, x, e, lattice.jets(x), lattice.jets(e))


def is_integrable(s: KinematicalState, tol: float = 1e-6) -> tuple[bool, float]:
    """Compare stored jets with stencil derivatives of the point coordinates."""
    res_x = np.abs(s.xj - s.lattice.jets(s.x)).max()
    res_e = np.abs(s.ej - s.lattice.jets(s.e)).max()
    residual = float(np.maximum(res_x, res_e))
    return residual <= tol, residual


def require_integrable(s: KinematicalState):
    """Refuse a state whose stored jets differ from the stencil jets of its points by over 1e-6."""
    ok, res = is_integrable(s, 1e-6)
    if not ok:
        raise ValueError(f"state is not integrable: residual {res:.3e} > 1.000e-06")


def identity_displacement(lattice: Lattice) -> DisplacementField:
    return constant_displacement(lattice, np.zeros(4), np.eye(4))


def constant_displacement(lattice: Lattice, a, L) -> DisplacementField:
    """Rigid displacement: one Poincare element applied at every point, zero jets."""
    tails = [shape[lattice.p:] for shape in jet_slot_shapes(lattice)]
    return DisplacementField(lattice, *lattice.sample(lambda x: (a, L, 0.0, 0.0), tails))


def displacement_from_function(lattice: Lattice, fn) -> DisplacementField:
    """Sample fn(coords) -> (a, L); jets by stencils."""
    a, L = lattice.sample(fn, [(4,), (4, 4)])
    return DisplacementField(lattice, a, L, lattice.jets(a), lattice.jets(L))


def deform(chi: DisplacementField, s0: KinematicalState, tol: float = 1e-8) -> KinematicalState:
    """Left action of the displacement on the state, jets by the differentiated action."""
    if chi.lattice != s0.lattice:
        raise ValueError("displacement and state live on different lattices")
    return KinematicalState(s0.lattice, *jet_action((chi.a, chi.L, chi.aj, chi.Lj),
                                                    (s0.x, s0.e, s0.xj, s0.ej)), tol=tol)


def compose_displacements(c2: DisplacementField, c1: DisplacementField,
                          tol: float = 1e-8) -> DisplacementField:
    """Pointwise jet-group product: the displacement acting like c2 after c1."""
    if c2.lattice != c1.lattice:
        raise ValueError("displacements live on different lattices")
    return DisplacementField(c2.lattice, *jet_action((c2.a, c2.L, c2.aj, c2.Lj),
                                                     (c1.a, c1.L, c1.aj, c1.Lj)), tol=tol)


def eulerian_of(chi: DisplacementField) -> AlgebraForm:
    """Eulerian deformation dg g^-1 of the displacement, built from its stored jets."""
    return maurer_cartan(chi.lattice, chi.a, chi.L, chi.aj, chi.Lj)


def eulerian_deform(chi: DisplacementField, s0: KinematicalState,
                    tol: float = 1e-8) -> KinematicalState:
    """Deformed state computed in the co-deformed frame; algebraically equal to deform()."""
    if chi.lattice != s0.lattice:
        raise ValueError("displacement and state live on different lattices")
    E = eulerian_of(chi)
    xi, omega = E.tra.data, E.lor.data
    x = chi.a + np.einsum("...ij,...j->...i", chi.L, s0.x)
    e = np.einsum("...ij,...jk->...ik", chi.L, s0.e)
    xj = xi + np.einsum("...aij,...j->...ai", omega, x) \
        + np.einsum("...ij,...aj->...ai", chi.L, s0.xj)
    ej = np.einsum("...aij,...jk->...aik", omega, e) \
        + np.einsum("...ij,...ajk->...aik", chi.L, s0.ej)
    return KinematicalState(s0.lattice, x, e, xj, ej, tol=tol)


_STATE_ARRAYS = ("x", "e", "xj", "ej")


def write_state(path, s: KinematicalState):
    write_grid(path, "state", s.lattice, {}, {name: getattr(s, name) for name in _STATE_ARRAYS})


def read_state(path) -> KinematicalState:
    lat, _, arrays = read_grid(path, "state", _STATE_ARRAYS)
    return KinematicalState(lat, *arrays)
