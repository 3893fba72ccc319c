"""Kinematical states as 1-jet sections: the slot contract, the jet action, integrability.

A state stores, per lattice point: position x^mu, frame e^mu_nu, and the jet
slots x^mu_a, e^mu_{nu a} (a = material direction, leading jet axis in storage).
Non-integrable sections are first-class: no operation re-derives jets from points.
"""

from __future__ import annotations

import numpy as np

from .lattice import Lattice
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

    def __init__(self, lattice: Lattice, x, e, xj, ej):
        x, e, xj, ej = jet_slots(lattice, x, e, xj, ej, "state")
        require_lorentz(e, "frame field")
        self.lattice = lattice
        self.x, self.e, self.xj, self.ej = x, e, xj, ej


def prolong(lattice: Lattice, fn) -> KinematicalState:
    """Build a state from an analytic object fn(coords) -> (x, e); jets by stencils."""
    x, e = lattice.sample(fn, [(4,), (4, 4)])
    return KinematicalState(lattice, x, e, lattice.jets(x), lattice.jets(e))


def is_integrable(s: KinematicalState) -> tuple[bool, float]:
    """Compare stored jets with stencil derivatives of the point coordinates:
    (residual <= 1e-6, the max-norm residual)."""
    res_x = np.abs(s.xj - s.lattice.jets(s.x)).max()
    res_e = np.abs(s.ej - s.lattice.jets(s.e)).max()
    residual = float(np.maximum(res_x, res_e))
    return residual <= 1e-6, residual


def require_integrable(s: KinematicalState):
    """Refuse a state whose stored jets differ from the stencil jets of its points by over 1e-6."""
    ok, res = is_integrable(s)
    if not ok:
        raise ValueError(f"state is not integrable: residual {res:.3e} > 1.000e-06")

