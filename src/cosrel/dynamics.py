"""Fundamental 1-form, virtual work, invariance predicates and balance residuals.

Storage convention: every component array of the dynamical state is the exact
dual of the corresponding kinematical slot, so the Lagrangian virtual-work
pairing is an elementwise sum: F (*grid,4) pairs x, M (*grid,4,4) pairs e,
sigma (*grid,p,4) pairs x_a, mu (*grid,p,4,4) pairs e_a.  Barred moments carry
two lowered indices and pair with the index-raised Lorentz variation summed
over all index pairs (no 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import KinematicalState, jet_action, jet_slots, require_integrable
from .lattice import Lattice
from .minkowski import ETA

_trapz = getattr(np, "trapezoid", None) or np.trapz


def _asym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A - np.swapaxes(A, -1, -2))


class DynamicalState:
    """Fundamental 1-form components (body force, couple, stress, couple-stress)."""

    def __init__(self, lattice: Lattice, F, M, sigma, mu):
        F, M, sigma, mu = jet_slots(lattice, F, M, sigma, mu, "dynamical state")
        for name, arr in (("F", F), ("M", M), ("sigma", sigma), ("mu", mu)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        self.lattice = lattice
        self.F, self.M, self.sigma, self.mu = F, M, sigma, mu


@dataclass
class LagrangianVariation:
    """Virtual displacement in the natural (Lagrangian) slots."""

    dx: np.ndarray
    de: np.ndarray
    dxj: np.ndarray
    dej: np.ndarray


@dataclass
class EulerianVariation:
    """Virtual displacement in the co-moving slots; dI is lowered-antisymmetric."""

    dxi: np.ndarray
    dI: np.ndarray
    dxij: np.ndarray
    dIj: np.ndarray


def barred_moments(phi: DynamicalState, s: KinematicalState) -> tuple[np.ndarray, np.ndarray]:
    """Lowered antisymmetric couple moment and couple stress dressed by the state.

    Both outputs are the coefficients of the raised Lorentz variation slots in
    the co-moving expansion of the virtual work, antisymmetrized over the pair.
    """
    if phi.lattice != s.lattice:
        raise ValueError("dynamical state and kinematical state on different lattices")
    C = np.einsum("...i,...j->...ij", phi.F, s.x) \
        + np.einsum("...ik,...jk->...ij", phi.M, s.e) \
        + np.einsum("...ai,...aj->...ij", phi.sigma, s.xj) \
        + np.einsum("...aik,...ajk->...ij", phi.mu, s.ej)
    Mbar = _asym(C @ ETA)
    D = np.einsum("...ai,...j->...aij", phi.sigma, s.x) \
        + np.einsum("...aik,...jk->...aij", phi.mu, s.e)
    mubar = _asym(D @ ETA)
    return Mbar, mubar


def lagrangian_of(var: EulerianVariation, s: KinematicalState) -> LagrangianVariation:
    """Natural-slot variation generated by a co-moving variation on the state s."""
    return LagrangianVariation(*jet_action((var.dxi, var.dI, var.dxij, var.dIj),
                                           (s.x, s.e, s.xj, s.ej)))


def virtual_work_density(phi: DynamicalState, s: KinematicalState, var) -> np.ndarray:
    """Pointwise pairing of the fundamental form with a virtual displacement."""
    if isinstance(var, LagrangianVariation):
        return (np.einsum("...i,...i->...", phi.F, var.dx)
                + np.einsum("...ij,...ij->...", phi.M, var.de)
                + np.einsum("...ai,...ai->...", phi.sigma, var.dxj)
                + np.einsum("...aij,...aij->...", phi.mu, var.dej))
    if isinstance(var, EulerianVariation):
        Mbar, mubar = barred_moments(phi, s)
        dI_up = var.dI @ ETA
        dIj_up = var.dIj @ ETA
        return (np.einsum("...i,...i->...", phi.F, var.dxi)
                + np.einsum("...ij,...ij->...", Mbar, dI_up)
                + np.einsum("...ai,...ai->...", phi.sigma, var.dxij)
                + np.einsum("...aij,...aij->...", mubar, dIj_up))
    raise TypeError("variation must be LagrangianVariation or EulerianVariation")


def _integrate(lattice: Lattice, values: np.ndarray, axes) -> float:
    """Trapezoidal quadrature over the lattice axes `axes`, one per axis of values."""
    acc = values
    for pos in reversed(range(len(axes))):
        acc = _trapz(acc, dx=lattice.spacing[axes[pos]], axis=pos)
    return float(acc)


def _divergence(lattice: Lattice, jet_array: np.ndarray) -> np.ndarray:
    """Sum over material directions of d_a applied to (*grid, p, ...) arrays."""
    out = np.zeros(jet_array.shape[:lattice.p] + jet_array.shape[lattice.p + 1:])
    for a in range(lattice.p):
        out += lattice.gradient(jet_array[(Ellipsis, a) + (slice(None),) * (jet_array.ndim - lattice.p - 1)], a)
    return out


def jet_variation(lattice: Lattice, dxi0: np.ndarray, dI0: np.ndarray) -> EulerianVariation:
    """Integrable variation: jets are stencil derivatives of the point variation."""
    return EulerianVariation(dxi0, dI0, lattice.jets(dxi0), lattice.jets(dI0))


def total_virtual_work(phi: DynamicalState, s: KinematicalState,
                       dxi0: np.ndarray, dI0: np.ndarray) -> tuple[float, float]:
    """(bulk, boundary) split of the total virtual work of an integrable variation.

    The bulk term carries the balance operator, the boundary term the stress
    flux; their sum matches the direct integral of the pointwise pairing up to
    quadrature error.
    """
    lat = phi.lattice
    var = jet_variation(lat, dxi0, dI0)
    Mbar, mubar = barred_moments(phi, s)
    dI_up = var.dI @ ETA

    div_sigma = _divergence(lat, phi.sigma)
    div_mubar = _divergence(lat, mubar)
    bulk_density = (np.einsum("...i,...i->...", phi.F - div_sigma, var.dxi)
                    + np.einsum("...ij,...ij->...", Mbar - div_mubar, dI_up))
    bulk = _integrate(lat, bulk_density, range(lat.p))

    flux = (np.einsum("...ai,...i->...a", phi.sigma, var.dxi)
            + np.einsum("...aij,...ij->...a", mubar, dI_up))
    boundary = 0.0
    for a in range(lat.p):
        hi = tuple(slice(None) if c != a else -1 for c in range(lat.p))
        lo = tuple(slice(None) if c != a else 0 for c in range(lat.p))
        face = [c for c in range(lat.p) if c != a]
        boundary += _integrate(lat, flux[hi + (a,)], face)
        boundary -= _integrate(lat, flux[lo + (a,)], face)
    return bulk, boundary


def direct_virtual_work(phi: DynamicalState, s: KinematicalState,
                        dxi0: np.ndarray, dI0: np.ndarray) -> float:
    """Integral of the pointwise pairing with the prolonged variation (cross-check route)."""
    var = jet_variation(phi.lattice, dxi0, dI0)
    return _integrate(phi.lattice, virtual_work_density(phi, s, var), range(phi.lattice.p))


def poincare_invariance_residual(phi: DynamicalState, s: KinematicalState) -> tuple[float, float]:
    """Max-norms of the body force and barred couple moment; (0, 0) certifies invariance."""
    Mbar, _ = barred_moments(phi, s)
    return float(np.abs(phi.F).max()), float(np.abs(Mbar).max())


def cosserat_residual(phi: DynamicalState, s: KinematicalState) -> tuple[np.ndarray, np.ndarray]:
    """Balance-law residual fields: r1 = F - div sigma (force-like) and
    r2 = Mbar - div mubar (couple-like, antisymmetric)."""
    require_integrable(s)
    lat = phi.lattice
    Mbar, mubar = barred_moments(phi, s)
    r1 = phi.F - _divergence(lat, phi.sigma)
    r2 = Mbar - _divergence(lat, mubar)
    return r1, r2
