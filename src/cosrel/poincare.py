"""The Poincare group as a semi-direct product: composition, inversion, frame action."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .minkowski import four_vector, require_lorentz


@dataclass(frozen=True)
class PoincareElement:
    """Group element (a, L): translation 4-vector plus Lorentz map.

    The 5x5 homogeneous matrix is a view (see to_homogeneous), not the storage.
    """

    a: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", four_vector(self.a))
        L = np.array(self.L, dtype=float)
        if L.shape != (4, 4) or not np.isfinite(L).all():
            raise ValueError("L must be a finite 4x4 matrix")
        object.__setattr__(self, "L", L)


def identity() -> PoincareElement:
    return PoincareElement(np.zeros(4), np.eye(4))


def compose_batch(g: tuple, h: tuple) -> tuple:
    """(a, L)(b, M) = (a + L b, L M) over (..., 4) and (..., 4, 4) stacks of (a, L) pairs."""
    (a, L), (b, M) = g, h
    return a + (L @ b[..., None])[..., 0], L @ M


def compose(g: PoincareElement, h: PoincareElement) -> PoincareElement:
    """(a, L)(b, M) = (a + L b, L M)."""
    return PoincareElement(*compose_batch((g.a, g.L), (h.a, h.L)))


def inverse(g: PoincareElement) -> PoincareElement:
    """(-L~ a, L~) with L~ the matrix inverse."""
    Linv = np.linalg.inv(g.L)
    return PoincareElement(-Linv @ g.a, Linv)


def homogeneous_batch(a, L) -> np.ndarray:
    """5x5 block matrices [[1, 0], [a, L]] over (..., 4) and (..., 4, 4) stacks."""
    H = np.zeros(np.shape(L)[:-2] + (5, 5))
    H[..., 0, 0] = 1.0
    H[..., 1:, 0] = a
    H[..., 1:, 1:] = L
    return H


def to_homogeneous(g: PoincareElement) -> np.ndarray:
    """5x5 block matrix [[1, 0], [a, L]]; a homomorphism for compose."""
    return homogeneous_batch(g.a, g.L)


def from_homogeneous(H) -> PoincareElement:
    H = np.asarray(H, dtype=float)
    if (H.shape != (5, 5) or not abs(H[0, 0] - 1.0) <= 1e-12
            or not np.abs(H[0, 1:]).max() <= 1e-12):
        raise ValueError("not a homogeneous Poincare matrix")
    return PoincareElement(H[1:, 0].copy(), H[1:, 1:].copy())


@dataclass(frozen=True)
class AffineFrame:
    """Affine Lorentzian frame (O, e_mu); column nu of `axes` is frame member e_nu."""

    origin: np.ndarray
    axes: np.ndarray
    tol: float = field(default=1e-8, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "origin", four_vector(self.origin))
        axes = np.array(self.axes, dtype=float)
        require_lorentz(axes, self.tol, "frame axes")
        object.__setattr__(self, "axes", axes)


def canonical_frame() -> AffineFrame:
    return AffineFrame(np.zeros(4), np.eye(4))


def act_on_frame(g: PoincareElement, f: AffineFrame) -> AffineFrame:
    """Right action: new origin O + a^mu e_mu (a in the acting frame's axes),
    new axes column nu = e_mu L^mu_nu.  act(h, act(g, f)) = act(compose(g, h), f)."""
    return AffineFrame(f.origin + f.axes @ g.a, f.axes @ g.L, tol=f.tol)
