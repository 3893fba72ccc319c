"""The Poincare group as a semi-direct product: elements, composition, the 5x5 block view."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import four_vector


@dataclass(frozen=True)
class PoincareElement:
    """Group element (a, L): translation 4-vector plus Lorentz map.

    The 5x5 homogeneous matrix is a view (see homogeneous_batch), not the storage.
    """

    a: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", four_vector(self.a))
        L = np.array(self.L, dtype=float)
        if L.shape != (4, 4) or not np.isfinite(L).all():
            raise ValueError("L must be a finite 4x4 matrix")
        object.__setattr__(self, "L", L)


def compose_batch(g: tuple, h: tuple) -> tuple:
    """(a, L)(b, M) = (a + L b, L M) over (..., 4) and (..., 4, 4) stacks of (a, L) pairs."""
    (a, L), (b, M) = g, h
    return a + (L @ b[..., None])[..., 0], L @ M


def compose(g: PoincareElement, h: PoincareElement) -> PoincareElement:
    """(a, L)(b, M) = (a + L b, L M)."""
    return PoincareElement(*compose_batch((g.a, g.L), (h.a, h.L)))


def homogeneous_batch(a, L) -> np.ndarray:
    """5x5 block matrices [[1, 0], [a, L]] over (..., 4) and (..., 4, 4) stacks."""
    H = np.zeros(np.shape(L)[:-2] + (5, 5))
    H[..., 0, 0] = 1.0
    H[..., 1:, 0] = a
    H[..., 1:, 1:] = L
    return H
