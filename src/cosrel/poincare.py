"""The Poincare group as a semi-direct product: (a, L) stacks, composition, the 5x5 block view.

An element is a pair (a, L) of a translation 4-vector and a Lorentz map, held as
(..., 4) and (..., 4, 4) stacks; the 5x5 homogeneous matrix is a view, not the storage.
"""

from __future__ import annotations

import numpy as np


def compose(g: tuple, h: tuple) -> tuple:
    """(a, L)(b, M) = (a + L b, L M) over (..., 4) and (..., 4, 4) stacks of (a, L) pairs."""
    (a, L), (b, M) = g, h
    return a + (L @ b[..., None])[..., 0], L @ M


def homogeneous(a, L) -> np.ndarray:
    """5x5 block matrices [[1, 0], [a, L]] over (..., 4) and (..., 4, 4) stacks."""
    H = np.zeros(np.shape(L)[:-2] + (5, 5))
    H[..., 0, 0] = 1.0
    H[..., 1:, 0] = a
    H[..., 1:, 1:] = L
    return H
