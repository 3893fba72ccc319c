"""Minkowski metric algebra: the metric, four-vectors and the Lorentz-group tests.

Conventions used throughout the package: signature (+,-,-,-) and the first index
of every matrix is the contravariant one.  The speed of light is a parameter
(default 1.0) of the worldline formulas only; the Dirac module works in natural
units.
"""

from __future__ import annotations

import numpy as np

#: Metric eta = diag(+1,-1,-1,-1); equal to its own inverse.
ETA = np.diag([1.0, -1.0, -1.0, -1.0])
ETA.setflags(write=False)


def four_vector(components) -> np.ndarray:
    """Return a validated copy of a 4-vector (finite entries only)."""
    v = np.array(components, dtype=float)
    if v.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("four-vector components must be finite")
    return v


def lorentz_adjoint(L) -> np.ndarray:
    """eta L^T eta; equals L^-1 when L is Lorentz. Defined for any (..., 4, 4) stack."""
    L = np.asarray(L, dtype=float)
    return ETA @ np.swapaxes(L, -1, -2) @ ETA


def lorentz_defect(L) -> float:
    """Max-norm of L^T eta L - eta over a (..., 4, 4) stack (zero iff every L is Lorentz).

    An entry that overflows or is not finite gives an infinite or NaN defect, silently.
    """
    L = np.asarray(L, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(np.swapaxes(L, -1, -2) @ ETA @ L - ETA).max())


def lowered_antisymmetry_defect(w) -> float:
    """Max-norm of eta w + (eta w)^T over a (..., 4, 4) stack (zero iff every w is in so(1,3))."""
    low = ETA @ np.asarray(w, dtype=float)
    return float(np.abs(low + np.swapaxes(low, -1, -2)).max())


def require_lorentz(L, tol: float, what: str):
    """Refuse a (..., 4, 4) stack unless every L is Lorentz within tol; a NaN defect is refused."""
    defect = lorentz_defect(L)
    if not defect <= tol:
        raise ValueError(f"{what} is not Lorentz (not a Lorentz matrix): "
                         f"|L^T eta L - eta| = {defect:.3e} > {tol:.3e}")

