"""Minkowski metric algebra: the metric, four-vectors and the Lorentz-group tests.

Conventions used throughout the package: signature (+,-,-,-) and the first index
of every matrix is the contravariant one.  Natural units: the speed of light
is 1 in the Dirac and the worldline formulas alike.
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
    """eta L^T eta; equals L^-1 when L is Lorentz. Defined for any (..., 4, 4) stack.

    eta is diagonal, so eta M eta is M with entry (i, j) times eta_ii eta_jj."""
    return np.swapaxes(np.asarray(L, dtype=float), -1, -2) * np.outer(np.diag(ETA), np.diag(ETA))


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


#: The largest Lorentz defect `require_lorentz` accepts.
_LORENTZ_TOL = 1e-8


def require_lorentz(L, what: str):
    """Refuse a (..., 4, 4) stack unless every L is Lorentz within _LORENTZ_TOL; a NaN
    defect is refused."""
    defect = lorentz_defect(L)
    if not defect <= _LORENTZ_TOL:
        raise ValueError(f"{what} is not Lorentz (not a Lorentz matrix): "
                         f"|L^T eta L - eta| = {defect:.3e} > {_LORENTZ_TOL:.3e}")

