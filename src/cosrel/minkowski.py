"""Minkowski metric algebra: inner product, causal classification, Lorentz predicates.

Conventions used throughout the package: signature (+,-,-,-), the first index of
every matrix is the contravariant one, and the speed of light is an explicit
parameter (default 1.0) wherever it enters a formula.
"""

from __future__ import annotations

import enum

import numpy as np

#: Metric eta = diag(+1,-1,-1,-1); equal to its own inverse.
ETA = np.diag([1.0, -1.0, -1.0, -1.0])
ETA.setflags(write=False)

#: Default validation tolerance (max-norm), sized for double precision with
#: ~10 multiply-accumulate chains.
DEFAULT_TOL = 1e-9


class CausalClass(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


def four_vector(components) -> np.ndarray:
    """Return a validated copy of a 4-vector (finite entries only)."""
    v = np.array(components, dtype=float)
    if v.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("four-vector components must be finite")
    return v


def minkowski_inner(v, w) -> float:
    """Scalar product eta_{mu nu} v^mu w^nu."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(v @ ETA @ w)


def classify(v, tol: float = DEFAULT_TOL) -> CausalClass:
    """Causal class of a nonzero finite vector; the zero vector has no class."""
    v = four_vector(v)
    if not np.any(v != 0.0):
        raise ValueError("causal class of the zero vector is undefined")
    q = minkowski_inner(v, v)
    if q > tol:
        return CausalClass.TIMELIKE
    if q < -tol:
        return CausalClass.SPACELIKE
    return CausalClass.LIGHTLIKE


def lorentz_adjoint(L) -> np.ndarray:
    """eta L^T eta; equals L^-1 when L is Lorentz. Defined for any (..., 4, 4) stack."""
    L = np.asarray(L, dtype=float)
    return ETA @ np.swapaxes(L, -1, -2) @ ETA


def lorentz_defect(L) -> float:
    """Max-norm of L^T eta L - eta over a (..., 4, 4) stack (zero iff every L is Lorentz)."""
    L = np.asarray(L, dtype=float)
    return float(np.abs(np.swapaxes(L, -1, -2) @ ETA @ L - ETA).max())


def lowered_antisymmetry_defect(w) -> float:
    """Max-norm of eta w + (eta w)^T over a (..., 4, 4) stack (zero iff every w is in so(1,3))."""
    low = ETA @ np.asarray(w, dtype=float)
    return float(np.abs(low + np.swapaxes(low, -1, -2)).max())


def is_lorentz(L, tol: float = DEFAULT_TOL) -> bool:
    return lorentz_defect(L) <= tol


def require_lorentz(L, tol: float = DEFAULT_TOL, what: str = "matrix"):
    """Refuse a (..., 4, 4) stack unless every L is Lorentz within tol; a NaN defect is refused."""
    defect = lorentz_defect(L)
    if not defect <= tol:
        raise ValueError(f"{what} is not Lorentz (not a Lorentz matrix): "
                         f"|L^T eta L - eta| = {defect:.3e} > {tol:.3e}")


def lorentz_matrix(entries, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return a validated copy of a Lorentz matrix."""
    L = np.array(entries, dtype=float)
    if L.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise ValueError("matrix entries must be finite")
    require_lorentz(L, tol)
    return L


def is_proper_isochronous(L, tol: float = DEFAULT_TOL) -> bool:
    """True iff det L is 1 within tol and L^0_0 > 0. Raises on non-Lorentz input."""
    L = np.asarray(L, dtype=float)
    require_lorentz(L, tol)
    return bool(abs(np.linalg.det(L) - 1.0) <= tol and L[0, 0] > 0.0)
