"""The Lie algebra iso(1,3): generator basis, brackets, polarization, exponential."""

from __future__ import annotations

import math

import numpy as np


def rotation_matrix_generator(i: int) -> np.ndarray:
    """J_i as an integer-valued 4x4 array (spatial rotation about axis i)."""
    J = np.zeros((4, 4))
    j, k = (i % 3) + 1, ((i + 1) % 3) + 1  # the two spatial axes rotated into each other
    J[k, j] = 1.0
    J[j, k] = -1.0
    return J


def boost_matrix_generator(i: int) -> np.ndarray:
    """K_i as an integer-valued 4x4 array (boost along spatial axis i)."""
    K = np.zeros((4, 4))
    K[0, i] = 1.0
    K[i, 0] = 1.0
    return K


BASIS_NAMES = ["d0", "d1", "d2", "d3", "J1", "J2", "J3", "K1", "K2", "K3"]


def basis() -> tuple[np.ndarray, np.ndarray]:
    """The ten generators as (10, 4) and (10, 4, 4) (v, w) stacks, in BASIS_NAMES order."""
    v, w = np.zeros((10, 4)), np.zeros((10, 4, 4))
    v[:4] = np.eye(4)
    w[4:7] = [rotation_matrix_generator(i) for i in (1, 2, 3)]
    w[7:] = [boost_matrix_generator(i) for i in (1, 2, 3)]
    return v, w


def bracket(x: tuple, y: tuple) -> tuple:
    """[(v, w), (v', w')] = (w v' - w' v, w w' - w' w) over (..., 4) and (..., 4, 4) stacks."""
    (v, w), (v2, w2) = x, y
    return (w @ v2[..., None])[..., 0] - (w2 @ v[..., None])[..., 0], w @ w2 - w2 @ w


def polarize(w) -> tuple[np.ndarray, np.ndarray]:
    """Split Lorentz parts into rotation and boost, (w - w^T)/2 and (w + w^T)/2, over a
    (..., 4, 4) stack.

    The transpose is the Cartan involution in the orthonormal frame; the two
    outputs sum to w.
    """
    wT = np.swapaxes(w, -1, -2)
    return 0.5 * (w - wT), 0.5 * (w + wT)


#: Below this alpha^2 + beta^2 the two divided differences of exp are summed as
#: series; at the switch the direct quotients are good to ~6e-15 relative, the series
#: to ~4e-16.
_SERIES_BELOW = 1.0
#: Series terms k < 8; |h_k| <= (k+1) r^k, so the first term left out is < 4e-16 relative.
_SERIES_TERMS = 8


def _sinc(x, f):
    """f(x)/x for x >= 0 with f = sinh or sin, and 1 at x = 0."""
    nz = x > 0
    return np.where(nz, f(x) / np.where(nz, x, 1.0), 1.0)


def exp(v, w) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form exponential of (v, w) in iso(1,3) over (..., 4) and (..., 4, 4) stacks.

    Returns (a, L), the blocks of the 5x5 exponential [[1, 0], [a, L]]:
    L = exp w and a = V v with V = sum_k w^k/(k+1)!.  Every w must lie in
    so(1,3) (not checked here).  Its eigenvalues are +-alpha and +-i beta, the
    roots of lambda^4 - t lambda^2 - Pf^2 with t = tr(w^2)/2 and Pf the
    Pfaffian of eta w.  By Cayley-Hamilton, exp w and V are cubics in w whose
    coefficients interpolate e^z and (e^z - 1)/z on those four nodes.  With
    r = alpha^2 + beta^2, A = sinh(alpha/2)/(alpha/2), B = sin(beta/2)/(beta/2),
    q = (sinh alpha/alpha - sin beta/beta)/r and d = (A^2 - B^2)/(2r):

        exp w = (1 + Pf^2 d) + (sin beta/beta + beta^2 q) w + (B^2/2 + alpha^2 d) w^2 + q w^3,
        V     = (sin beta/beta + beta^2 q) + (A^2/2 - alpha^2 d) w + q w^2 + d w^3.

    The larger of alpha^2, beta^2 is the larger root taken directly and the
    smaller one is Pf^2 over it, so neither cancels; cosh alpha - 1 and
    1 - cos beta enter only as alpha^2 A^2/2 and beta^2 B^2/2.  For r below
    _SERIES_BELOW, q = sum_k h_k/(2k+3)! and d = sum_k h_k/(2k+4)!, with
    h_0 = 1, h_1 = t and h_k = t h_(k-1) + Pf^2 h_(k-2).  So the null case
    (r = 0, w^3 = 0) gives exactly I + w + w^2/2 and V = I + w/2 + w^2/6.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    t = 0.5 * np.einsum("...ij,...ji->...", w, w)
    pf = w[..., 0, 2] * w[..., 1, 3] - w[..., 0, 1] * w[..., 2, 3] - w[..., 0, 3] * w[..., 1, 2]
    pf2 = pf * pf
    r = np.hypot(t, 2.0 * pf)
    big = 0.5 * (np.abs(t) + r)
    small = pf2 / np.where(big > 0, big, 1.0)
    a2, b2 = np.where(t >= 0, big, small), np.where(t >= 0, small, big)
    alpha, beta = np.sqrt(a2), np.sqrt(b2)
    A2, B2 = _sinc(0.5 * alpha, np.sinh) ** 2, _sinc(0.5 * beta, np.sin) ** 2
    sin_b = _sinc(beta, np.sin)

    h_prev, h = np.zeros_like(t), np.ones_like(t)
    q_series, d_series = np.zeros_like(t), np.zeros_like(t)
    for k in range(_SERIES_TERMS):
        q_series += h / math.factorial(2 * k + 3)
        d_series += h / math.factorial(2 * k + 4)
        h_prev, h = h, t * h + pf2 * h_prev
    series, safe_r = r < _SERIES_BELOW, np.where(r > 0, r, 1.0)
    q = np.where(series, q_series, (_sinc(alpha, np.sinh) - sin_b) / safe_r)
    d = np.where(series, d_series, 0.5 * (A2 - B2) / safe_r)

    c1 = sin_b + b2 * q
    # Horner's rule, which keeps two (..., 4, 4) arrays: exp w = c0 + w (c1 + w (c2 + q w))
    L = q[..., None, None] * w
    for k in (0.5 * B2 + a2 * d, c1):
        L[..., range(4), range(4)] += k[..., None]
        L = w @ L
    L[..., range(4), range(4)] += (1.0 + pf2 * d)[..., None]
    # and on columns: a = V v = c1 v + w ((A^2/2 - alpha^2 d) v + w (q v + w d v))
    vc = v[..., None]
    a = d[..., None, None] * vc
    for k in (q, 0.5 * A2 - a2 * d, c1):
        a = w @ a + k[..., None, None] * vc
    return a[..., 0], L
