"""The Lie algebra iso(1,3): generator basis, brackets, polarization, exponential."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .minkowski import four_vector, lowered_antisymmetry_defect
from .poincare import AffineFrame, PoincareElement


@dataclass(frozen=True)
class AlgebraElement:
    """(v, w): infinitesimal translation v^mu and infinitesimal Lorentz map w^mu_nu."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", four_vector(self.v))
        w = np.array(self.w, dtype=float)
        if w.shape != (4, 4) or not np.all(np.isfinite(w)):
            raise ValueError("w must be a finite 4x4 matrix")
        object.__setattr__(self, "w", w)

    def lorentz_defect(self) -> float:
        """Max-norm antisymmetry defect of the index-lowered w (zero on so(1,3))."""
        return lowered_antisymmetry_defect(self.w)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.v + other.v, self.w + other.w)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.v - other.v, self.w - other.w)

    def __rmul__(self, t: float) -> "AlgebraElement":
        return AlgebraElement(t * self.v, t * self.w)


def _zero_w():
    return np.zeros((4, 4))


def translation_generator(mu: int) -> AlgebraElement:
    v = np.zeros(4)
    v[mu] = 1.0
    return AlgebraElement(v, _zero_w())


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


def rotation_generator(i: int) -> AlgebraElement:
    return AlgebraElement(np.zeros(4), rotation_matrix_generator(i))


def boost_generator(i: int) -> AlgebraElement:
    return AlgebraElement(np.zeros(4), boost_matrix_generator(i))


def basis() -> list[AlgebraElement]:
    """The ten generators, ordered (delta_0..delta_3, J_1..J_3, K_1..K_3)."""
    gens = [translation_generator(mu) for mu in range(4)]
    gens += [rotation_generator(i) for i in (1, 2, 3)]
    gens += [boost_generator(i) for i in (1, 2, 3)]
    return gens


BASIS_NAMES = ["d0", "d1", "d2", "d3", "J1", "J2", "J3", "K1", "K2", "K3"]


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """[(v, w), (v', w')] = (w v' - w' v, w w' - w' w)."""
    return AlgebraElement(x.w @ y.v - y.w @ x.v, x.w @ y.w - y.w @ x.w)


def polarize(x: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """Split the Lorentz part into rotation and boost: (w - w^T)/2 and (w + w^T)/2.

    The transpose is the Cartan involution in the orthonormal frame; the two
    outputs carry zero translation and sum to x's Lorentz part.
    """
    rot = 0.5 * (x.w - x.w.T)
    boost = 0.5 * (x.w + x.w.T)
    return AlgebraElement(np.zeros(4), rot), AlgebraElement(np.zeros(4), boost)


def embed_homogeneous(x: AlgebraElement) -> np.ndarray:
    """5x5 embedding [[0, 0], [v, w]] whose matrix exponential lands in the group."""
    H = np.zeros((5, 5))
    H[1:, 0] = x.v
    H[1:, 1:] = x.w
    return H


def exp(x: AlgebraElement) -> PoincareElement:
    """One-parameter subgroup value at t=1 (scaling-and-squaring on the 5x5 embedding)."""
    H = scipy.linalg.expm(embed_homogeneous(x))
    return PoincareElement(H[1:, 0], H[1:, 1:])


def fundamental_vector(x: AlgebraElement, frame_point: AffineFrame) -> tuple[np.ndarray, np.ndarray]:
    """Velocity of act_on_frame(exp(t x), frame_point) at t=0, in frame components.

    In global components the derivative is (E v, E w) with E the frame axes;
    expanding it in the frame's own basis removes E, so the coefficients are
    (v, w) at every frame point.
    """
    del frame_point  # the frame-basis coefficients are frame-independent
    return x.v.copy(), x.w.copy()
