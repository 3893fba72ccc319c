import warnings

import numpy as np
import pytest

from conftest import series_exp
from cosrel.minkowski import ETA, four_vector, lorentz_adjoint, lorentz_defect, require_lorentz
from cosrel.algebra import boost_matrix_generator, rotation_matrix_generator
from cosrel.deformation import GroupField
from cosrel.kinematics import KinematicalState, jet_slot_shapes
from cosrel.lattice import Lattice


def test_metric_square_and_symmetry():
    assert np.array_equal(ETA @ ETA, np.eye(4))
    assert np.array_equal(ETA, ETA.T)


def _inner(v, w):
    return float(np.asarray(v, dtype=float) @ ETA @ np.asarray(w, dtype=float))


def test_inner_product_signature_values():
    assert _inner([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert _inner([0, 1, 0, 0], [0, 1, 0, 0]) == -1.0
    assert _inner([1, 1, 0, 0], [1, 1, 0, 0]) == 0.0


def test_inner_product_symmetric(rng):
    for _ in range(20):
        v, w = rng.standard_normal(4), rng.standard_normal(4)
        assert _inner(v, w) == pytest.approx(_inner(w, v), abs=1e-15)


def test_four_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        four_vector([1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        four_vector([1.0, 2.0, 3.0])


def test_adjoint_identity():
    assert np.array_equal(lorentz_adjoint(np.eye(4)), np.eye(4))


def test_adjoint_of_spatial_rotation_is_transpose(rng):
    # block diag(1, R): the adjoint must equal diag(1, R^T), checked by direct 4x4 products
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta), 0],
                  [np.sin(theta), np.cos(theta), 0],
                  [0, 0, 1.0]])
    L = np.eye(4)
    L[1:, 1:] = R
    expected = np.eye(4)
    expected[1:, 1:] = R.T
    direct = ETA @ L.T @ ETA  # oracle: explicit triple product
    assert np.allclose(lorentz_adjoint(L), expected, atol=1e-15)
    assert np.allclose(lorentz_adjoint(L), direct, atol=1e-15)


def test_adjoint_inverts_boost():
    phi = 0.6
    L = series_exp(phi * boost_matrix_generator(1))
    Lminus = series_exp(-phi * boost_matrix_generator(1))
    assert np.allclose(lorentz_adjoint(L), Lminus, atol=1e-13)
    assert np.allclose(L @ lorentz_adjoint(L), np.eye(4), atol=1e-13)


def test_adjoint_is_involution(rng):
    A = rng.standard_normal((4, 4))
    assert np.array_equal(lorentz_adjoint(lorentz_adjoint(A)), A)
    # a (..., 4, 4) stack is mapped slice by slice
    stack = rng.standard_normal((3, 2, 4, 4))
    adj = lorentz_adjoint(stack)
    assert adj.shape == stack.shape
    for idx in np.ndindex(3, 2):
        assert np.array_equal(adj[idx], lorentz_adjoint(stack[idx]))
    assert np.array_equal(lorentz_adjoint(adj), stack)


def _random_lorentz(rng, scale=1.0):
    W = sum(c * G for c, G in zip(rng.uniform(-scale, scale, 6),
                                  [rotation_matrix_generator(i) for i in (1, 2, 3)]
                                  + [boost_matrix_generator(i) for i in (1, 2, 3)]))
    return series_exp(W)


def test_validated_lorentz_preserves_inner(rng):
    for _ in range(50):
        L = _random_lorentz(rng)
        require_lorentz(L, 1e-9, "matrix")
        v, w = rng.standard_normal(4), rng.standard_normal(4)
        assert abs(_inner(L @ v, L @ w) - _inner(v, w)) <= 1e-8


def test_lorentz_matrix_rejects_non_lorentz(rng):
    with pytest.raises(ValueError):
        require_lorentz(np.diag([2.0, 1.0, 1.0, 1.0]), 1e-9, "matrix")
    # on a stack the defect is the worst slice's
    stack = np.stack([_random_lorentz(rng) for _ in range(5)])
    require_lorentz(stack, 1e-9, "matrix")
    stack[3] = np.diag([2.0, 1.0, 1.0, 1.0])
    assert lorentz_defect(stack) == lorentz_defect(stack[3]) == 3.0
    with pytest.raises(ValueError):
        require_lorentz(stack, 1e-9, "matrix")


def test_proper_isochronous_rejects_non_lorentz_input():
    with pytest.raises(ValueError):
        require_lorentz(np.ones((4, 4)), 1e-9, "matrix")


def test_proper_isochronous_rejects_nan_input():
    # a NaN defect must not pass `defect > tol`: the refusal reads `not defect <= tol`
    L = np.eye(4)
    L[1, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not a Lorentz matrix"):
            require_lorentz(L, 1e-9, "matrix")


def _group_field(lat, L):
    return GroupField(lat, np.zeros(lat.shape + (4,)), L)


def _frame_state(lat, e):
    x, _, xj, ej = (np.zeros(shape) for shape in jet_slot_shapes(lat))
    return KinematicalState(lat, x, e, xj, ej)


@pytest.mark.parametrize("build", [_group_field, _frame_state])
@pytest.mark.parametrize("entry", [np.inf, 1e300])
def test_field_with_huge_matrix_entry_is_refused_without_warning(build, entry):
    # an infinite entry makes inf - inf in the matmul, a huge one overflows it: both are
    # refused by the defect test alone, with no RuntimeWarning on the way
    lat = Lattice((3, 3), (0.5, 0.5))
    L = np.broadcast_to(np.eye(4), lat.shape + (4, 4)).copy()
    L[1, 2, 2, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not a Lorentz matrix"):
            build(lat, L)
