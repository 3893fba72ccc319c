import numpy as np
import pytest

from conftest import same_bits, series_exp, vector_field
from cosrel.algebra import boost_matrix_generator, rotation_matrix_generator
from cosrel.deformation import GroupField
from cosrel.dynamics import DynamicalState
from cosrel.kinematics import KinematicalState, is_integrable, prolong
from cosrel.lattice import Lattice

J3 = rotation_matrix_generator(3)
K1 = boost_matrix_generator(1)


def _unit_lattice(p, n):
    return Lattice((n,) * p, (1.0 / (n - 1),) * p)


def test_prolong_constant_object():
    lat = _unit_lattice(2, 7)
    s = prolong(lat, lambda x: (np.array([1.0, 2, 3, 4]), np.eye(4)))
    assert np.abs(s.xj).max() == 0.0
    assert np.abs(s.ej).max() == 0.0


def test_prolong_straight_worldline():
    lat = Lattice((21,), (0.05,))
    v0 = np.array([1.0, 0.3, -0.2, 0.1])
    s = prolong(lat, lambda x: (x[0][..., None] * v0, np.eye(4)))
    assert np.abs(s.xj[..., 0, :] - v0).max() <= 1e-12
    assert np.abs(s.ej).max() <= 1e-13


def test_prolong_rotating_frame_matches_analytic_derivative():
    lat = Lattice((33,), (1.0 / 32,))
    e0 = series_exp(0.2 * K1)
    s = prolong(lat, lambda x: (np.zeros(4), series_exp(x[0][..., None, None] * J3) @ e0))
    analytic = np.einsum("ij,...jk->...ik", J3, s.e)
    sel = lat.interior() + (Ellipsis,)
    err = np.abs(s.ej[..., 0, :, :][sel] - analytic[sel]).max()
    assert err <= 5 * lat.spacing[0] ** 2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_prolong_output_is_integrable(p):
    # the body dimension and the frame count are independent
    lat = _unit_lattice(p, 7)
    s = prolong(lat, lambda x: (vector_field(np.sin(x[0]), sum(x), 0.0, 0.0),
                                series_exp(x[0][..., None, None] * J3)))
    ok, res = is_integrable(s)
    assert ok and res <= 1e-12


_SAMPLERS = [GroupField.from_function, prolong]


@pytest.mark.parametrize("sampler", _SAMPLERS)
def test_samplers_refuse_a_per_point_closure(sampler):
    lat = _unit_lattice(2, 5)
    with pytest.raises(ValueError):
        sampler(lat, lambda point: (np.array([point[0], 0, 0, 0]), np.eye(4)))


@pytest.mark.parametrize("sampler", _SAMPLERS)
def test_samplers_broadcast_a_constant_closure(sampler):
    lat = _unit_lattice(2, 5)
    a, L = np.array([1.0, 2, 3, 4]), series_exp(0.3 * J3)
    out = sampler(lat, lambda x: (a, L))
    got = (out.x, out.e) if isinstance(out, KinematicalState) else (out.a, out.L)
    assert same_bits(got[0], np.broadcast_to(a, lat.shape + (4,)).copy())
    assert same_bits(got[1], np.broadcast_to(L, lat.shape + (4, 4)).copy())


def test_zeroed_jets_not_integrable():
    lat = _unit_lattice(2, 9)
    s = prolong(lat, lambda x: (vector_field(x[0], x[1], 0.0, 0.0), np.eye(4)))
    s.xj[:] = 0.0
    ok, res = is_integrable(s)
    assert not ok and res > 0.5


def test_analytic_jets_integrable_within_stencil_error():
    lat = _unit_lattice(2, 17)
    r = lat.coords()
    x = np.zeros(lat.shape + (4,))
    x[..., 0] = np.sin(r[0])
    x[..., 1] = r[1]
    e = np.broadcast_to(np.eye(4), lat.shape + (4, 4)).copy()
    xj = np.zeros(lat.shape + (2, 4))
    xj[..., 0, 0] = np.cos(r[0])
    xj[..., 1, 1] = 1.0
    ej = np.zeros(lat.shape + (2, 4, 4))
    s = KinematicalState(lat, x, e, xj, ej)
    h = lat.spacing[0]
    _, res = is_integrable(s)
    assert res <= h ** 2


@pytest.mark.parametrize("section, what", [(KinematicalState, "state"),
                                           (DynamicalState, "dynamical state")])
@pytest.mark.parametrize("slot", [0, 1, 2, 3])
@pytest.mark.parametrize("wrong", ["grid-axes", "value-axis"])
def test_slot_shape_mismatch_refused(section, what, slot, wrong):
    lat = Lattice((3, 4), (0.5, 0.5))
    slots = [np.zeros(lat.shape + (4,)), np.broadcast_to(np.eye(4), lat.shape + (4, 4)),
             np.zeros(lat.shape + (2, 4)), np.zeros(lat.shape + (2, 4, 4))]
    section(lat, *slots)
    slots[slot] = np.swapaxes(slots[slot], 0, 1) if wrong == "grid-axes" else slots[slot][..., :3]
    with pytest.raises(ValueError, match=f"^{what} arrays do not match the lattice$"):
        section(lat, *slots)
