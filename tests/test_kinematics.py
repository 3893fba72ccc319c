import numpy as np
import pytest

from conftest import same_bits, series_exp, vector_field
from cosrel.algebra import boost_matrix_generator, rotation_matrix_generator
from cosrel.deformation import GroupField, nabla_group
from cosrel.dynamics import DynamicalState
from cosrel.kinematics import (DisplacementField, KinematicalState, compose_displacements,
                               constant_displacement, deform, displacement_from_function,
                               eulerian_deform, eulerian_of, identity_displacement,
                               is_integrable, prolong, read_state, write_state)
from cosrel.lattice import Lattice
from cosrel.minkowski import lowered_antisymmetry_defect

J3 = rotation_matrix_generator(3)
K1 = boost_matrix_generator(1)


def _unit_lattice(p, n):
    return Lattice((n,) * p, (1.0 / (n - 1),) * p)


def _random_state(lat, rng):
    x = rng.standard_normal(lat.shape + (4,))
    W = rng.uniform(-0.5, 0.5, lat.shape + (1, 1))
    e = series_exp(W * J3 + 0.3 * W * K1)
    xj = rng.standard_normal(lat.shape + (lat.p, 4))
    ej = rng.standard_normal(lat.shape + (lat.p, 4, 4))
    return KinematicalState(lat, x, e, xj, ej)


def _random_displacement(lat, rng):
    a = rng.standard_normal(lat.shape + (4,))
    W = rng.uniform(-0.5, 0.5, lat.shape + (1, 1))
    L = series_exp(W * J3 - 0.4 * W * K1)
    aj = rng.standard_normal(lat.shape + (lat.p, 4))
    # Lorentz-compatible jet: L_a = w_a L with lowered-antisymmetric w_a
    Lj = np.zeros(lat.shape + (lat.p, 4, 4))
    for c in range(lat.p):
        coeff = rng.standard_normal(lat.shape + (1, 1))
        Lj[..., c, :, :] = np.einsum("...ij,...jk->...ik", coeff * J3 + 0.2 * coeff * K1, L)
    return DisplacementField(lat, a, L, aj, Lj)


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
    ok, res = is_integrable(s, tol=1e-10)
    assert ok and res <= 1e-12


_SAMPLERS = [GroupField.from_function, prolong, displacement_from_function]


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
    ok, res = is_integrable(s, tol=1e-8)
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
    ok, res = is_integrable(s, tol=h ** 2)
    assert ok


def test_deform_by_identity():
    lat = _unit_lattice(2, 7)
    rng = np.random.default_rng(1)
    s0 = _random_state(lat, rng)
    s1 = deform(identity_displacement(lat), s0)
    for a, b in ((s1.x, s0.x), (s1.e, s0.e), (s1.xj, s0.xj), (s1.ej, s0.ej)):
        assert np.array_equal(a, b)


def test_rigid_displacement_preserves_integrability():
    lat = _unit_lattice(2, 11)
    s0 = prolong(lat, lambda x: (vector_field(x[0] ** 2, x[1], 0.2, 0.0),
                                 series_exp(x[1][..., None, None] * J3)))
    _, res0 = is_integrable(s0)
    chi = constant_displacement(lat, np.array([1.0, 0, -2, 3]), series_exp(0.4 * K1))
    s1 = deform(chi, s0)
    _, res1 = is_integrable(s1)
    assert res1 <= 4 * max(res0, 1e-14)


def test_deform_matches_index_loop_oracle():
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(5)
    s0 = _random_state(lat, rng)
    chi = _random_displacement(lat, rng)
    s1 = deform(chi, s0)
    # oracle: per-point explicit loops
    for idx in [(0, 0), (2, 3), (4, 1)]:
        a, L, aj, Lj = chi.a[idx], chi.L[idx], chi.aj[idx], chi.Lj[idx]
        x0, e0, x0j, e0j = s0.x[idx], s0.e[idx], s0.xj[idx], s0.ej[idx]
        x = a + L @ x0
        e = L @ e0
        assert np.abs(s1.x[idx] - x).max() <= 1e-13
        assert np.abs(s1.e[idx] - e).max() <= 1e-13
        for c in range(2):
            xj = aj[c] + Lj[c] @ x0 + L @ x0j[c]
            ej = Lj[c] @ e0 + L @ e0j[c]
            assert np.abs(s1.xj[idx][c] - xj).max() <= 1e-13
            assert np.abs(s1.ej[idx][c] - ej).max() <= 1e-13


def test_deform_group_action_law():
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(9)
    s0 = _random_state(lat, rng)
    c1 = _random_displacement(lat, rng)
    c2 = _random_displacement(lat, rng)
    one = deform(c2, deform(c1, s0, tol=1e-6), tol=1e-6)
    two = deform(compose_displacements(c2, c1, tol=1e-6), s0, tol=1e-6)
    assert np.abs(one.x - two.x).max() <= 1e-10
    assert np.abs(one.e - two.e).max() <= 1e-10
    assert np.abs(one.xj - two.xj).max() <= 1e-10
    assert np.abs(one.ej - two.ej).max() <= 1e-10


def test_deform_lattice_mismatch():
    rng = np.random.default_rng(2)
    s0 = _random_state(_unit_lattice(2, 5), rng)
    chi = identity_displacement(_unit_lattice(2, 7))
    with pytest.raises(ValueError):
        deform(chi, s0)


def test_eulerian_of_constant_displacement():
    lat = _unit_lattice(2, 7)
    chi = constant_displacement(lat, np.array([1.0, 2, 3, 4]), series_exp(0.3 * J3))
    E = eulerian_of(chi)
    assert np.abs(E.tra.data).max() == 0.0
    assert np.abs(E.lor.data).max() == 0.0


def test_eulerian_of_pure_translation_field():
    lat = _unit_lattice(2, 9)
    chi = displacement_from_function(
        lat, lambda x: (vector_field(x[0], x[1] ** 2, 0.0, 0.0), np.eye(4)))
    E = eulerian_of(chi)
    assert np.abs(E.tra.data - chi.aj).max() <= 1e-14
    assert np.abs(E.lor.data).max() == 0.0


def test_eulerian_of_boost_exponential_analytic_jets():
    lat = _unit_lattice(2, 9)
    L = series_exp(lat.coords()[0][..., None, None] * K1)
    Lj = np.zeros(lat.shape + (2, 4, 4))
    Lj[..., 0, :, :] = K1 @ L
    chi = DisplacementField(lat, np.zeros(lat.shape + (4,)), L, np.zeros(lat.shape + (2, 4)), Lj)
    omega = eulerian_of(chi).lor.data
    assert np.abs(omega[..., 0, :, :] - K1).max() <= 1e-12
    assert np.abs(omega[..., 1, :, :]).max() <= 1e-13
    assert lowered_antisymmetry_defect(omega) <= 1e-12


def test_eulerian_of_agrees_with_nabla_group():
    lat = _unit_lattice(2, 17)

    def fn(x):
        W = ((0.3 * np.sin(x[0] + 0.4 * x[1]))[..., None, None] * J3
             + (0.2 * x[1])[..., None, None] * K1)
        return vector_field(0.1 * x[0], 0.2 * x[1], 0.0, 0.3), series_exp(W)

    chi = displacement_from_function(lat, fn)  # jets are the stencil derivatives
    eu = eulerian_of(chi)
    E = nabla_group(GroupField(lat, chi.a, chi.L))
    assert np.array_equal(eu.tra.data, E.tra.data)
    assert np.array_equal(eu.lor.data, E.lor.data)


def test_eulerian_deform_equals_deform():
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(21)
    s0 = _random_state(lat, rng)
    chi = _random_displacement(lat, rng)
    one = deform(chi, s0, tol=1e-6)
    two = eulerian_deform(chi, s0, tol=1e-6)
    scale = max(1.0, np.abs(one.xj).max(), np.abs(one.ej).max())
    assert np.abs(one.x - two.x).max() <= 1e-12 * scale
    assert np.abs(one.xj - two.xj).max() <= 1e-12 * scale
    assert np.abs(one.ej - two.ej).max() <= 1e-12 * scale


def test_eulerian_deform_identity_keeps_jets():
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(3)
    s0 = _random_state(lat, rng)
    s1 = eulerian_deform(identity_displacement(lat), s0)
    assert np.abs(s1.xj - s0.xj).max() <= 1e-14
    assert np.abs(s1.ej - s0.ej).max() <= 1e-14


def test_jet_only_displacement_shifts_jets():
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(4)
    s0 = _random_state(lat, rng)
    aj = rng.standard_normal(lat.shape + (2, 4))
    chi = DisplacementField(lat, np.zeros(lat.shape + (4,)),
                            np.broadcast_to(np.eye(4), lat.shape + (4, 4)).copy(),
                            aj, np.zeros(lat.shape + (2, 4, 4)))
    s1 = deform(chi, s0)
    assert np.abs(s1.xj - (s0.xj + aj)).max() <= 1e-14


def test_state_io_roundtrip(tmp_path):
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(8)
    s = _random_state(lat, rng)
    path = tmp_path / "state.grid"
    write_state(path, s)
    back = read_state(path)
    assert np.array_equal(back.x, s.x)
    assert np.array_equal(back.e, s.e)
    assert np.array_equal(back.xj, s.xj)
    assert np.array_equal(back.ej, s.ej)


def _reference_action(a, L, aj, Lj, x, e, xj, ej):
    """The inline 1-jet action formulas deform() and compose_displacements() replaced."""
    x2 = a + np.einsum("...ij,...j->...i", L, x)
    e2 = np.einsum("...ij,...jk->...ik", L, e)
    xj2 = aj + np.einsum("...aij,...j->...ai", Lj, x) \
        + np.einsum("...ij,...aj->...ai", L, xj)
    ej2 = np.einsum("...aij,...jk->...aik", Lj, e) \
        + np.einsum("...ij,...ajk->...aik", L, ej)
    return x2, e2, xj2, ej2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_deform_and_compose_pinned_to_inline_formulas(p):
    lat = _unit_lattice(p, 4)
    rng = np.random.default_rng(40 + p)
    s0 = _random_state(lat, rng)
    c1, c2 = _random_displacement(lat, rng), _random_displacement(lat, rng)
    s1 = deform(c1, s0, tol=1e-6)
    want = _reference_action(c1.a, c1.L, c1.aj, c1.Lj, s0.x, s0.e, s0.xj, s0.ej)
    assert all(same_bits(g, w) for g, w in zip((s1.x, s1.e, s1.xj, s1.ej), want))
    c21 = compose_displacements(c2, c1, tol=1e-6)
    want = _reference_action(c2.a, c2.L, c2.aj, c2.Lj, c1.a, c1.L, c1.aj, c1.Lj)
    assert all(same_bits(g, w) for g, w in zip((c21.a, c21.L, c21.aj, c21.Lj), want))


def test_identity_displacement_pinned():
    lat = _unit_lattice(2, 4)
    chi = identity_displacement(lat)
    want = (np.zeros(lat.shape + (4,)), np.broadcast_to(np.eye(4), lat.shape + (4, 4)),
            np.zeros(lat.shape + (2, 4)), np.zeros(lat.shape + (2, 4, 4)))
    assert all(same_bits(g, w) for g, w in zip((chi.a, chi.L, chi.aj, chi.Lj), want))


@pytest.mark.parametrize("section, what", [(KinematicalState, "state"),
                                           (DisplacementField, "displacement"),
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
