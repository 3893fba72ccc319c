import numpy as np
import pytest

from conftest import series_exp
from cosrel.algebra import boost_matrix_generator, rotation_matrix_generator
from cosrel.deformation import (AlgebraForm, GroupField, closedness_residual, dislocation,
                                incompatibility, nabla_group, read_group_field,
                                write_group_field)
from cosrel.lattice import FormField, Lattice

J3 = rotation_matrix_generator(3)
K1 = boost_matrix_generator(1)


def _unit_lattice(p, n):
    return Lattice((n,) * p, (1.0 / (n - 1),) * p)


def test_constant_group_field_has_zero_deformation():
    lat = _unit_lattice(2, 9)
    g = GroupField.from_function(lat, lambda x: (np.array([1.0, 2, 3, 4]), series_exp(0.3 * J3)))
    E = nabla_group(g)
    assert E.tra.max_norm() <= 1e-13
    assert E.lor.max_norm() <= 1e-13


def test_linear_translation_field():
    lat = _unit_lattice(2, 9)
    v0 = np.array([0.5, -1.0, 2.0, 0.0])
    g = GroupField.from_function(lat, lambda x: (x[0][..., None] * v0, np.eye(4)))
    E = nabla_group(g)
    assert np.abs(E.tra.component((0,)) - v0).max() <= 1e-12
    assert np.abs(E.tra.component((1,))).max() <= 1e-12
    assert E.lor.max_norm() <= 1e-13


def test_exponential_rotation_field_gives_constant_generator():
    lat = _unit_lattice(2, 17)
    g = GroupField.from_function(lat, lambda x: (np.zeros(4),
                                                 series_exp(x[0][..., None, None] * J3)))
    E = nabla_group(g)
    sel = lat.interior() + (Ellipsis,)
    h = lat.spacing[0]
    err = np.abs(E.lor.component((0,))[sel[:-1] + (Ellipsis,)] - J3).max()
    assert err <= 5 * h ** 2
    assert np.abs(E.lor.component((1,))).max() <= 1e-12


def test_dislocation_of_zero_deformation():
    lat = _unit_lattice(2, 9)
    E = AlgebraForm.zeros(lat, 1)
    Om = dislocation(E)
    assert Om.tra.max_norm() == 0.0 and Om.lor.max_norm() == 0.0


def _smooth_group(x):
    r = sum(x)
    W = ((0.3 * np.sin(x[0] + 0.5 * x[1]))[..., None, None] * J3
         + (0.2 * np.cos(r))[..., None, None] * K1)
    a = np.stack([0.2 * np.sin(r), 0.1 * x[0], -0.15 * np.cos(x[1]), 0.05 * r], axis=-1)
    return a, series_exp(W)


def test_dislocation_of_gradient_converges_quadratically():
    norms = {}
    for n in (17, 33):
        lat = _unit_lattice(2, n)
        E = nabla_group(GroupField.from_function(lat, _smooth_group))
        norms[n] = dislocation(E).interior_max()
    ratio = norms[17] / norms[33]
    assert 3.5 <= ratio <= 4.5
    assert norms[33] <= 1e-3


def test_dislocation_hand_oracle():
    # translation-valued shear xi = rho^2 d rho^1 along the first frame member
    lat = _unit_lattice(2, 13)
    r = lat.coords()
    xi = np.zeros(lat.shape + (2, 4))
    xi[..., 0, 1] = r[1]
    E = AlgebraForm(FormField(lat, 1, xi), FormField(lat, 1, np.zeros(lat.shape + (2, 4, 4))))
    Om = dislocation(E)
    expected = np.zeros(4)
    expected[1] = -1.0  # d(rho^2 d rho^1) = -d rho^1 ^ d rho^2
    assert np.abs(Om.tra.component((0, 1)) - expected).max() <= 1e-11
    assert Om.lor.max_norm() == 0.0


def test_dislocation_requires_two_dimensions():
    lat = Lattice((9,), (0.1,))
    with pytest.raises(ValueError):
        dislocation(AlgebraForm.zeros(lat, 1))


def test_dislocation_refuses_a_dimension_first_then_a_degree():
    with pytest.raises(ValueError, match="dimension >= 2"):
        dislocation(AlgebraForm.zeros(Lattice((9,), (0.1,)), 0))
    with pytest.raises(ValueError, match="degree-1"):
        dislocation(AlgebraForm.zeros(_unit_lattice(2, 5), 2))


def test_incompatibility_zeros():
    lat = _unit_lattice(3, 7)
    E = AlgebraForm.zeros(lat, 1)
    Om = AlgebraForm.zeros(lat, 2)
    Psi = incompatibility(Om, E)
    assert Psi.tra.max_norm() == 0.0 and Psi.lor.max_norm() == 0.0


def test_incompatibility_of_constant_two_form_with_zero_deformation():
    lat = _unit_lattice(3, 7)
    E = AlgebraForm.zeros(lat, 1)
    Om = AlgebraForm.zeros(lat, 2)
    Om.tra.data[..., :] = 0.0
    Om.tra.data[..., 0, 2] = 1.3   # constant coefficient on the first 2-index pair
    Om.lor.data[..., 1, :, :] = 0.4 * J3
    Psi = incompatibility(Om, E)
    assert Psi.tra.interior_max() <= 1e-13
    assert Psi.lor.interior_max() <= 1e-13


def _smooth_form(lat):
    r = lat.coords()
    xi = np.zeros(lat.shape + (lat.p, 4))
    om = np.zeros(lat.shape + (lat.p, 4, 4))
    xi[..., 0, 1] = 0.4 * np.sin(r[0] + 0.7 * r[1])
    xi[..., 1, 0] = 0.3 * np.cos(r[1] + 0.5 * r[2])
    xi[..., 2, 3] = 0.2 * np.sin(r[0] + r[2])
    om[..., 0, :, :] = (0.3 * np.cos(r[1]))[..., None, None] * J3
    om[..., 1, :, :] = (0.25 * np.sin(r[0] + r[2]))[..., None, None] * K1
    om[..., 2, :, :] = (0.2 * np.sin(r[1] + 0.3))[..., None, None] * (J3 + K1)
    return AlgebraForm(FormField(lat, 1, xi), FormField(lat, 1, om))


def test_bianchi_identity_converges_quadratically():
    norms = {}
    for n in (9, 17):
        lat = _unit_lattice(3, n)
        E = _smooth_form(lat)
        norms[n] = incompatibility(dislocation(E), E).interior_max()
    order = np.log2(norms[9] / norms[17])
    assert 1.7 <= order <= 2.3


def test_incompatibility_requires_three_dimensions():
    lat = _unit_lattice(2, 5)
    with pytest.raises(ValueError):
        incompatibility(AlgebraForm.zeros(lat, 2), AlgebraForm.zeros(lat, 1))


def test_closedness_residual_of_exact_form():
    # analytic differential of a potential: closed up to discretization error
    vals = {}
    for n in (17, 33):
        lat = _unit_lattice(2, n)
        r = lat.coords()
        E = AlgebraForm.zeros(lat, 1)
        E.tra.data[..., 0, 0] = np.cos(r[0] + 0.6 * r[1])
        E.tra.data[..., 1, 0] = 0.6 * np.cos(r[0] + 0.6 * r[1])
        vals[n] = closedness_residual(E)
    assert 3.0 <= vals[17] / vals[33] <= 5.0


def test_closedness_residual_hand_value():
    lat = _unit_lattice(2, 13)
    r = lat.coords()
    E = AlgebraForm.zeros(lat, 1)
    E.tra.data[..., 0, 0] = r[1]   # v = rho^2 d rho^1, scalar slot 0
    assert closedness_residual(E) == pytest.approx(1.0, abs=1e-11)
    assert closedness_residual(AlgebraForm.zeros(lat, 1)) == 0.0


def test_nan_lorentz_part_is_not_dropped():
    # a NaN Lorentz part must not hide behind the finite translation part
    lat = _unit_lattice(2, 5)
    E = AlgebraForm.zeros(lat, 1)
    E.lor.data[2, 2, 0, 1, 0] = np.nan
    assert np.isnan(E.interior_max())
    assert np.isnan(closedness_residual(E))


def test_group_field_rejects_non_lorentz():
    lat = _unit_lattice(2, 5)
    a = np.zeros(lat.shape + (4,))
    L = np.broadcast_to(2 * np.eye(4), lat.shape + (4, 4)).copy()
    with pytest.raises(ValueError):
        GroupField(lat, a, L)


def test_group_field_io_roundtrip(tmp_path):
    lat = _unit_lattice(2, 5)
    g = GroupField.from_function(lat, _smooth_group)
    path = tmp_path / "disp.grid"
    write_group_field(path, g)
    back = read_group_field(path)
    assert np.array_equal(back.a, g.a)
    assert np.array_equal(back.L, g.L)


def test_algebra_form_io_roundtrip(tmp_path):
    lat = _unit_lattice(2, 5)
    E = nabla_group(GroupField.from_function(lat, _smooth_group))
    from cosrel.deformation import read_algebra_form, write_algebra_form
    path = tmp_path / "deform.grid"
    write_algebra_form(path, E)
    back = read_algebra_form(path)
    assert back.degree == 1
    assert np.array_equal(back.tra.data, E.tra.data)
    assert np.array_equal(back.lor.data, E.lor.data)
