import numpy as np
import pytest

from conftest import same_bits, series_exp
from cosrel.algebra import boost_matrix_generator, rotation_matrix_generator
from cosrel.dynamics import (DynamicalState, EulerianVariation, barred_moments,
                             cosserat_residual, direct_virtual_work, lagrangian_of,
                             poincare_invariance_residual, total_virtual_work,
                             virtual_work_density)
from cosrel.kinematics import is_integrable, jet_slot_shapes, prolong
from cosrel.lattice import Lattice
from cosrel.minkowski import ETA

J3 = rotation_matrix_generator(3)
K1 = boost_matrix_generator(1)


def _unit_lattice(p, n):
    return Lattice((n,) * p, (1.0 / (n - 1),) * p)


def _bump_state(lat):
    def fn(c):
        r = sum(c)
        x = np.zeros(lat.shape + (4,))
        x[..., : lat.p] = np.stack(c, axis=-1)
        x[..., 0] += 0.1 * np.sin(r)
        x[..., 3] = 0.2 * np.cos(c[0])
        e = series_exp((0.2 * np.sin(c[0]))[..., None, None] * J3
                       + (0.1 * np.cos(r))[..., None, None] * K1)
        return x, e
    return prolong(lat, fn)


def _zero_phi(lat):
    return DynamicalState(lat, *map(np.zeros, jet_slot_shapes(lat)))


def _canonical_state(lat):
    def fn(c):
        x = np.zeros(lat.shape + (4,))
        x[..., : lat.p] = np.stack(c, axis=-1)
        return x, np.eye(4)
    return prolong(lat, fn)


def _random_phi(lat, rng):
    p = lat.p
    return DynamicalState(lat, rng.standard_normal(lat.shape + (4,)),
                          rng.standard_normal(lat.shape + (4, 4)),
                          rng.standard_normal(lat.shape + (p, 4)),
                          rng.standard_normal(lat.shape + (p, 4, 4)))


def _random_variation(lat, rng):
    p = lat.p

    def anti(shape):
        raw = rng.standard_normal(shape)
        low = 0.5 * (raw - np.swapaxes(raw, -1, -2))
        return np.einsum("ij,...jk->...ik", ETA, low)

    return EulerianVariation(rng.standard_normal(lat.shape + (4,)),
                             anti(lat.shape + (4, 4)),
                             rng.standard_normal(lat.shape + (p, 4)),
                             anti(lat.shape + (p, 4, 4)))


def _barred_moment_loop_oracle(phi, s, idx):
    """Index-by-index evaluation of the lowered antisymmetric moments at one point."""
    F, M = phi.F[idx], phi.M[idx]
    sig, mu = phi.sigma[idx], phi.mu[idx]
    x, e, xj, ej = s.x[idx], s.e[idx], s.xj[idx], s.ej[idx]
    p = sig.shape[0]
    x_low = ETA @ x
    e_low = ETA @ e          # e_{mu nu} = eta_{mu kappa} e^kappa_nu
    Mbar = np.zeros((4, 4))
    mubar = np.zeros((p, 4, 4))
    for m in range(4):
        for n in range(4):
            val = 0.0
            val += 0.5 * (F[m] * x_low[n] - F[n] * x_low[m])
            for k in range(4):
                val += 0.5 * (M[m, k] * e_low[n, k] - M[n, k] * e_low[m, k])
            for a in range(p):
                xj_low = ETA @ xj[a]
                val += 0.5 * (sig[a, m] * xj_low[n] - sig[a, n] * xj_low[m])
                ej_low = ETA @ ej[a]
                for k in range(4):
                    val += 0.5 * (mu[a, m, k] * ej_low[n, k] - mu[a, n, k] * ej_low[m, k])
            Mbar[m, n] = val
            for a in range(p):
                v = 0.5 * (sig[a, m] * x_low[n] - sig[a, n] * x_low[m])
                for k in range(4):
                    v += 0.5 * (mu[a, m, k] * e_low[n, k] - mu[a, n, k] * e_low[m, k])
                mubar[a, m, n] += v
    return Mbar, mubar


def test_barred_moments_zero_phi():
    lat = _unit_lattice(2, 5)
    s = _bump_state(lat)
    Mbar, mubar = barred_moments(_zero_phi(lat), s)
    assert np.abs(Mbar).max() == 0.0 and np.abs(mubar).max() == 0.0


def test_barred_moments_drop_symmetric_couple_on_canonical_state():
    lat = _unit_lattice(2, 5)
    s = _canonical_state(lat)
    s.x[:] = 0.0
    s.xj[:] = 0.0  # isolate the couple term
    rng = np.random.default_rng(0)
    S = rng.standard_normal(lat.shape + (4, 4))
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    phi = DynamicalState(lat, np.zeros(lat.shape + (4,)), S @ ETA,
                         np.zeros(lat.shape + (2, 4)), np.zeros(lat.shape + (2, 4, 4)))
    Mbar, _ = barred_moments(phi, s)
    assert np.abs(Mbar).max() <= 1e-14


def test_barred_moments_match_loop_oracle():
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(12)
    s = _bump_state(lat)
    phi = _random_phi(lat, rng)
    Mbar, mubar = barred_moments(phi, s)
    for idx in [(0, 0), (1, 3), (4, 2)]:
        Mo, mo = _barred_moment_loop_oracle(phi, s, idx)
        assert np.abs(Mbar[idx] - Mo).max() <= 1e-13
        assert np.abs(mubar[idx] - mo).max() <= 1e-13


def test_virtual_work_zero_cases():
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(1)
    s = _bump_state(lat)
    phi = _random_phi(lat, rng)
    zero = EulerianVariation(np.zeros(lat.shape + (4,)), np.zeros(lat.shape + (4, 4)),
                             np.zeros(lat.shape + (2, 4)), np.zeros(lat.shape + (2, 4, 4)))
    assert np.abs(virtual_work_density(phi, s, zero)).max() == 0.0
    var = _random_variation(lat, rng)
    assert np.abs(virtual_work_density(_zero_phi(lat), s, var)).max() == 0.0


def test_virtual_work_picture_crosscheck():
    lat = _unit_lattice(2, 7)
    rng = np.random.default_rng(2)
    s = _bump_state(lat)
    phi = _random_phi(lat, rng)
    var_e = _random_variation(lat, rng)
    var_l = lagrangian_of(var_e, s)
    d_lag = virtual_work_density(phi, s, var_l)
    d_eul = virtual_work_density(phi, s, var_e)
    scale = max(1.0, np.abs(d_lag).max())
    assert np.abs(d_lag - d_eul).max() <= 1e-12 * scale


def test_virtual_work_picture_mismatch_rejected():
    lat = _unit_lattice(2, 5)
    s = _bump_state(lat)
    phi = _zero_phi(lat)
    with pytest.raises(TypeError):
        virtual_work_density(phi, s, "not a variation")


def test_total_virtual_work_zero_variation():
    lat = _unit_lattice(2, 7)
    s = _bump_state(lat)
    phi = _random_phi(lat, np.random.default_rng(3))
    bulk, boundary = total_virtual_work(phi, s, np.zeros(lat.shape + (4,)),
                                        np.zeros(lat.shape + (4, 4)))
    assert bulk == 0.0 and boundary == 0.0


def test_interior_supported_variation_has_no_flux():
    lat = _unit_lattice(2, 9)
    s = _bump_state(lat)
    phi = _random_phi(lat, np.random.default_rng(4))
    dxi0 = np.zeros(lat.shape + (4,))
    dI0 = np.zeros(lat.shape + (4, 4))
    dxi0[3:-3, 3:-3, :] = 1.0  # vanishes on a band near the boundary
    dI0[4, 4] = ETA @ (ETA @ J3)  # single interior point carries a Lorentz variation
    bulk, boundary = total_virtual_work(phi, s, dxi0, dI0)
    assert abs(boundary) <= 1e-12


def test_integration_by_parts_refinement():
    # the bulk/boundary split matches the direct integral at second order;
    # coarser grid pairs sit before the asymptotic range (defect cancellation)
    mismatches = {}
    for n in (33, 65):
        lat = _unit_lattice(2, n)
        s = _bump_state(lat)
        phi = _smooth_phi(lat)
        r = lat.coords()
        dxi0 = np.stack([np.sin(r[0]), np.cos(0.7 * r[1]), r[0] * r[1],
                         0.5 * np.ones(lat.shape)], axis=-1)
        G = ETA @ (0.5 * ((ETA @ J3) - (ETA @ J3).T))
        dI0 = np.cos(r[0] + r[1])[..., None, None] * G
        bulk, boundary = total_virtual_work(phi, s, dxi0, dI0)
        direct = direct_virtual_work(phi, s, dxi0, dI0)
        mismatches[n] = abs(bulk + boundary - direct)
    order = np.log2(mismatches[33] / mismatches[65])
    assert 1.7 <= order <= 2.3


def _smooth_phi(lat):
    r = lat.coords()
    p = lat.p
    F = np.stack([np.sin(r[0]), np.cos(r[1]), r[0], np.ones(lat.shape)], axis=-1)
    M = np.zeros(lat.shape + (4, 4))
    M[..., 0, 1] = np.sin(r[0] + r[1])
    M[..., 2, 3] = np.cos(r[0])
    sigma = np.zeros(lat.shape + (p, 4))
    sigma[..., 0, :] = np.stack([np.cos(r[0]), np.sin(r[1]), r[1], np.zeros(lat.shape)], axis=-1)
    sigma[..., 1, :] = np.stack([r[0] * r[1], np.cos(r[1]), np.ones(lat.shape),
                                 np.sin(r[0])], axis=-1)
    mu = np.zeros(lat.shape + (p, 4, 4))
    mu[..., 0, 1, 2] = np.sin(r[0])
    mu[..., 1, 0, 3] = np.cos(r[0] + r[1])
    return DynamicalState(lat, F, M, sigma, mu)


def test_invariant_construction_kills_force_and_moment():
    lat = _unit_lattice(2, 7)
    rng = np.random.default_rng(5)
    s = _bump_state(lat)
    sigma = rng.standard_normal(lat.shape + (2, 4))
    mu = rng.standard_normal(lat.shape + (2, 4, 4))
    phi0 = DynamicalState(lat, np.zeros(lat.shape + (4,)), np.zeros(lat.shape + (4, 4)),
                          sigma, mu)
    Mbar0, _ = barred_moments(phi0, s)
    e_low_t = np.einsum("...jk,jl->...kl", s.e, ETA)
    M = np.einsum("...ij,...jk->...ik", -Mbar0, np.linalg.inv(e_low_t))
    phi = DynamicalState(lat, phi0.F, M, sigma, mu)
    rF, rM = poincare_invariance_residual(phi, s)
    assert rF == 0.0 and rM <= 1e-12


def test_constant_force_residual_reported():
    lat = _unit_lattice(2, 5)
    s = _bump_state(lat)
    phi = _zero_phi(lat)
    phi.F[..., 2] = -1.5
    rF, _ = poincare_invariance_residual(phi, s)
    assert rF == pytest.approx(1.5, abs=1e-15)


def test_cosserat_residual_constant_fields_canonical_state():
    # canonical embedding, sigma with symmetric lowered moment, couple from the
    # internal identity: the residual vanishes on the interior
    lat = _unit_lattice(2, 9)
    s = _canonical_state(lat)
    Z = np.zeros((4, 4))
    Z[:2, :2] = np.array([[1.2, 0.4], [0.4, -0.7]])
    Z[2, 2] = 0.3
    sigma = np.zeros(lat.shape + (2, 4))
    for a in range(2):
        sigma[..., a, :] = (ETA @ Z)[a]  # sigma^a_mu = eta^{a k} Z_{k mu}, Z symmetric
    mu = np.zeros(lat.shape + (2, 4, 4))
    phi0 = DynamicalState(lat, np.zeros(lat.shape + (4,)), np.zeros(lat.shape + (4, 4)),
                          sigma, mu)
    Mbar0, _ = barred_moments(phi0, s)
    e_low_t = np.einsum("...jk,jl->...kl", s.e, ETA)
    M = np.einsum("...ij,...jk->...ik", -Mbar0, np.linalg.inv(e_low_t))
    phi = DynamicalState(lat, phi0.F, M, sigma, mu)

    r1, r2 = cosserat_residual(phi, s)
    sel = lat.interior() + (Ellipsis,)
    assert np.abs(r1[sel]).max() <= 1e-12
    assert np.abs(r2[sel]).max() <= 1e-12


def test_cosserat_residual_linear_stress_p1():
    lat = Lattice((21,), (0.05,))
    s = _canonical_state(lat)
    c = np.array([0.3, -1.0, 0.7, 2.0])
    r = lat.coords()[0]
    sigma = np.zeros(lat.shape + (1, 4))
    sigma[..., 0, :] = r[..., None] * c
    phi = DynamicalState(lat, np.broadcast_to(c, lat.shape + (4,)).copy(),
                         np.zeros(lat.shape + (4, 4)), sigma, np.zeros(lat.shape + (1, 4, 4)))
    r1, _ = cosserat_residual(phi, s)
    assert np.abs(r1).max() <= 1e-12  # exact: stencils differentiate linears exactly


def test_cosserat_residual_antisymmetry_and_errors():
    lat = _unit_lattice(2, 5)
    rng = np.random.default_rng(6)
    s = _bump_state(lat)
    phi = _random_phi(lat, rng)
    _, r2 = cosserat_residual(phi, s)
    assert np.abs(r2 + np.swapaxes(r2, -1, -2)).max() <= 1e-12
    s.xj[:] += 1.0
    with pytest.raises(ValueError):
        cosserat_residual(phi, s)


def _manufactured_fields(lat):
    """sigma with hand divergence, lowered couple stress with hand divergence."""
    r0, r1 = lat.coords()
    cvec = np.array([1.0, -0.7, 0.4, 0.2])
    dvec = np.array([0.3, 1.1, -0.5, 0.6])
    sigma = np.zeros(lat.shape + (2, 4))
    sigma[..., 0, :] = np.sin(r0 + 0.5 * r1)[..., None] * cvec
    sigma[..., 1, :] = np.cos(0.4 * r0 - r1)[..., None] * dvec
    div_sigma = (np.cos(r0 + 0.5 * r1)[..., None] * cvec
                 + np.sin(0.4 * r0 - r1)[..., None] * dvec)
    A1 = np.zeros((4, 4)); A1[0, 1], A1[1, 0] = 1.0, -1.0
    A2 = np.zeros((4, 4)); A2[2, 3], A2[3, 2] = 1.0, -1.0
    mubar = np.zeros(lat.shape + (2, 4, 4))
    mubar[..., 0, :, :] = np.sin(r0)[..., None, None] * A1 + (r1 ** 2)[..., None, None] * A2
    mubar[..., 1, :, :] = np.cos(r1)[..., None, None] * A1
    div_mubar = (np.cos(r0)[..., None, None] * A1 - np.sin(r1)[..., None, None] * A1)
    return sigma, div_sigma, mubar, div_mubar


def _realize_phi(lat, s, sigma, F, mubar_target, Mbar_target):
    e_low_t = np.einsum("...jk,jl->...kl", s.e, ETA)
    inv = np.linalg.inv(e_low_t)
    x_low = s.x @ ETA
    sig_x = 0.5 * (np.einsum("...ai,...j->...aij", sigma, x_low)
                   - np.einsum("...aj,...i->...aij", sigma, x_low))
    mu = np.einsum("...aij,...jk->...aik", mubar_target - sig_x, inv)
    phi0 = DynamicalState(lat, F, np.zeros(lat.shape + (4, 4)), sigma, mu)
    Mbar0, _ = barred_moments(phi0, s)
    M = np.einsum("...ij,...jk->...ik", Mbar_target - Mbar0, inv)
    return DynamicalState(lat, F, M, sigma, mu)


def test_manufactured_solution_quadratic_convergence():
    norms = {}
    for n in (9, 17):
        lat = _unit_lattice(2, n)
        s = _bump_state(lat)
        sigma, div_sigma, mubar, div_mubar = _manufactured_fields(lat)
        phi = _realize_phi(lat, s, sigma, div_sigma, mubar, div_mubar)
        r1, r2 = cosserat_residual(phi, s)
        sel = lat.interior() + (Ellipsis,)
        norms[n] = max(np.abs(r1[sel]).max(), np.abs(r2[sel]).max())
    order = np.log2(norms[9] / norms[17])
    assert 1.7 <= order <= 2.3


@pytest.mark.parametrize("balance", [cosserat_residual])
def test_non_integrable_state_is_refused(balance):
    lat = _unit_lattice(4, 3)
    s = _canonical_state(lat)
    s.xj[:] += 1.0
    _, res = is_integrable(s)
    with pytest.raises(ValueError) as info:
        balance(_zero_phi(lat), s)
    message = str(info.value)
    assert "state is not integrable" in message
    assert f"residual {res:.3e}" in message and "> 1.000e-06" in message


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lagrangian_of_pinned_to_inline_formulas(p):
    lat = _unit_lattice(p, 4)
    rng = np.random.default_rng(50 + p)
    s = _bump_state(lat)
    var = _random_variation(lat, rng)
    got = lagrangian_of(var, s)
    dx = var.dxi + np.einsum("...ij,...j->...i", var.dI, s.x)
    de = np.einsum("...ij,...jk->...ik", var.dI, s.e)
    dxj = var.dxij + np.einsum("...aij,...j->...ai", var.dIj, s.x) \
        + np.einsum("...ij,...aj->...ai", var.dI, s.xj)
    dej = np.einsum("...aij,...jk->...aik", var.dIj, s.e) \
        + np.einsum("...ij,...ajk->...aik", var.dI, s.ej)
    assert all(same_bits(g, w) for g, w in zip((got.dx, got.de, got.dxj, got.dej),
                                                (dx, de, dxj, dej)))

